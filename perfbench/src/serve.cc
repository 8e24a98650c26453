// serve_hot and serve_push: RCNP prediction traffic against a server
// process built the way tools/rc_server builds it (offline pipeline, store,
// push-mode client, net::Server with the shared combiner and the auto
// engine), driven by a load generator in a second process pinned to the
// other half of the CPUs.
//
// Timeline of one run (server process):
//   setup   trace generation, OfflinePipeline::Run + Publish, client
//           initialize, input generation, server start, load-generator
//           spawn and warm-up (ends when the generator signals 'W');
//   timed   open-loop phase (70% of --seconds) then closed-loop phase;
//           serve_push publishes feature records into the server's KvStore
//           at a fixed rate throughout ('E' ends it);
//   after   serve_hot's idle push probe, freshness probes, registry reads,
//           the correctness checks and, with --trace 1, the layer replays.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/checks.h"
#include "src/core/client.h"
#include "src/core/model_spec.h"
#include "src/core/offline_pipeline.h"
#include "src/layers.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/spans.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"
#include "src/util.h"
#include "src/workloads.h"

extern char** environ;

namespace rcbench {
namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;
using rc::core::SubscriptionFeatures;

// --- the serving workload model (README "Inputs") ---
constexpr int64_t kVms = 20'000;       // rc_server's default synthetic trace
constexpr int kSubscriptions = 800;    // rc_server: vms / 25
constexpr int kTraceDays = 90;
constexpr int kTrainDays = 60;         // rc_server: days * 2 / 3
// The served deployment is rc_server's default synthetic one (trace seed 7),
// the same on every run; --seed drives what is asked of it: the working set,
// the request stream, the arrival times and the order of the pushes.
constexpr uint64_t kTraceSeed = 7;
constexpr size_t kWorkingSet = 2048;   // distinct VMs requested
constexpr double kZipfS = 0.99;
constexpr double kManyShare = 0.2;     // share of requests that are PredictMany
constexpr uint32_t kManyBatch = 16;
// Offered requests per second, open loop. Well below saturation: every
// answer for a brand-new subscription takes the client's writer lock for
// about 60 us (Client::PredictMiss), and at 4,000/s that lock ran near 80%
// busy, so host hiccups tipped the open loop into a growing backlog.
constexpr double kOpenRate = 1000.0;
constexpr double kOpenShare = 0.7;     // share of --seconds spent open loop
constexpr double kRampS = 1.0;         // open-loop warm-up before the timed phase
constexpr size_t kStreamOps = 200'000; // distinct requests (closed loop cycles)
constexpr double kPushRate = 20.0;     // serve_push records per second
constexpr size_t kProbePushes = 400;   // serve_hot: idle pushes after the reads
constexpr double kProbeRate = 100.0;
constexpr int64_t kDeadlineUs = 5'000'000;
// The p99s are medians over windows of this length (README "Metrics").
constexpr uint64_t kTailWindowNs = 500'000'000;
// preds_per_s is the median over windows of this length of the closed loop.
constexpr uint64_t kRateWindowNs = 250'000'000;

struct OpDesc {
  uint32_t model;
  uint32_t first;  // into the key array
  uint32_t count;  // 1 = PredictSingle, >1 = PredictMany
};

struct OpResult {
  uint32_t op;
  uint8_t phase;  // 0 warm-up, 1 open loop, 2 closed loop, 3 open-loop ramp
  uint8_t status;
  uint16_t thread;
  uint64_t due_ns;
  uint64_t send_ns;
  uint64_t recv_ns;
  uint64_t pred_off;
};

struct Push {
  uint64_t sub;
  int32_t record;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool ok = false;
};

// ---------------------------------------------------------------------------
// Load generator (separate process).

struct LoadgenArgs {
  uint16_t port = 0;
  std::string schedule, results, spans;
  int signal_fd = -1;
  double open_s = 1, closed_s = 1, ramp_s = 0;
  int open_threads = 1, closed_threads = 1;
  bool trace = false;
  std::vector<int> cpus;
};

void SleepUntil(uint64_t due_ns) {
  // Sleep to within 10us of the due time, then spin the rest. The spin is
  // kept short on purpose: on a virtual machine, keeping every vCPU busy
  // invites host-side preemption that shows up as multi-millisecond stalls.
  uint64_t now = NowNs();
  if (due_ns > now + 10'000) {
    uint64_t wake = due_ns - 10'000;
    timespec ts{static_cast<time_t>(wake / 1'000'000'000ull),
                static_cast<long>(wake % 1'000'000'000ull)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
  }
  while (NowNs() < due_ns) {
  }
}

struct ThreadLog {
  std::vector<OpResult> results;
  std::vector<Prediction> preds;
};

uint8_t SendRequest(rc::net::Client& client, const std::vector<std::string>& models,
              const std::vector<ClientInputs>& inputs, const std::vector<uint32_t>& keys,
              const OpDesc& op, std::vector<ClientInputs>& batch, ThreadLog& log) {
  rc::net::Status status;
  if (op.count == 1) {
    Prediction p;
    {
      Span span("net.client.predict_single");
      status = client.PredictSingle(models[op.model], inputs[keys[op.first]], &p, kDeadlineUs);
    }
    log.preds.push_back(status == rc::net::Status::kOk ? p : Prediction::None());
  } else {
    batch.clear();
    for (uint32_t i = 0; i < op.count; ++i) batch.push_back(inputs[keys[op.first + i]]);
    std::vector<Prediction> out;
    {
      Span span("net.client.predict_many");
      status = client.PredictMany(models[op.model], batch, &out, kDeadlineUs);
    }
    if (status != rc::net::Status::kOk || out.size() != op.count) {
      out.assign(op.count, Prediction::None());
      if (status == rc::net::Status::kOk) status = rc::net::Status::kProtocolError;
    }
    log.preds.insert(log.preds.end(), out.begin(), out.end());
  }
  return static_cast<uint8_t>(status);
}

}  // namespace

int RunLoadgen(int argc, char** argv) {
  LoadgenArgs a;
  for (int i = 3; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--port") a.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    else if (k == "--schedule") a.schedule = v;
    else if (k == "--results") a.results = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--signal-fd") a.signal_fd = std::atoi(v.c_str());
    else if (k == "--open-s") a.open_s = std::atof(v.c_str());
    else if (k == "--closed-s") a.closed_s = std::atof(v.c_str());
    else if (k == "--ramp-s") a.ramp_s = std::atof(v.c_str());
    else if (k == "--open-threads") a.open_threads = std::atoi(v.c_str());
    else if (k == "--closed-threads") a.closed_threads = std::atoi(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--cpus") {
      size_t pos = 0;
      while (pos < v.size()) {
        size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        a.cpus.push_back(std::atoi(v.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    }
  }
  if (!a.cpus.empty()) PinProcess(a.cpus);
  prctl(PR_SET_TIMERSLACK, 1000UL);  // 1us: sleeps end on the schedule
  if (a.trace) Tracer::Enable();

  BinReader in(a.schedule);
  uint64_t n_models = in.Pod<uint64_t>();
  std::vector<std::string> models;
  for (uint64_t i = 0; i < n_models && in.ok(); ++i) models.push_back(in.Str());
  auto inputs = in.Vec<ClientInputs>();
  auto keys = in.Vec<uint32_t>();
  auto ops = in.Vec<OpDesc>();
  auto warm_ops = in.Vec<OpDesc>();
  auto due_offsets = in.Vec<uint64_t>();
  if (!in.ok() || ops.empty()) {
    std::cerr << "loadgen: unreadable schedule " << a.schedule << "\n";
    return 1;
  }

  auto make_client = [&](int pool) {
    rc::net::ClientConfig config;
    config.port = a.port;
    config.pool_size = pool;
    config.default_deadline_us = kDeadlineUs;
    return std::make_unique<rc::net::Client>(config);
  };
  auto signal = [&](char c) {
    if (a.signal_fd >= 0) (void)!write(a.signal_fd, &c, 1);
  };

  // Warm-up: every working-set key once per model, in batches.
  ThreadLog warm;
  {
    auto client = make_client(1);
    std::vector<ClientInputs> batch;
    for (uint32_t i = 0; i < warm_ops.size(); ++i) {
      OpResult r{i, 0, 0, 0, 0, 0, 0, warm.preds.size()};
      r.due_ns = r.send_ns = NowNs();
      r.status = SendRequest(*client, models, inputs, keys, warm_ops[i], batch, warm);
      r.recv_ns = NowNs();
      warm.results.push_back(r);
    }
  }

  // Open loop: op i is due at start + due_offsets[i]; threads take ops
  // round-robin, each over its own connection, and time from the due time.
  const int open_threads = std::max(1, a.open_threads);
  const int closed_threads = std::max(1, a.closed_threads);
  std::vector<ThreadLog> open_logs(static_cast<size_t>(open_threads));
  const uint64_t open_start = NowNs() + 20'000'000;  // connections set up first
  const uint64_t ramp_ns = static_cast<uint64_t>(a.ramp_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < open_threads; ++t) {
      threads.emplace_back([&, t] {
        auto client = make_client(1);
        rc::net::HealthResponse health;
        client->Health(&health, kDeadlineUs);  // connect before the first due time
        ThreadLog& log = open_logs[static_cast<size_t>(t)];
        log.results.reserve(due_offsets.size() / static_cast<size_t>(open_threads) + 1);
        std::vector<ClientInputs> batch;
        for (size_t i = static_cast<size_t>(t); i < due_offsets.size();
             i += static_cast<size_t>(open_threads)) {
          const uint32_t op = static_cast<uint32_t>(i % ops.size());
          const uint8_t phase = due_offsets[i] < ramp_ns ? 3 : 1;  // 3: ramp
          OpResult r{op, phase, 0, static_cast<uint16_t>(t), open_start + due_offsets[i], 0, 0,
                     log.preds.size()};
          SleepUntil(r.due_ns);
          r.send_ns = NowNs();
          r.status = SendRequest(*client, models, inputs, keys, ops[op], batch, log);
          r.recv_ns = NowNs();
          log.results.push_back(r);
        }
      });
    }
    // The ramp at the open-loop rate is the last of the warm-up.
    SleepUntil(open_start + ramp_ns);
    signal('W');
    for (auto& th : threads) th.join();
  }

  // Closed loop: a fixed number of connections, each issuing its next
  // request as soon as the previous one returns.
  std::vector<ThreadLog> closed_logs(static_cast<size_t>(closed_threads));
  const uint64_t closed_start = NowNs();
  const uint64_t closed_end = closed_start + static_cast<uint64_t>(a.closed_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < closed_threads; ++t) {
      threads.emplace_back([&, t] {
        auto client = make_client(1);
        rc::net::HealthResponse health;
        client->Health(&health, kDeadlineUs);
        ThreadLog& log = closed_logs[static_cast<size_t>(t)];
        std::vector<ClientInputs> batch;
        size_t i = ops.size() / static_cast<size_t>(closed_threads) * static_cast<size_t>(t);
        while (NowNs() < closed_end) {
          const uint32_t op = static_cast<uint32_t>(i++ % ops.size());
          OpResult r{op, 2, 0, static_cast<uint16_t>(t), 0, NowNs(), 0, log.preds.size()};
          r.due_ns = r.send_ns;
          r.status = SendRequest(*client, models, inputs, keys, ops[op], batch, log);
          r.recv_ns = NowNs();
          log.results.push_back(r);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  // Results: one array of op records (pred_off rebased to one prediction
  // array), warm-up first, then open loop, then closed loop.
  std::vector<OpResult> all;
  std::vector<Prediction> preds;
  auto append = [&](ThreadLog& log) {
    uint64_t base = preds.size();
    for (OpResult r : log.results) {
      r.pred_off += base;
      all.push_back(r);
    }
    preds.insert(preds.end(), log.preds.begin(), log.preds.end());
  };
  append(warm);
  for (auto& log : open_logs) append(log);
  for (auto& log : closed_logs) append(log);
  {
    BinWriter out(a.results);
    out.Pod<uint64_t>(closed_start);
    out.Pod<uint64_t>(closed_end);
    out.Vec(all);
    out.Vec(preds);
    if (!out.ok()) return 1;
  }
  if (a.trace && !a.spans.empty()) Tracer::WriteJsonl(a.spans);
  signal('E');
  return 0;
}

namespace {

// Zipf(s) over ranks [0, n): inverse-CDF sampling.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t operator()(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Waits for one signal byte from the load generator, or fails at the
// deadline. Returns the byte, or 0 on timeout/EOF.
char WaitSignal(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  int rc = poll(&p, 1, timeout_ms);
  if (rc <= 0) return 0;
  char c = 0;
  return read(fd, &c, 1) == 1 ? c : 0;
}

}  // namespace

int RunServe(const RunOptions& o) {
  const bool push_workload = o.workload == "serve_push";
  PrintContext(o);
  if (o.trace) Tracer::Enable();
  Report report;
  std::mt19937_64 rng(o.seed * 0x9E3779B97F4A7C15ull + 11);

  // One registry for the whole server process, as rc_server has it.
  rc::obs::MetricsRegistry registry;

  // --- setup: trace, pipeline, store, client ---
  rc::trace::Trace trace;
  uint64_t t0 = NowNs();
  {
    Span span("trace.generate");
    rc::trace::WorkloadConfig workload;
    workload.target_vm_count = kVms;
    workload.num_subscriptions = kSubscriptions;
    workload.duration = kTraceDays * rc::kDay;
    workload.seed = kTraceSeed;
    trace = rc::trace::WorkloadModel(workload).Generate();
  }
  const double trace_generate_s = NsToS(NowNs() - t0);

  const uint64_t train_start = NowNs();
  rc::core::PipelineConfig pipeline_config;
  pipeline_config.train_end = kTrainDays * rc::kDay;
  pipeline_config.metrics = &registry;
  rc::core::TrainedModels trained;
  {
    Span span("pipeline.run");
    trained = rc::core::OfflinePipeline(pipeline_config).Run(trace);
  }
  rc::store::KvStore::Options store_options;
  store_options.metrics = &registry;
  rc::store::KvStore store(store_options);
  {
    Span span("pipeline.publish");
    rc::core::OfflinePipeline::Publish(trained, store, &registry);
  }
  rc::core::ClientConfig client_config;  // push mode, result cache on, auto engine
  client_config.metrics = &registry;
  rc::core::Client client(&store, client_config);
  uint64_t init_start = NowNs();
  bool initialized;
  {
    Span span("client.initialize");
    initialized = client.Initialize();
  }
  const double initialize_s = NsToS(NowNs() - init_start);
  const double train_s = NsToS(NowNs() - train_start);
  if (!initialized) {
    std::cerr << "client initialization failed\n";
    return 1;
  }

  // Served models, in name order.
  std::vector<ServedModel> models;
  std::vector<std::string> model_names;
  for (const auto& [name, spec] : trained.specs) {
    models.push_back(ServedModel{name, trained.models.at(name).get(),
                                 rc::core::Featurizer(spec.metric, spec.encoding)});
    model_names.push_back(name);
  }

  // --- inputs: working set from VMs created after the training window ---
  static const rc::trace::VmSizeCatalog catalog;
  std::vector<const rc::trace::VmRecord*> test_vms =
      trace.VmsCreatedIn(kTrainDays * rc::kDay, kTraceDays * rc::kDay);
  std::shuffle(test_vms.begin(), test_vms.end(), rng);
  if (test_vms.size() > kWorkingSet) test_vms.resize(kWorkingSet);
  std::vector<ClientInputs> inputs;
  for (const auto* vm : test_vms) inputs.push_back(rc::core::InputsFromVm(*vm, catalog));

  Zipf zipf(inputs.size(), kZipfS);
  std::vector<uint32_t> keys;
  std::vector<OpDesc> ops;
  std::vector<Request> requests;
  ops.reserve(kStreamOps);
  std::uniform_int_distribution<uint32_t> pick_model(0, static_cast<uint32_t>(models.size() - 1));
  for (size_t i = 0; i < kStreamOps; ++i) {
    bool many = std::uniform_real_distribution<double>(0.0, 1.0)(rng) < kManyShare;
    OpDesc op{pick_model(rng), static_cast<uint32_t>(keys.size()), many ? kManyBatch : 1u};
    Request req{op.model, {}};
    for (uint32_t k = 0; k < op.count; ++k) {
      keys.push_back(static_cast<uint32_t>(zipf(rng)));
      req.keys.push_back(keys.back());
    }
    ops.push_back(op);
    requests.push_back(std::move(req));
  }
  std::vector<OpDesc> warm_ops;
  for (uint32_t m = 0; m < models.size(); ++m) {
    for (uint32_t first = 0; first < inputs.size(); first += 256) {
      uint32_t count = std::min<uint32_t>(256, static_cast<uint32_t>(inputs.size()) - first);
      warm_ops.push_back(OpDesc{m, static_cast<uint32_t>(keys.size()), count});
      for (uint32_t k = 0; k < count; ++k) keys.push_back(first + k);
    }
  }
  const double open_s = o.seconds * kOpenShare;
  const double closed_s = o.seconds - open_s;
  std::vector<uint64_t> due_offsets;
  {
    std::exponential_distribution<double> gap(kOpenRate);
    double t = 0.0;
    while (t < kRampS + open_s) {
      due_offsets.push_back(static_cast<uint64_t>(t * 1e9));
      t += gap(rng);
    }
  }

  // --- feature records: the published snapshot, then the successive daily
  // snapshots of the test month (records that changed since the day before).
  // The oracle reads each record as the client does, decoded from the bytes
  // put into the store.
  std::vector<SubscriptionFeatures> records;
  std::unordered_map<uint64_t, std::vector<RecordVersion>> versions;
  for (const auto& [sub, features] : trained.feature_data) {
    versions[sub].push_back(RecordVersion{0, 0, static_cast<int32_t>(records.size())});
    records.push_back(SubscriptionFeatures::Deserialize(features.Serialize()));
  }
  const size_t wanted_pushes =
      push_workload ? static_cast<size_t>(kPushRate * o.seconds) + 1 : kProbePushes;
  std::vector<Push> pushes;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> push_blobs;
  {
    Span span("inputs.push_records");
    std::unordered_map<uint64_t, std::vector<uint8_t>> last_bytes;
    for (const auto& [sub, features] : trained.feature_data) last_bytes[sub] = features.Serialize();
    for (int day = kTrainDays + 1; day <= kTraceDays && pushes.size() < wanted_pushes; ++day) {
      auto snap = rc::core::OfflinePipeline::BuildFeatureSnapshot(
          trace, day * rc::kDay, pipeline_config.use_fft_labels);
      std::vector<uint64_t> subs;
      for (const auto& [sub, features] : snap) subs.push_back(sub);
      // Within a day the records go out in a seeded order.
      std::sort(subs.begin(), subs.end());
      std::shuffle(subs.begin(), subs.end(), rng);
      for (uint64_t sub : subs) {
        std::vector<uint8_t> bytes = snap.at(sub).Serialize();
        auto it = last_bytes.find(sub);
        if (it != last_bytes.end() && it->second == bytes) continue;
        last_bytes[sub] = bytes;
        pushes.push_back(Push{sub, static_cast<int32_t>(records.size())});
        records.push_back(SubscriptionFeatures::Deserialize(bytes));
        push_blobs.emplace_back(rc::core::FeatureKey(sub), std::move(bytes));
        if (pushes.size() >= wanted_pushes) break;
      }
    }
  }
  if (pushes.size() < wanted_pushes) {
    report.Line("note: the test month holds only " + std::to_string(pushes.size()) +
                " changed records; pushes cycle through them");
  }

  // Input make-up, measured on the generated stream.
  {
    std::unordered_set<uint64_t> seen;
    size_t reuse = 0, total = 0, no_feature = 0, many_ops = 0;
    for (const OpDesc& op : ops) {
      many_ops += op.count > 1;
      for (uint32_t k = 0; k < op.count; ++k) {
        uint32_t key = keys[op.first + k];
        uint64_t cache_key = inputs[key].CacheKey(model_names[op.model]);
        reuse += !seen.insert(cache_key).second;
        no_feature += trained.feature_data.count(inputs[key].subscription_id) == 0;
        ++total;
      }
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "inputs: working_set=%zu zipf_s=%.2f models=%zu (uniform) "
                  "brand_new_share=%.4f key_reuse_share=%.4f many_share=%.4f many_batch=%u "
                  "open_rate=%.0f/s push_rate=%s records=%zu population=%zu",
                  inputs.size(), kZipfS, models.size(),
                  static_cast<double>(no_feature) / static_cast<double>(total),
                  static_cast<double>(reuse) / static_cast<double>(total),
                  static_cast<double>(many_ops) / static_cast<double>(ops.size()), kManyBatch,
                  kOpenRate, push_workload ? "20/s" : "0 (idle probe after reads)",
                  pushes.size(), trained.feature_data.size());
    report.Line(buf);
  }

  // --- schedule for the load generator ---
  const std::string schedule_path = o.run_dir + "/schedule.bin";
  const std::string results_path = o.run_dir + "/results.bin";
  {
    BinWriter out(schedule_path);
    out.Pod<uint64_t>(model_names.size());
    for (const auto& n : model_names) out.Str(n);
    out.Vec(inputs);
    out.Vec(keys);
    out.Vec(ops);
    out.Vec(warm_ops);
    out.Vec(due_offsets);
    if (!out.ok()) {
      std::cerr << "cannot write " << schedule_path << "\n";
      return 1;
    }
  }

  // --- server, pinned to the first half of the CPUs ---
  std::vector<int> cpus = AllowedCpus();
  std::vector<int> server_cpus = cpus, loadgen_cpus = cpus;
  if (cpus.size() >= 2) {
    server_cpus.assign(cpus.begin(), cpus.begin() + static_cast<long>(cpus.size() / 2));
    loadgen_cpus.assign(cpus.begin() + static_cast<long>(cpus.size() / 2), cpus.end());
    PinProcess(server_cpus);
  }
  rc::net::ServerConfig server_config;  // rc_server defaults
  server_config.num_workers = 4;
  server_config.combiner_mode = rc::net::CombinerMode::kShared;
  server_config.combiner_max_wait_us = 40;
  server_config.metrics = &registry;
  rc::net::Server server(&client, server_config);
  if (!server.Start()) {
    std::cerr << "server failed to start\n";
    return 1;
  }
  const int open_threads = static_cast<int>(std::max<size_t>(1, loadgen_cpus.size()));
  // Two closed-loop connections keep at most about two of the four vCPUs
  // busy at once; with all four busy the host preempts the VM in
  // multi-millisecond slices and the throughput reads the host, not the
  // program.
  const int closed_threads = static_cast<int>(std::max<size_t>(1, loadgen_cpus.size()));
  report.Line("load: server_cpus=" + CpuList(server_cpus) + " loadgen_cpus=" +
              CpuList(loadgen_cpus) + " server_workers=4 open_threads=" +
              std::to_string(open_threads) + " closed_connections=" +
              std::to_string(closed_threads));

  // --- load generator process ---
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return 1;
  const std::string loadgen_spans = o.run_dir + "/spans_loadgen.jsonl";
  std::vector<std::string> args = {
      o.self_exe, "--role", "loadgen",
      "--port", std::to_string(server.port()),
      "--schedule", schedule_path,
      "--results", results_path,
      "--spans", loadgen_spans,
      "--signal-fd", std::to_string(pipe_fds[1]),
      "--open-s", Num(open_s),
      "--closed-s", Num(closed_s),
      "--ramp-s", Num(kRampS),
      "--open-threads", std::to_string(open_threads),
      "--closed-threads", std::to_string(closed_threads),
      "--trace", o.trace ? "1" : "0",
      "--cpus", CpuList(loadgen_cpus)};
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t child = -1;
  if (posix_spawn(&child, "/proc/self/exe", nullptr, nullptr, argv.data(), environ) != 0) {
    std::cerr << "cannot spawn the load generator\n";
    return 1;
  }
  close(pipe_fds[1]);
  auto reap = [&](bool kill_first) {
    if (child <= 0) return 0;
    if (kill_first) kill(child, SIGKILL);
    int status = 0;
    waitpid(child, &status, 0);
    child = -1;
    return status;
  };

  if (WaitSignal(pipe_fds[0], 120'000) != 'W') {
    reap(true);
    std::cerr << "load generator did not finish its warm-up\n";
    return 1;
  }
  const double setup_s = NsToS(NowNs() - o.start_ns);
  rc::obs::RegistrySnapshot before = registry.Collect();

  // --- timed phase: serve_push publishes records at a fixed rate ---
  std::atomic<bool> stop_pushing{false};
  size_t pushed_during_reads = 0;
  auto push_one = [&](size_t i) {
    Push& p = pushes[i % pushes.size()];
    Push done = p;
    std::vector<uint8_t> bytes = push_blobs[i % pushes.size()].second;
    done.start_ns = NowNs();
    uint64_t version;
    {
      Span span("store.put_listened");
      version = store.Put(push_blobs[i % pushes.size()].first, std::move(bytes));
    }
    done.end_ns = NowNs();
    done.ok = version != 0;
    return done;
  };
  std::vector<Push> push_log;
  std::thread pusher;
  if (push_workload) {
    pusher = std::thread([&] {
      const uint64_t start = NowNs();
      for (size_t i = 0; !stop_pushing.load(); ++i) {
        SleepUntil(start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / kPushRate));
        if (stop_pushing.load()) break;
        push_log.push_back(push_one(i));
      }
    });
  }
  const char end_signal =
      WaitSignal(pipe_fds[0], (o.seconds + 60) * 1000);
  stop_pushing.store(true);
  if (pusher.joinable()) pusher.join();
  pushed_during_reads = push_log.size();
  rc::obs::RegistrySnapshot after = registry.Collect();
  const int child_status = reap(end_signal != 'E');
  close(pipe_fds[0]);
  if (end_signal != 'E' || !WIFEXITED(child_status) || WEXITSTATUS(child_status) != 0) {
    std::cerr << "load generator failed\n";
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();

  // serve_hot: the same push path, measured idle after the reads.
  if (!push_workload) {
    const uint64_t start = NowNs();
    for (size_t i = 0; i < kProbePushes; ++i) {
      SleepUntil(start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / kProbeRate));
      push_log.push_back(push_one(i));
    }
  }
  for (const Push& p : push_log) {
    auto& vs = versions[p.sub];
    // A subscription first seen in the test month had no record before.
    if (vs.empty()) vs.push_back(RecordVersion{0, 0, -1});
    vs.push_back(RecordVersion{p.start_ns, p.end_ns, p.ok ? p.record : -2});
  }

  // Freshness probes: one PredictSingle per pushed subscription, after the
  // last push, for the P95 model.
  const std::string probe_model = rc::MetricModelName(rc::Metric::kP95Cpu);
  size_t probe_model_index = 0;
  for (size_t m = 0; m < models.size(); ++m) {
    if (models[m].name == probe_model) probe_model_index = m;
  }
  std::vector<uint64_t> fresh_subs;
  {
    std::unordered_set<uint64_t> seen;
    for (const Push& p : push_log) {
      if (seen.insert(p.sub).second) fresh_subs.push_back(p.sub);
    }
  }
  std::vector<Prediction> fresh_answers, fresh_expected;
  size_t fresh_failed = 0;
  {
    rc::net::ClientConfig config;
    config.port = server.port();
    config.pool_size = 1;
    config.default_deadline_us = kDeadlineUs;
    rc::net::Client probe(config);
    for (uint64_t sub : fresh_subs) {
      const auto& idx = trace.VmsOfSubscription(sub);
      ClientInputs x = rc::core::InputsFromVm(trace.vms()[idx.back()], catalog);
      Prediction got;
      if (probe.PredictSingle(probe_model, x, &got) != rc::net::Status::kOk) {
        ++fresh_failed;
        got = Prediction::None();
      }
      fresh_answers.push_back(got);
      int32_t last = versions[sub].back().record;
      fresh_expected.push_back(last >= 0 ? LegacyPredict(*models[probe_model_index].model,
                                                         models[probe_model_index].featurizer,
                                                         x, &records[static_cast<size_t>(last)])
                                         : Prediction::None());
    }
  }
  rc::obs::RegistrySnapshot final_snap = registry.Collect();
  server.Stop();

  // --- results of the load generator ---
  BinReader in(results_path);
  const uint64_t closed_start = in.Pod<uint64_t>();
  const uint64_t closed_end = in.Pod<uint64_t>();
  auto results = in.Vec<OpResult>();
  auto preds = in.Vec<Prediction>();
  if (!in.ok()) {
    std::cerr << "unreadable load-generator results\n";
    return 1;
  }
  std::remove(schedule_path.c_str());
  std::remove(results_path.c_str());

  // --- checks (after the timed phase; none of this is measured) ---
  uint64_t attempted = 0, failed = 0;
  std::vector<double> single_us, many_us, late_us, single_rtt_us;
  std::vector<std::pair<uint64_t, double>> single_timed, many_timed;
  uint64_t closed_preds = 0, received_preds = 0;
  // Whole windows only: the last partial window would read low.
  std::vector<double> closed_window_preds((closed_end - closed_start) / kRateWindowNs, 0.0);
  size_t wrong = 0, wrong_no_pred = 0, checked = 0;
  std::string first_wrong;
  std::map<std::tuple<uint32_t, uint32_t, int32_t>, Prediction> memo;
  auto expected = [&](uint32_t m, uint32_t k, int32_t rec) {
    auto key = std::make_tuple(m, k, rec);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    Prediction p = rec >= 0 ? LegacyPredict(*models[m].model, models[m].featurizer, inputs[k],
                                            &records[static_cast<size_t>(rec)])
                            : Prediction::None();
    memo.emplace(key, p);
    return p;
  };
  const std::vector<RecordVersion> no_data = {RecordVersion{0, 0, -1}};
  for (const OpResult& r : results) {
    const OpDesc& op = r.phase == 0 ? warm_ops[r.op] : ops[r.op];
    const bool timed = r.phase == 1 || r.phase == 2;
    if (timed) ++attempted;
    if (r.status != 0) {
      if (timed) ++failed;
      continue;
    }
    received_preds += op.count;
    if (r.phase == 1) {
      const double us = NsToUs(r.recv_ns - r.due_ns);
      (op.count == 1 ? single_us : many_us).push_back(us);
      (op.count == 1 ? single_timed : many_timed).emplace_back(r.due_ns, us);
      late_us.push_back(NsToUs(r.send_ns - r.due_ns));
      if (op.count == 1) single_rtt_us.push_back(NsToUs(r.recv_ns - r.send_ns));
    } else if (r.phase == 2) {
      closed_preds += op.count;
      if (r.recv_ns >= closed_start && r.recv_ns < closed_end) {
        closed_window_preds[(r.recv_ns - closed_start) / kRateWindowNs] += op.count;
      }
    }
    for (uint32_t j = 0; j < op.count; ++j) {
      const uint32_t k = keys[op.first + j];
      const Prediction& got = preds[r.pred_off + j];
      auto vit = versions.find(inputs[k].subscription_id);
      const auto& vs = vit == versions.end() ? no_data : vit->second;
      std::vector<Prediction> allowed;
      for (int32_t rec : CandidateRecords(vs, r.send_ns, r.recv_ns)) {
        if (rec == -2) continue;  // a dropped push is never visible
        allowed.push_back(expected(op.model, k, rec));
      }
      ++checked;
      if (!MatchesAny(got, allowed)) {
        ++wrong;
        bool expected_none = std::all_of(allowed.begin(), allowed.end(),
                                         [](const Prediction& p) { return !p.valid; });
        if (expected_none != !got.valid) ++wrong_no_pred;
        if (first_wrong.empty()) {
          first_wrong = "model " + models[op.model].name + " sub " +
                        std::to_string(inputs[k].subscription_id) + " got " +
                        (got.valid ? std::to_string(got.bucket) + "/" + Num(got.score)
                                   : std::string("none"));
        }
      }
    }
  }
  for (const Push& p : push_log) {
    ++attempted;
    failed += !p.ok;
  }
  report.Line("checks: " + std::to_string(checked) + " answers against the legacy walk");
  if (wrong > 0) {
    report.Fail("expected-predictions", std::to_string(wrong) + " answers differ (" +
                                            std::to_string(wrong_no_pred) +
                                            " on no-prediction); first: " + first_wrong);
  }
  const double server_preds = CounterValue(final_snap, "rc_net_predictions");
  const double generator_preds =
      static_cast<double>(received_preds + fresh_answers.size() - fresh_failed);
  if (server_preds != generator_preds) {
    report.Fail("counts", "rc_net_predictions " + Num(server_preds) +
                              " != predictions received " + Num(generator_preds));
  }
  if (size_t stale = StaleAnswers(fresh_answers, fresh_expected); stale > 0 || fresh_failed) {
    report.Fail("push-freshness", std::to_string(stale) + " of " +
                                      std::to_string(fresh_answers.size()) +
                                      " pushed subscriptions not answered under their last record");
  }
  if (fresh_subs.empty()) report.Fail("push-freshness", "no pushes happened");

  // --- phases ---
  size_t open_ops = 0, closed_ops = 0, open_failed = 0, closed_failed = 0, warm_n = 0;
  for (const OpResult& r : results) {
    if (r.phase == 0 || r.phase == 3) ++warm_n;
    if (r.phase == 1) {
      ++open_ops;
      open_failed += r.status != 0;
    }
    if (r.phase == 2) {
      ++closed_ops;
      closed_failed += r.status != 0;
    }
  }
  size_t push_failed = 0;
  for (const Push& p : push_log) push_failed += !p.ok;
  report.Line("phase warm-up: attempted=" + std::to_string(warm_n));
  report.Line("phase open-loop: attempted=" + std::to_string(open_ops) +
              " failed=" + std::to_string(open_failed));
  report.Line("phase closed-loop: attempted=" + std::to_string(closed_ops) +
              " failed=" + std::to_string(closed_failed));
  report.Line(std::string("phase pushes") + (push_workload ? "" : " (idle probe)") +
              ": attempted=" + std::to_string(push_log.size()) +
              " failed=" + std::to_string(push_failed) +
              " during_reads=" + std::to_string(pushed_during_reads));
  report.Line("generator lateness: p50=" + Num(Percentile(late_us, 0.5)) + " us p99=" +
              Num(Percentile(late_us, 0.99)) + " us max=" + Num(Percentile(late_us, 1.0)) +
              " us");

  std::vector<double> push_us;
  for (const Push& p : push_log) push_us.push_back(NsToUs(p.end_ns - p.start_ns));
  const double closed_elapsed = NsToS(closed_end - closed_start);

  report.Line("end-to-end:");
  const bool json_e2e = !o.trace;
  report.Add("setup_s", setup_s, "s", json_e2e);
  report.Add("train_s", train_s, "s", json_e2e);
  report.Add("single_p50_us", Percentile(single_us, 0.5), "us", false);
  report.Add("single_p99_us", MedianOfWindowQuantiles(single_timed, kTailWindowNs, 0.99), "us",
             false);
  report.Add("many_p50_us", Percentile(many_us, 0.5), "us", false);
  report.Add("many_p99_us", MedianOfWindowQuantiles(many_timed, kTailWindowNs, 0.99), "us",
             false);
  for (double& n : closed_window_preds) n /= NsToS(kRateWindowNs);
  report.Add("preds_per_s", Percentile(closed_window_preds, 0.5), "1/s", false);
  report.Add("push_p50_us", Percentile(push_us, 0.5), "us", false);
  report.Add("push_p99_us", Percentile(push_us, 0.99), "us", false);
  report.Add("peak_rss_mb", peak_rss_mb, "MB", json_e2e);
  report.Line("whole-phase figures (host stalls included):");
  report.Add("single_p99_whole_us", Percentile(single_us, 0.99), "us", false);
  report.Add("many_p99_whole_us", Percentile(many_us, 0.99), "us", false);
  report.Add("preds_per_s_whole", static_cast<double>(closed_preds) / closed_elapsed, "1/s",
             false);
  report.Line("samples: singles=" + std::to_string(single_us.size()) +
              " many=" + std::to_string(many_us.size()) + " pushes=" +
              std::to_string(push_us.size()) + " tail_windows=" +
              std::to_string(static_cast<uint64_t>(open_s * 1e9) / kTailWindowNs) +
              " rate_windows=" + std::to_string(closed_window_preds.size()));

  if (o.trace) {
    report.Line("per-layer:");
    // net, combiner and the generator: serving-only layers.
    auto net_hist = HistogramValue(after, "rc_net_request_latency_us");
    const double server_p50 = InterpolatedQuantile(net_hist, 0.5);
    report.Add("net.server_us.p50", server_p50, "us", false);
    report.Add("net.server_us.p99", InterpolatedQuantile(net_hist, 0.99), "us", false);
    report.Add("net.outside_server_us.p50", Percentile(single_rtt_us, 0.5) - server_p50, "us",
               false);
    const double bytes = CounterValue(after, "rc_net_bytes_read") -
                         CounterValue(before, "rc_net_bytes_read") +
                         CounterValue(after, "rc_net_bytes_written") -
                         CounterValue(before, "rc_net_bytes_written");
    const double net_preds =
        CounterValue(after, "rc_net_predictions") - CounterValue(before, "rc_net_predictions");
    report.Add("net.bytes_per_pred", net_preds > 0 ? bytes / net_preds : 0.0, "bytes", false);
    report.Add("loadgen.late_us.p99", Percentile(late_us, 0.99), "us", false);
    auto batch = HistogramValue(after, "rc_combiner_batch_size", "*");
    auto batch_before = HistogramValue(before, "rc_combiner_batch_size", "*");
    const double batches = static_cast<double>(batch.count - batch_before.count);
    report.Add("combiner.batch_size.mean",
               batches > 0 ? (batch.sum - batch_before.sum) / batches : 0.0, "count", false);
    auto wait = HistogramValue(after, "rc_combiner_wait_us", "*");
    report.Add("combiner.wait_us.p50", InterpolatedQuantile(wait, 0.5), "us", false);
    report.Add("combiner.wait_us.p99", InterpolatedQuantile(wait, 0.99), "us", false);
    const double comb_requests = CounterValue(after, "rc_combiner_requests", "*") -
                                 CounterValue(before, "rc_combiner_requests", "*");
    const double fast = CounterValue(after, "rc_combiner_fast_path", "*") -
                        CounterValue(before, "rc_combiner_fast_path", "*");
    report.Add("combiner.fast_path_share", comb_requests > 0 ? fast / comb_requests : 0.0,
               "ratio", false);

    LayerInputs layers;
    layers.client = &client;
    layers.models = models;
    layers.inputs = &inputs;
    const size_t replay_ops = std::min(ops.size(), results.size());
    layers.requests.assign(requests.begin(), requests.begin() + static_cast<long>(replay_ops));
    // The replay reads the records current after the run.
    std::unordered_map<uint64_t, const SubscriptionFeatures*> current;
    for (const auto& [sub, vs] : versions) {
      for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
        if (it->record >= 0) {
          current[sub] = &records[static_cast<size_t>(it->record)];
          break;
        }
      }
    }
    layers.features = [&](uint64_t sub) -> const SubscriptionFeatures* {
      auto it = current.find(sub);
      return it == current.end() ? nullptr : it->second;
    };
    for (size_t i = 0; i < push_log.size(); ++i) layers.pushed.push_back(push_blobs[i % push_blobs.size()]);
    layers.push_us = push_us;
    layers.before = before;
    layers.after = after;
    MeasureSharedLayers(layers, report);
    report.Add("client.initialize_s", initialize_s, "s", true);
    report.Add("ml.fit_s",
               HistogramSum(after, "rc_pipeline_stage_duration_us", "stage=\"train\"") / 1e6,
               "s", true);
    report.Add("pipeline.build_examples_s",
               HistogramSum(after, "rc_pipeline_stage_duration_us",
                            "stage=\"build_examples\"") / 1e6,
               "s", true);
    report.Add("pipeline.feature_snapshot_s",
               HistogramSum(after, "rc_pipeline_stage_duration_us",
                            "stage=\"feature_snapshot\"") / 1e6,
               "s", true);
    report.Add("pipeline.publish_s",
               HistogramSum(after, "rc_pipeline_stage_duration_us", "stage=\"publish\"") / 1e6,
               "s", true);
    report.Add("trace.generate_s", trace_generate_s, "s", true);
    report.Line("  (ml.fit_s is OfflinePipeline::Run's train stage: ToDataset + Fit for all "
                "six models; pipeline.to_dataset_s is measured on paper_month only)");
    const std::string spans_path = o.run_dir + "/spans_server.jsonl";
    if (Tracer::WriteJsonl(spans_path)) {
      report.Line("spans: " + spans_path + " and " + loadgen_spans);
    }
    for (const auto& [name, t] : Tracer::Summarize()) {
      report.Line("  span " + name + ": count=" + std::to_string(t.count) +
                  " total_s=" + Num(NsToS(t.total_ns)) + " self_s=" + Num(NsToS(t.self_ns)));
    }
  }
  report.Finish(attempted, failed);
  return 0;
}

}  // namespace rcbench
