// paper_month: the Section 6.2 path in-process, composed from the same
// steps as bench/sched_common.cc — generate the two-month first-party trace,
// train the P95 forest on month 1, publish model + spec + feature snapshot,
// initialize the client, and simulate month 2 on 880 x (16-core, 112 GB)
// servers under RC-informed-soft with predictions fetched by PredictMany per
// arrival wave. After the month, a push probe publishes refreshed feature
// records to the subscribed client.
#include <algorithm>
#include <iostream>
#include <random>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "src/checks.h"
#include "src/common/rng.h"
#include "src/core/client.h"
#include "src/core/model_spec.h"
#include "src/core/offline_pipeline.h"
#include "src/layers.h"
#include "src/ml/random_forest.h"
#include "src/sched/policies.h"
#include "src/sched/simulator.h"
#include "src/spans.h"
#include "src/store/kv_store.h"
#include "src/trace/workload_model.h"
#include "src/util.h"
#include "src/workloads.h"

namespace rcbench {
namespace {

using rc::core::ClientInputs;
using rc::core::Prediction;
using rc::core::SubscriptionFeatures;
using rc::sched::VmRequest;

constexpr int64_t kMonthlyVms = 368'000;   // SchedStudy's default
constexpr size_t kMaxTrainRows = 100'000;  // SchedStudy's subsample
constexpr size_t kProbePushes = 400;
constexpr double kProbeRate = 100.0;
constexpr size_t kLegacySample = 2000;      // predictions re-checked by the legacy walk
constexpr size_t kQualitySample = 20'000;   // held-out examples scored
// many_p99_us is the median over windows of this much wall time of each
// window's p99 (about 600 waves per window).
constexpr uint64_t kTailWindowNs = 500'000'000;

// bench/bench_common.cc SchedulerWorkloadConfig: first party only, 71%
// production, lighter lifetime tail, no >100-VM deployments.
rc::trace::WorkloadConfig SchedulerWorkload(uint64_t seed) {
  rc::trace::WorkloadConfig config;
  config.target_vm_count = 2 * kMonthlyVms;
  config.duration = 60 * rc::kDay;
  config.num_subscriptions = 4000;
  config.seed = seed;
  config.frac_first_party = 1.0;
  config.first_party_production_prob = 0.71;
  config.lifetime_cap_days = 15.0;
  config.lifetime_tail_alpha = 1.0;
  config.popularity_cap = 0.0015;
  config.resident_interactive_vm_frac = 0.002;
  config.deploy_vms_marginal = {0.49, 0.41, 0.10, 0.0};
  config.arrivals.weibull_shape = 0.9;
  config.arrivals.night_level = 0.6;
  config.arrivals.weekend_level = 0.8;
  return config;
}

}  // namespace

int RunPaperMonth(const RunOptions& o) {
  PrintContext(o);
  if (o.trace) Tracer::Enable();
  Report report;
  rc::obs::MetricsRegistry registry;
  static const rc::trace::VmSizeCatalog catalog;
  const rc::Metric metric = rc::Metric::kP95Cpu;
  const std::string model_name = rc::MetricModelName(metric);

  // --- setup: trace generation and request extraction ---
  rc::trace::Trace trace;
  uint64_t t0 = NowNs();
  {
    Span span("trace.generate");
    trace = rc::trace::WorkloadModel(SchedulerWorkload(o.seed)).Generate();
  }
  const double trace_generate_s = NsToS(NowNs() - t0);
  std::vector<VmRequest> requests;
  {
    Span span("inputs.requests");
    for (VmRequest req : rc::sched::RequestsFromTrace(trace, 60 * rc::kDay)) {
      if (req.arrival < 30 * rc::kDay) continue;
      req.arrival -= 30 * rc::kDay;
      req.departure -= 30 * rc::kDay;
      requests.push_back(req);
    }
  }
  const double setup_s = NsToS(NowNs() - o.start_ns);

  // --- train: examples, dataset, fit, publish, client initialize ---
  const uint64_t train_start = NowNs();
  std::vector<rc::core::LabeledExample> examples, heldout;
  {
    Span span("pipeline.build_examples");
    examples = rc::core::OfflinePipeline::BuildExamples(trace, metric, 0, 30 * rc::kDay, false);
  }
  const double build_examples_s = NsToS(NowNs() - train_start);
  if (examples.size() > kMaxTrainRows) {
    rc::Rng rng(o.seed + 1);
    rng.Shuffle(examples);
    heldout.assign(examples.begin() + kMaxTrainRows, examples.end());
    examples.resize(kMaxTrainRows);
  }
  rc::core::Featurizer featurizer(metric, rc::core::OfflinePipeline::EncodingFor(metric));
  uint64_t t1 = NowNs();
  rc::ml::Dataset data;
  {
    Span span("pipeline.to_dataset");
    data = rc::core::OfflinePipeline::ToDataset(examples, featurizer);
  }
  const double to_dataset_s = NsToS(NowNs() - t1);
  rc::ml::RandomForestConfig rf;
  rf.num_trees = 32;
  rf.tree.max_depth = 13;
  rf.seed = o.seed + 2;
  t1 = NowNs();
  std::unique_ptr<rc::ml::RandomForest> model;
  {
    Span span("ml.fit");
    model = std::make_unique<rc::ml::RandomForest>(rc::ml::RandomForest::Fit(data, rf));
  }
  const double fit_s = NsToS(NowNs() - t1);
  rc::store::KvStore::Options store_options;
  store_options.metrics = &registry;
  rc::store::KvStore store(store_options);
  t1 = NowNs();
  std::unordered_map<uint64_t, SubscriptionFeatures> snapshot;
  {
    Span span("pipeline.feature_snapshot");
    snapshot = rc::core::OfflinePipeline::BuildFeatureSnapshot(trace, 30 * rc::kDay, false);
  }
  const double feature_snapshot_s = NsToS(NowNs() - t1);
  t1 = NowNs();
  {
    Span span("pipeline.publish");
    rc::core::ModelSpec spec;
    spec.name = model_name;
    spec.metric = metric;
    spec.encoding = rc::core::OfflinePipeline::EncodingFor(metric);
    spec.model_family = model->type_name();
    spec.num_features = static_cast<uint32_t>(featurizer.num_features());
    spec.version = 1;
    store.Put(rc::core::SpecKey(spec.name), spec.Serialize());
    store.Put(rc::core::ModelKey(spec.name), model->SerializeTagged());
    for (const auto& [sub, features] : snapshot) {
      store.Put(rc::core::FeatureKey(sub), features.Serialize());
    }
  }
  const double publish_s = NsToS(NowNs() - t1);
  // The records as the client reads them back from the store.
  auto decoded = [](const SubscriptionFeatures& f) {
    return SubscriptionFeatures::Deserialize(f.Serialize());
  };
  rc::core::ClientConfig client_config;
  client_config.metrics = &registry;
  rc::core::Client client(&store, client_config);
  t1 = NowNs();
  bool initialized;
  {
    Span span("client.initialize");
    initialized = client.Initialize();
  }
  const double initialize_s = NsToS(NowNs() - t1);
  const double train_s = NsToS(NowNs() - train_start);
  if (!initialized) {
    std::cerr << "client initialization failed\n";
    return 1;
  }

  // --- the simulated month ---
  rc::sched::SimConfig sim_config;
  sim_config.cluster = rc::sched::ClusterConfig{880, 16, 112.0};
  sim_config.horizon = 30 * rc::kDay;
  sim_config.metrics = &registry;
  rc::sched::Cluster cluster(sim_config.cluster);
  rc::sched::PolicyConfig policy_config;
  policy_config.kind = rc::sched::PolicyKind::kRcInformedSoft;
  policy_config.metrics = &registry;

  std::vector<uint64_t> predicted_ids;
  std::unordered_map<uint64_t, Prediction> served;
  std::vector<double> wave_us;
  std::vector<std::pair<uint64_t, double>> wave_timed;
  std::vector<std::vector<uint64_t>> waves;  // vm ids per batched call
  uint64_t predict_ns = 0, predict_rows = 0, predict_calls = 0;
  predicted_ids.reserve(requests.size());
  served.reserve(requests.size());
  rc::sched::UtilPredictor predictor = [&](const VmRequest& vm) {
    Span span("sim.predict");
    uint64_t s = NowNs();
    Prediction p = client.PredictSingle(model_name, rc::core::InputsFromVm(*vm.source, catalog));
    uint64_t e = NowNs();
    predict_ns += e - s;
    ++predict_rows;
    ++predict_calls;
    predicted_ids.push_back(vm.vm_id);
    served[vm.vm_id] = p;
    return p;
  };
  rc::sched::BatchUtilPredictor batch_predictor = [&](std::span<const VmRequest> vms) {
    Span span("sim.predict");
    uint64_t s = NowNs();
    std::vector<ClientInputs> inputs;
    inputs.reserve(vms.size());
    for (const VmRequest& vm : vms) inputs.push_back(rc::core::InputsFromVm(*vm.source, catalog));
    std::vector<Prediction> out = client.PredictMany(model_name, inputs);
    uint64_t e = NowNs();
    predict_ns += e - s;
    predict_rows += vms.size();
    ++predict_calls;
    wave_us.push_back(NsToUs(e - s));
    wave_timed.emplace_back(s, NsToUs(e - s));
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < vms.size(); ++i) {
      predicted_ids.push_back(vms[i].vm_id);
      if (i < out.size()) served[vms[i].vm_id] = out[i];
      ids.push_back(vms[i].vm_id);
    }
    if (o.trace) waves.push_back(std::move(ids));
    return out;
  };
  rc::sched::SchedulingPolicy policy(policy_config, &cluster, predictor, batch_predictor);
  rc::sched::ClusterSimulator simulator(sim_config);
  rc::obs::RegistrySnapshot before = registry.Collect();
  const uint64_t sim_start = NowNs();
  rc::sched::SimResult result;
  {
    Span span("sim.run");
    result = simulator.Run(requests, policy);
  }
  const double simulate_s = NsToS(NowNs() - sim_start);
  rc::obs::RegistrySnapshot after = registry.Collect();

  // --- push probe: refreshed records published to the subscribed client ---
  std::unordered_map<uint64_t, SubscriptionFeatures> refreshed;
  {
    Span span("inputs.push_records");
    refreshed = rc::core::OfflinePipeline::BuildFeatureSnapshot(trace, 60 * rc::kDay, false);
  }
  std::vector<uint64_t> push_subs;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> pushed;
  {
    std::vector<uint64_t> subs;
    for (const auto& [sub, features] : refreshed) subs.push_back(sub);
    std::sort(subs.begin(), subs.end());
    std::mt19937_64 rng(o.seed * 31 + 5);
    std::shuffle(subs.begin(), subs.end(), rng);
    for (uint64_t sub : subs) {
      std::vector<uint8_t> bytes = refreshed.at(sub).Serialize();
      auto it = snapshot.find(sub);
      if (it != snapshot.end() && it->second.Serialize() == bytes) continue;
      push_subs.push_back(sub);
      pushed.emplace_back(rc::core::FeatureKey(sub), std::move(bytes));
      if (pushed.size() >= kProbePushes) break;
    }
  }
  std::vector<double> push_us;
  size_t push_failed = 0;
  {
    const uint64_t start = NowNs();
    for (size_t i = 0; i < pushed.size(); ++i) {
      const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(i) * 1e9 / kProbeRate);
      while (NowNs() < due) std::this_thread::yield();
      std::vector<uint8_t> bytes = pushed[i].second;
      uint64_t s = NowNs();
      uint64_t version;
      {
        Span span("store.put_listened");
        version = store.Put(pushed[i].first, std::move(bytes));
      }
      push_us.push_back(NsToUs(NowNs() - s));
      push_failed += version == 0;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // --- checks ---
  // Conservation, against the trace.
  std::vector<AliveVm> alive;
  std::vector<uint64_t> arrival_ids;
  alive.reserve(requests.size());
  for (const VmRequest& r : requests) {
    alive.push_back(AliveVm{r.arrival, r.departure, r.cores, &r.source->util});
    arrival_ids.push_back(r.vm_id);
  }
  ConservationInput conservation;
  conservation.arrivals = static_cast<int64_t>(requests.size());
  conservation.placed = result.total_vms - result.failures;
  conservation.failed = result.failures;
  conservation.sim_core_reading_sum = result.mean_occupied_utilization *
                                      static_cast<double>(result.occupied_readings) *
                                      sim_config.cluster.cores_per_server;
  if (result.failures == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    conservation.direct_core_reading_sum = DirectCoreReadingSum(
        alive, sim_config.horizon, static_cast<int>(std::clamp(hw, 1u, 4u)));
  }
  if (std::string why = CheckConservation(conservation); !why.empty()) {
    report.Fail("simulator-conservation", why);
  }
  if (std::string why = CheckPredictedOnce(predicted_ids, arrival_ids); !why.empty()) {
    report.Fail("predicted-once", why);
  }
  // A seeded sample of the served predictions against the legacy walk.
  {
    std::mt19937_64 rng(o.seed * 17 + 3);
    std::vector<size_t> idx(requests.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::shuffle(idx.begin(), idx.end(), rng);
    size_t wrong = 0, n = std::min(kLegacySample, idx.size());
    for (size_t i = 0; i < n; ++i) {
      const VmRequest& r = requests[idx[i]];
      auto it = snapshot.find(r.source->subscription_id);
      SubscriptionFeatures stored;
      if (it != snapshot.end()) stored = decoded(it->second);
      Prediction want = LegacyPredict(*model, featurizer,
                                      rc::core::InputsFromVm(*r.source, catalog),
                                      it == snapshot.end() ? nullptr : &stored);
      auto got = served.find(r.vm_id);
      if (got == served.end() || !SameAnswer(got->second, want)) ++wrong;
    }
    if (wrong > 0) {
      report.Fail("expected-predictions",
                  std::to_string(wrong) + " of " + std::to_string(n) +
                      " sampled predictions differ from the legacy walk");
    }
  }
  // Held-out quality against the majority bucket.
  double accuracy = 0.0, baseline = 0.0;
  {
    QualityInput q;
    q.train_labels.assign(data.labels().begin(), data.labels().end());
    std::mt19937_64 rng(o.seed * 13 + 7);
    std::shuffle(heldout.begin(), heldout.end(), rng);
    if (heldout.size() > kQualitySample) heldout.resize(kQualitySample);
    std::vector<double> row(featurizer.num_features()), scratch(4);
    for (const auto& ex : heldout) {
      featurizer.EncodeTo(ex.inputs, ex.history, row);
      scratch.resize(static_cast<size_t>(model->num_classes()));
      q.heldout_predicted.push_back(model->PredictScored(row, scratch).label);
      q.heldout_labels.push_back(ex.label);
    }
    if (std::string why = CheckModelQuality(q, &accuracy, &baseline); !why.empty()) {
      report.Fail("model-quality", why);
    }
  }
  // Freshness: every pushed subscription answered under its pushed record.
  {
    std::vector<Prediction> answers, expected;
    for (uint64_t sub : push_subs) {
      const auto& idx = trace.VmsOfSubscription(sub);
      ClientInputs x = rc::core::InputsFromVm(trace.vms()[idx.back()], catalog);
      answers.push_back(client.PredictSingle(model_name, x));
      SubscriptionFeatures stored = decoded(refreshed.at(sub));
      expected.push_back(LegacyPredict(*model, featurizer, x, &stored));
    }
    if (size_t stale = StaleAnswers(answers, expected); stale > 0 || push_subs.empty()) {
      report.Fail("push-freshness", std::to_string(stale) + " of " +
                                        std::to_string(answers.size()) +
                                        " pushed subscriptions not answered under their "
                                        "last record");
    }
  }

  size_t no_feature = 0;
  for (const VmRequest& r : requests) no_feature += snapshot.count(r.source->subscription_id) == 0;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "inputs: month2_arrivals=%zu train_rows=%zu heldout_scored=%zu population=%zu "
                "brand_new_share=%.4f waves=%llu mean_wave=%.2f",
                requests.size(), examples.size(), heldout.size(), snapshot.size(),
                static_cast<double>(no_feature) / static_cast<double>(requests.size()),
                static_cast<unsigned long long>(predict_calls),
                static_cast<double>(predict_rows) / std::max<double>(1.0, predict_calls));
  report.Line(buf);
  std::snprintf(buf, sizeof(buf),
                "month: vms=%lld failures=%lld overload_readings=%lld occupied_readings=%lld "
                "mean_util=%.4f p99_util=%.4f oversub_placements=%lld",
                static_cast<long long>(result.total_vms), static_cast<long long>(result.failures),
                static_cast<long long>(result.overload_readings),
                static_cast<long long>(result.occupied_readings),
                result.mean_occupied_utilization, result.p99_utilization,
                static_cast<long long>(result.oversub_placements));
  report.Line(buf);
  report.Line("model: heldout_accuracy=" + Num(accuracy) + " majority_baseline=" + Num(baseline));
  report.Line("phase simulate: attempted=" + std::to_string(requests.size()) + " failed=0");
  report.Line("phase pushes (probe): attempted=" + std::to_string(pushed.size()) +
              " failed=" + std::to_string(push_failed));
  report.Line("generator lateness: n/a (no load generator on this workload)");

  // One VM's scheduling decision: rc_sched_place_latency_us over the month.
  auto place = HistogramValue(after, "rc_sched_place_latency_us");
  auto place_before = HistogramValue(before, "rc_sched_place_latency_us");
  for (size_t b = 0; b < place.buckets.size() && b < place_before.buckets.size(); ++b) {
    place.buckets[b] -= place_before.buckets[b];
  }
  place.count -= place_before.count;

  report.Line("end-to-end:");
  const bool json_e2e = !o.trace;
  report.Add("setup_s", setup_s, "s", json_e2e);
  report.Add("train_s", train_s, "s", json_e2e);
  report.Add("single_p50_us", InterpolatedQuantile(place, 0.5), "us", false);
  report.Add("single_p99_us", InterpolatedQuantile(place, 0.99), "us", false);
  report.Add("many_p50_us", Percentile(wave_us, 0.5), "us", false);
  report.Add("many_p99_us", MedianOfWindowQuantiles(wave_timed, kTailWindowNs, 0.99), "us",
             false);
  report.Add("preds_per_s", static_cast<double>(predict_rows) / simulate_s, "1/s", false);
  report.Add("push_p50_us", Percentile(push_us, 0.5), "us", false);
  report.Add("push_p99_us", Percentile(push_us, 0.99), "us", false);
  report.Add("peak_rss_mb", peak_rss_mb, "MB", json_e2e);
  report.Add("simulate_s", simulate_s, "s", false);
  report.Add("many_p99_whole_us", Percentile(wave_us, 0.99), "us", false);
  report.Line("samples: placements=" + std::to_string(place.count) + " waves=" +
              std::to_string(wave_us.size()) + " pushes=" + std::to_string(push_us.size()));

  if (o.trace) {
    report.Line("per-layer:");
    const double predict_s = NsToS(predict_ns);
    report.Add("sim.predict_s", predict_s, "s", false);
    report.Add("sim.predict_rows", static_cast<double>(predict_rows), "count", false);
    report.Add("sim.predict_calls", static_cast<double>(predict_calls), "count", false);
    report.Add("sched.place_us.p50", InterpolatedQuantile(place, 0.5), "us", false);
    report.Add("sched.place_us.p99", InterpolatedQuantile(place, 0.99), "us", false);
    auto slot = HistogramValue(after, "rc_sim_slot_latency_us");
    report.Add("sim.slot_us.p50", InterpolatedQuantile(slot, 0.5), "us", false);
    report.Add("sim.slot_us.p99", InterpolatedQuantile(slot, 0.99), "us", false);
    report.Add("sim.self_s", simulate_s - predict_s, "s", false);
    report.Add("sim.readings", static_cast<double>(result.occupied_readings), "count", false);
    report.Add("pipeline.to_dataset_s", to_dataset_s, "s", false);

    // Replays: every wave as one PredictMany, then every arrival as a single.
    std::vector<ClientInputs> universe;
    std::unordered_map<uint64_t, uint32_t> index_of;
    universe.reserve(requests.size());
    for (const VmRequest& r : requests) {
      index_of[r.vm_id] = static_cast<uint32_t>(universe.size());
      universe.push_back(rc::core::InputsFromVm(*r.source, catalog));
    }
    LayerInputs layers;
    layers.client = &client;
    layers.models.push_back(ServedModel{model_name, model.get(), featurizer});
    layers.inputs = &universe;
    for (const auto& wave : waves) {
      if (wave.size() < 2) continue;
      Request req{0, {}};
      for (uint64_t id : wave) req.keys.push_back(index_of.at(id));
      layers.requests.push_back(std::move(req));
    }
    for (uint32_t i = 0; i < universe.size(); ++i) layers.requests.push_back(Request{0, {i}});
    // The client's records after the probe: the month-1 snapshot, with the
    // pushed subscriptions refreshed.
    std::unordered_set<uint64_t> was_pushed(push_subs.begin(), push_subs.end());
    layers.features = [&](uint64_t sub) -> const SubscriptionFeatures* {
      const auto& source = was_pushed.count(sub) > 0 ? refreshed : snapshot;
      auto it = source.find(sub);
      return it == source.end() ? nullptr : &it->second;
    };
    layers.pushed = pushed;
    layers.push_us = push_us;
    layers.before = before;
    layers.after = after;
    MeasureSharedLayers(layers, report);
    report.Add("client.initialize_s", initialize_s, "s", true);
    report.Add("ml.fit_s", fit_s, "s", true);
    report.Add("pipeline.build_examples_s", build_examples_s, "s", true);
    report.Add("pipeline.feature_snapshot_s", feature_snapshot_s, "s", true);
    report.Add("pipeline.publish_s", publish_s, "s", true);
    report.Add("trace.generate_s", trace_generate_s, "s", true);
    const std::string spans_path = o.run_dir + "/spans.jsonl";
    if (Tracer::WriteJsonl(spans_path)) report.Line("spans: " + spans_path);
    for (const auto& [name, t] : Tracer::Summarize()) {
      report.Line("  span " + name + ": count=" + std::to_string(t.count) +
                  " total_s=" + Num(NsToS(t.total_ns)) + " self_s=" + Num(NsToS(t.self_ns)));
    }
  }
  report.Finish(requests.size() + pushed.size(), push_failed);
  return 0;
}

}  // namespace rcbench
