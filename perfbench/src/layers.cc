#include "src/layers.h"

#include <algorithm>
#include <optional>

#include "src/cache/sharded_cache.h"
#include "src/ml/exec_engine.h"
#include "src/spans.h"
#include "src/store/kv_store.h"

namespace rcbench {
namespace {

bool LabelsMatch(const std::string& rendered, const std::string& wanted) {
  if (wanted == "*") return true;
  if (wanted.empty()) return rendered.empty();
  return rendered.find(wanted) != std::string::npos;
}

// Cost of the two clock reads around a timed call, subtracted from
// nanosecond-scale timings.
double TimerOverheadNs() {
  std::vector<double> samples;
  samples.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    uint64_t a = NowNs();
    uint64_t b = NowNs();
    samples.push_back(static_cast<double>(b - a));
  }
  return Percentile(samples, 0.5);
}

// Caps a replay so the traced run's post-phase work stays bounded.
constexpr size_t kMaxReplayCalls = 100'000;
constexpr size_t kMaxWalkRows = 4096;

}  // namespace

double CounterValue(const rc::obs::RegistrySnapshot& snap, const std::string& name,
                    const std::string& labels) {
  double total = 0.0;
  for (const auto& c : snap.counters) {
    if (c.info.name == name && LabelsMatch(c.info.labels, labels)) {
      total += static_cast<double>(c.value);
    }
  }
  return total;
}

rc::obs::Histogram::Snapshot HistogramValue(const rc::obs::RegistrySnapshot& snap,
                                            const std::string& name,
                                            const std::string& labels) {
  for (const auto& h : snap.histograms) {
    if (h.info.name == name && LabelsMatch(h.info.labels, labels)) return h.hist;
  }
  return {};
}

double InterpolatedQuantile(const rc::obs::Histogram::Snapshot& hist, double q) {
  if (hist.count == 0 || hist.bounds.empty()) return 0.0;
  const double rank = std::max(1.0, q * static_cast<double>(hist.count));
  double seen = 0.0;
  for (size_t b = 0; b < hist.buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(hist.buckets[b]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      if (b >= hist.bounds.size()) return hist.bounds.back();
      const double lo = b == 0 ? 0.0 : hist.bounds[b - 1];
      const double hi = hist.bounds[b];
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return hist.bounds.back();
}

double HistogramSum(const rc::obs::RegistrySnapshot& snap, const std::string& name,
                    const std::string& labels) {
  double total = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.info.name == name && LabelsMatch(h.info.labels, labels)) total += h.hist.sum;
  }
  return total;
}

void MeasureSharedLayers(const LayerInputs& in, Report& report) {
  const auto& inputs = *in.inputs;
  const double timer_ns = TimerOverheadNs();
  auto delta = [&](const char* name, const char* labels = "") {
    return CounterValue(in.after, name, labels) - CounterValue(in.before, name, labels);
  };

  // --- cache: the run's key stream replayed into a ShardedCache built like
  // the client's result cache (capacity and admission as configured).
  {
    rc::core::ClientConfig defaults;
    rc::obs::MetricsRegistry scratch;
    rc::cache::CacheOptions options;
    options.capacity = defaults.result_cache_capacity;
    options.admission = defaults.result_cache_admission;
    options.metrics = &scratch;
    rc::cache::ShardedCache<rc::core::Prediction> cache(options);
    std::vector<double> lookup_ns;
    lookup_ns.reserve(kMaxReplayCalls);
    Span span("cache.replay");
    for (const Request& r : in.requests) {
      const std::string& model = in.models[r.model].name;
      for (uint32_t k : r.keys) {
        uint64_t key = inputs[k].CacheKey(model);
        uint64_t t0 = NowNs();
        std::optional<rc::core::Prediction> hit = cache.Lookup(key);
        uint64_t t1 = NowNs();
        lookup_ns.push_back(std::max(0.0, static_cast<double>(t1 - t0) - timer_ns));
        if (!hit) cache.Insert(key, rc::core::Prediction::Of(1, 0.5), cache.epoch());
      }
      if (lookup_ns.size() >= kMaxReplayCalls) break;
    }
    report.Add("cache.lookup_ns.p50", Percentile(lookup_ns, 0.5), "ns", true);
    report.Add("cache.lookup_ns.p99", Percentile(lookup_ns, 0.99), "ns", true);
  }
  report.Add("cache.evictions", delta("rc_cache_evictions", "*"), "count", true);
  report.Add("cache.admit_rejects", delta("rc_cache_admit_rejects", "*"), "count", true);
  report.Add("cache.probe_retries", delta("rc_cache_probe_retries", "*"), "count", true);

  // --- core client: the request stream replayed in-process, split by
  // whether the subscription has feature data.
  {
    std::vector<double> single_us, none_us, many_us;
    Span span("client.replay");
    for (const Request& r : in.requests) {
      const std::string& model = in.models[r.model].name;
      if (r.keys.size() == 1) {
        if (single_us.size() + none_us.size() >= kMaxReplayCalls) continue;
        const rc::core::ClientInputs& x = inputs[r.keys[0]];
        bool has_features = in.features(x.subscription_id) != nullptr;
        uint64_t t0 = NowNs();
        rc::core::Prediction p = in.client->PredictSingle(model, x);
        uint64_t t1 = NowNs();
        (void)p;
        (has_features ? single_us : none_us).push_back(NsToUs(t1 - t0));
      } else if (many_us.size() < kMaxReplayCalls / 8) {
        std::vector<rc::core::ClientInputs> batch;
        batch.reserve(r.keys.size());
        for (uint32_t k : r.keys) batch.push_back(inputs[k]);
        uint64_t t0 = NowNs();
        auto out = in.client->PredictMany(model, batch);
        uint64_t t1 = NowNs();
        (void)out;
        many_us.push_back(NsToUs(t1 - t0));
      }
    }
    report.Add("client.predict_single_us.p50", Percentile(single_us, 0.5), "us", true);
    report.Add("client.predict_single_us.p99", Percentile(single_us, 0.99), "us", true);
    report.Add("client.no_prediction_us.p50", Percentile(none_us, 0.5), "us", true);
    report.Add("client.no_prediction_us.p99", Percentile(none_us, 0.99), "us", true);
    report.Add("client.predict_many_us.p50", Percentile(many_us, 0.5), "us", true);
    report.Add("client.predict_many_us.p99", Percentile(many_us, 0.99), "us", true);
  }
  {
    double hits = delta("rc_client_result_hits", "*");
    double misses = delta("rc_client_result_misses", "*");
    double execs = delta("rc_client_model_executions", "*");
    double lookups = hits + misses;
    report.Add("client.result_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio", true);
    report.Add("client.executions_per_pred", lookups > 0 ? execs / lookups : 0.0, "ratio",
               true);
  }

  // --- store: the pushed records Put into a store nobody listens to; the
  // difference to the measured push latency is the client's ingest.
  {
    rc::obs::MetricsRegistry scratch;
    rc::store::KvStore::Options options;
    options.metrics = &scratch;
    rc::store::KvStore bare(options);
    std::vector<double> put_us;
    put_us.reserve(in.pushed.size());
    Span span("store.replay");
    for (const auto& [key, bytes] : in.pushed) {
      std::vector<uint8_t> copy = bytes;
      uint64_t t0 = NowNs();
      bare.Put(key, std::move(copy));
      uint64_t t1 = NowNs();
      put_us.push_back(NsToUs(t1 - t0));
    }
    double put50 = Percentile(put_us, 0.5), put99 = Percentile(put_us, 0.99);
    report.Add("store.put_us.p50", put50, "us", true);
    report.Add("store.put_us.p99", put99, "us", true);
    report.Add("client.ingest_us.p50", Percentile(in.push_us, 0.5) - put50, "us", true);
    report.Add("client.ingest_us.p99", Percentile(in.push_us, 0.99) - put99, "us", true);
  }

  // --- featurizer and ExecEngine walk over the served models' rows.
  {
    double featurize_ns = 0.0, walk1_ns = 0.0, walk64_ns = 0.0;
    size_t rows_total = 0;
    Span span("ml.replay");
    for (size_t m = 0; m < in.models.size(); ++m) {
      const ServedModel& sm = in.models[m];
      const rc::ml::ExecEngine* engine = sm.model->engine();
      if (engine == nullptr) continue;
      const size_t width = sm.featurizer.num_features();
      std::vector<const rc::core::ClientInputs*> xs;
      std::vector<const rc::core::SubscriptionFeatures*> hs;
      for (const Request& r : in.requests) {
        if (r.model != m) continue;
        for (uint32_t k : r.keys) {
          const auto* h = in.features(inputs[k].subscription_id);
          if (h == nullptr) continue;
          xs.push_back(&inputs[k]);
          hs.push_back(h);
        }
        if (xs.size() >= kMaxWalkRows) break;
      }
      // Whole blocks of 64 rows so both walks see the same rows.
      size_t n = xs.size() / 64 * 64;
      if (n == 0) continue;
      std::vector<double> X(n * width);
      uint64_t t0 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        sm.featurizer.EncodeTo(*xs[i], *hs[i], {X.data() + i * width, width});
      }
      uint64_t t1 = NowNs();
      std::vector<double> proba(64 * static_cast<size_t>(engine->num_classes()));
      uint64_t t2 = NowNs();
      for (size_t i = 0; i < n; ++i) {
        engine->PredictBatch(X.data() + i * width, 1, width, proba.data());
      }
      uint64_t t3 = NowNs();
      for (size_t i = 0; i < n; i += 64) {
        engine->PredictBatch(X.data() + i * width, 64, width, proba.data());
      }
      uint64_t t4 = NowNs();
      featurize_ns += static_cast<double>(t1 - t0);
      walk1_ns += static_cast<double>(t3 - t2);
      walk64_ns += static_cast<double>(t4 - t3);
      rows_total += n;
    }
    double rows = std::max<double>(1.0, static_cast<double>(rows_total));
    report.Add("ml.walk_ns_per_row.b1", walk1_ns / rows, "ns", true);
    report.Add("ml.walk_ns_per_row.b64", walk64_ns / rows, "ns", true);
    report.Add("core.featurize_ns_per_row", featurize_ns / rows, "ns", true);
  }
}

}  // namespace rcbench
