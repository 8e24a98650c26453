// Per-layer measurements for the traced run (--trace 1), shared by the
// serving workloads and the paper month. Everything here runs after the
// timed phase: it reads the program's own registries and replays the run's
// inputs into single layers through their public functions.
#ifndef RCBENCH_LAYERS_H_
#define RCBENCH_LAYERS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/client.h"
#include "src/core/featurizer.h"
#include "src/ml/classifier.h"
#include "src/obs/metrics.h"
#include "src/util.h"

namespace rcbench {

// Registry reads. `labels` is a substring of the rendered label set
// (empty = the unlabeled series; "*" = sum over every label set).
double CounterValue(const rc::obs::RegistrySnapshot& snap, const std::string& name,
                    const std::string& labels = "");
rc::obs::Histogram::Snapshot HistogramValue(const rc::obs::RegistrySnapshot& snap,
                                            const std::string& name,
                                            const std::string& labels = "");
// Quantile of a registry histogram with linear interpolation inside the
// bucket that holds the rank (the registry's own Quantile reports the
// bucket's upper bound, which moves only in 33% steps).
double InterpolatedQuantile(const rc::obs::Histogram::Snapshot& hist, double q);
double HistogramSum(const rc::obs::RegistrySnapshot& snap, const std::string& name,
                    const std::string& labels);

// A model as the client serves it, with the pieces the replays need.
struct ServedModel {
  std::string name;
  const rc::ml::Classifier* model = nullptr;
  rc::core::Featurizer featurizer;
};

// One prediction request of the run's stream.
struct Request {
  uint32_t model = 0;               // index into the served models
  std::vector<uint32_t> keys;       // indices into the input universe
};

struct LayerInputs {
  rc::core::Client* client = nullptr;
  std::vector<ServedModel> models;
  const std::vector<rc::core::ClientInputs>* inputs = nullptr;
  std::vector<Request> requests;  // the run's own stream, in order
  // Current feature record of a subscription (null = no feature data).
  std::function<const rc::core::SubscriptionFeatures*(uint64_t)> features;
  // The records the run pushed (store key, serialized bytes), in order, and
  // the measured KvStore::Put latency of each push with the client listening.
  std::vector<std::pair<std::string, std::vector<uint8_t>>> pushed;
  std::vector<double> push_us;
  // Registry deltas over the timed phase.
  rc::obs::RegistrySnapshot before;
  rc::obs::RegistrySnapshot after;
};

// Prints and records (JSON) every per-layer metric measured on all
// workloads: cache, core client, ml, featurizer and store.
void MeasureSharedLayers(const LayerInputs& in, Report& report);

}  // namespace rcbench

#endif  // RCBENCH_LAYERS_H_
