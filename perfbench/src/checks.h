// Correctness checks of the benchmark, computed apart from the serving path
// and run after the timed phase. Each check is a pure function over plain
// data so tests/checks_test.cc can show it failing on a deliberately wrong
// input.
#ifndef RCBENCH_CHECKS_H_
#define RCBENCH_CHECKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/feature_data.h"
#include "src/core/featurizer.h"
#include "src/core/prediction.h"
#include "src/ml/classifier.h"
#include "src/trace/vm_types.h"

namespace rcbench {

// The expected answer for one input, computed without the client, the
// result cache or the ExecEngine: Featurizer, then the per-tree legacy walk
// (PredictProbaLegacy), then argmax with the first maximum winning and the
// winning probability as the score. No feature data means no-prediction.
rc::core::Prediction LegacyPredict(const rc::ml::Classifier& model,
                                   const rc::core::Featurizer& featurizer,
                                   const rc::core::ClientInputs& inputs,
                                   const rc::core::SubscriptionFeatures* history);

// Exact equality of two answers (validity, bucket and score bit for bit).
bool SameAnswer(const rc::core::Prediction& a, const rc::core::Prediction& b);

// One feature-record version of a subscription as the store saw it. The
// first version of every subscription is the published snapshot (put times
// 0); later ones are pushes, with the interval their KvStore::Put ran.
// `record` indexes the benchmark's record table; -1 means no feature data.
struct RecordVersion {
  uint64_t put_start_ns = 0;
  uint64_t put_end_ns = 0;
  int32_t record = -1;
};

// Versions that were current at some instant of [send_ns, recv_ns]:
// version i may be current from its Put's start until the next version's
// Put has returned (Put returns after the serving client ingested it).
std::vector<int32_t> CandidateRecords(const std::vector<RecordVersion>& versions,
                                      uint64_t send_ns, uint64_t recv_ns);

// True when `got` equals one of `allowed`.
bool MatchesAny(const rc::core::Prediction& got,
                const std::vector<rc::core::Prediction>& allowed);

// Push freshness: after the last push every pushed subscription must be
// answered under its last record. `answers[i]` is the served answer for a
// probe on subscription i, `expected_last[i]` the answer under its last
// record. Returns the number of stale answers.
size_t StaleAnswers(const std::vector<rc::core::Prediction>& answers,
                    const std::vector<rc::core::Prediction>& expected_last);

// One month-2 VM as the simulator books it.
struct AliveVm {
  int64_t arrival = 0;    // rebased sim time
  int64_t departure = 0;  // rebased; <= arrival means it never departs
  int32_t cores = 0;
  const rc::trace::UtilizationParams* util = nullptr;
};

// Sum over 5-minute slots of the CPU cores in use (max reading x cores) of
// every VM alive at the slot start, straight from the trace. With no
// scheduling failures this equals the simulator's mean occupied utilization
// x occupied readings x cores per server, whatever the placement.
double DirectCoreReadingSum(const std::vector<AliveVm>& vms, int64_t horizon,
                            int threads);

struct ConservationInput {
  int64_t arrivals = 0;  // counted from the trace
  int64_t placed = 0;
  int64_t failed = 0;
  double sim_core_reading_sum = 0.0;
  double direct_core_reading_sum = 0.0;
};
// Empty when conserved; otherwise what broke.
std::string CheckConservation(const ConservationInput& in);

// Each arrival predicted exactly once: `predicted` lists the vm ids handed
// to the predictors, `arrivals` the month's vm ids. Empty when it holds.
std::string CheckPredictedOnce(std::vector<uint64_t> predicted,
                               std::vector<uint64_t> arrivals);

// Held-out accuracy of a model against the majority bucket of the training
// labels. Empty when the model beats the baseline.
struct QualityInput {
  std::vector<int> train_labels;
  std::vector<int> heldout_labels;
  std::vector<int> heldout_predicted;
};
std::string CheckModelQuality(const QualityInput& in, double* model_accuracy,
                              double* baseline_accuracy);

}  // namespace rcbench

#endif  // RCBENCH_CHECKS_H_
