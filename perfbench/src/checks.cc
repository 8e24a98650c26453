#include "src/checks.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "src/common/sim_time.h"
#include "src/ml/gbt.h"
#include "src/ml/random_forest.h"
#include "src/trace/utilization.h"

namespace rcbench {

using rc::core::Prediction;

Prediction LegacyPredict(const rc::ml::Classifier& model,
                         const rc::core::Featurizer& featurizer,
                         const rc::core::ClientInputs& inputs,
                         const rc::core::SubscriptionFeatures* history) {
  if (history == nullptr) return Prediction::None();
  std::vector<double> row = featurizer.Encode(inputs, *history);
  std::vector<double> proba;
  if (const auto* rf = dynamic_cast<const rc::ml::RandomForest*>(&model)) {
    proba = rf->PredictProbaLegacy(row);
  } else if (const auto* gbt = dynamic_cast<const rc::ml::GradientBoostedTrees*>(&model)) {
    proba = gbt->PredictProbaLegacy(row);
  } else {
    proba = model.PredictProba(row);
  }
  int best = 0;
  for (size_t c = 1; c < proba.size(); ++c) {
    if (proba[c] > proba[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return Prediction::Of(best, proba.empty() ? 0.0 : proba[static_cast<size_t>(best)]);
}

bool SameAnswer(const Prediction& a, const Prediction& b) {
  if (a.valid != b.valid) return false;
  return !a.valid || (a.bucket == b.bucket && a.score == b.score);
}

std::vector<int32_t> CandidateRecords(const std::vector<RecordVersion>& versions,
                                      uint64_t send_ns, uint64_t recv_ns) {
  std::vector<int32_t> out;
  for (size_t i = 0; i < versions.size(); ++i) {
    uint64_t visible_from = i == 0 ? 0 : versions[i].put_start_ns;
    uint64_t superseded_at =
        i + 1 < versions.size() ? versions[i + 1].put_end_ns : UINT64_MAX;
    if (visible_from <= recv_ns && superseded_at >= send_ns) {
      out.push_back(versions[i].record);
    }
  }
  return out;
}

bool MatchesAny(const Prediction& got, const std::vector<Prediction>& allowed) {
  for (const Prediction& p : allowed) {
    if (SameAnswer(got, p)) return true;
  }
  return false;
}

size_t StaleAnswers(const std::vector<Prediction>& answers,
                    const std::vector<Prediction>& expected_last) {
  size_t stale = answers.size() > expected_last.size()
                     ? answers.size() - expected_last.size()
                     : expected_last.size() - answers.size();
  size_t n = std::min(answers.size(), expected_last.size());
  for (size_t i = 0; i < n; ++i) {
    if (!SameAnswer(answers[i], expected_last[i])) ++stale;
  }
  return stale;
}

double DirectCoreReadingSum(const std::vector<AliveVm>& vms, int64_t horizon,
                            int threads) {
  const int64_t slots = horizon / rc::kSlot;
  threads = std::max(1, threads);
  std::vector<double> partial(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      double sum = 0.0;
      for (size_t i = static_cast<size_t>(t); i < vms.size();
           i += static_cast<size_t>(threads)) {
        const AliveVm& vm = vms[i];
        // Alive at slot start s*kSlot when it has arrived and its departure
        // (if it ever departs) has not been processed yet.
        int64_t first = std::max<int64_t>(
            0, rc::FloorDiv(vm.arrival + rc::kSlot - 1, rc::kSlot));
        int64_t end = slots;
        if (vm.departure > vm.arrival) {
          // Departure at d is processed for slot starts >= d.
          end = std::min(end, rc::FloorDiv(vm.departure + rc::kSlot - 1, rc::kSlot));
        }
        for (int64_t s = first; s < end; ++s) {
          sum += rc::trace::UtilizationModel::ReadingAt(*vm.util, s).max_cpu * vm.cores;
        }
      }
      partial[static_cast<size_t>(t)] = sum;
    });
  }
  for (auto& w : workers) w.join();
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

std::string CheckConservation(const ConservationInput& in) {
  if (in.placed + in.failed != in.arrivals) {
    return "placed " + std::to_string(in.placed) + " + failed " +
           std::to_string(in.failed) + " != arrivals " + std::to_string(in.arrivals);
  }
  if (in.failed == 0) {
    double diff = std::fabs(in.sim_core_reading_sum - in.direct_core_reading_sum);
    double scale = std::max(1.0, std::fabs(in.direct_core_reading_sum));
    if (!(diff <= 1e-9 * scale)) {
      return "simulator core-reading sum " + std::to_string(in.sim_core_reading_sum) +
             " != trace sum " + std::to_string(in.direct_core_reading_sum);
    }
  }
  return "";
}

std::string CheckPredictedOnce(std::vector<uint64_t> predicted,
                               std::vector<uint64_t> arrivals) {
  std::sort(predicted.begin(), predicted.end());
  std::sort(arrivals.begin(), arrivals.end());
  if (predicted == arrivals) return "";
  auto dup = std::adjacent_find(predicted.begin(), predicted.end());
  if (dup != predicted.end()) return "vm " + std::to_string(*dup) + " predicted twice";
  return std::to_string(predicted.size()) + " predictions for " +
         std::to_string(arrivals.size()) + " arrivals";
}

std::string CheckModelQuality(const QualityInput& in, double* model_accuracy,
                              double* baseline_accuracy) {
  std::unordered_map<int, size_t> counts;
  for (int label : in.train_labels) ++counts[label];
  int majority = 0;
  size_t best = 0;
  for (const auto& [label, n] : counts) {
    if (n > best || (n == best && label < majority)) {
      best = n;
      majority = label;
    }
  }
  size_t n = std::min(in.heldout_labels.size(), in.heldout_predicted.size());
  size_t right = 0, right_majority = 0;
  for (size_t i = 0; i < n; ++i) {
    right += in.heldout_predicted[i] == in.heldout_labels[i];
    right_majority += in.heldout_labels[i] == majority;
  }
  double acc = n > 0 ? static_cast<double>(right) / static_cast<double>(n) : 0.0;
  double base = n > 0 ? static_cast<double>(right_majority) / static_cast<double>(n) : 0.0;
  if (model_accuracy != nullptr) *model_accuracy = acc;
  if (baseline_accuracy != nullptr) *baseline_accuracy = base;
  if (n == 0) return "no held-out examples";
  if (!(acc > base)) {
    return "held-out accuracy " + std::to_string(acc) + " does not beat the majority bucket " +
           std::to_string(base);
  }
  return "";
}

}  // namespace rcbench
