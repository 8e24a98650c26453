// Shows every correctness check of the benchmark passing on a right input
// and failing on a deliberately wrong one: a flipped bucket, a push the
// server never saw, a miscounted reading, a prediction served twice, a model
// no better than the majority bucket. Run with `python3 perfbench/run.py
// --self-test`; exits non-zero on the first expectation that does not hold.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/checks.h"
#include "src/common/sim_time.h"
#include "src/core/feature_data.h"
#include "src/core/featurizer.h"
#include "src/ml/dataset.h"
#include "src/ml/random_forest.h"
#include "src/trace/utilization.h"

namespace {

using rc::core::Prediction;
using namespace rcbench;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::cout << (condition ? "ok    " : "FAIL  ") << what << "\n";
  if (!condition) ++failures;
}

// A tiny forest over the real featurizer, so LegacyPredict runs the same
// code the benchmark uses.
struct TinyModel {
  rc::core::Featurizer featurizer{rc::Metric::kP95Cpu, rc::core::FeatureEncoding::kExpanded};
  rc::ml::RandomForest forest;

  TinyModel() {
    rc::ml::Dataset data(featurizer.feature_names());
    for (int i = 0; i < 400; ++i) {
      rc::core::ClientInputs x;
      x.subscription_id = 1;
      x.cores = 1 + i % 8;
      x.deploy_hour = i % 24;
      rc::core::SubscriptionFeatures h;
      h.subscription_id = 1;
      data.AddRow(featurizer.Encode(x, h), x.cores > 4 ? 3 : i % 2);
    }
    rc::ml::RandomForestConfig config;
    config.num_trees = 4;
    config.tree.max_depth = 6;
    config.num_threads = 1;
    forest = rc::ml::RandomForest::Fit(data, config);
  }
};

void TestExpectedPredictions() {
  TinyModel m;
  rc::core::ClientInputs x;
  x.subscription_id = 1;
  x.cores = 6;
  rc::core::SubscriptionFeatures h;
  h.subscription_id = 1;
  Prediction want = LegacyPredict(m.forest, m.featurizer, x, &h);
  Expect(want.valid, "legacy walk answers an input with feature data");
  Expect(MatchesAny(want, {want}), "expected-predictions: the right answer matches");
  Prediction flipped = want;
  flipped.bucket = (want.bucket + 1) % 4;
  Expect(!MatchesAny(flipped, {want}), "expected-predictions: a flipped bucket fails");
  Prediction nudged = want;
  nudged.score = want.score * (1 + 1e-12);
  Expect(!MatchesAny(nudged, {want}), "expected-predictions: a changed score fails");
  // No-prediction exactly when the subscription has no feature data.
  Prediction none = LegacyPredict(m.forest, m.featurizer, x, nullptr);
  Expect(!none.valid, "no-prediction: no feature data gives no-prediction");
  Expect(!MatchesAny(want, {none}), "no-prediction: an answer without feature data fails");
  Expect(!MatchesAny(none, {want}), "no-prediction: a missing answer with feature data fails");
}

void TestCandidateRecords() {
  // Record 0 published; record 1 pushed during [100, 200]; record 2 during
  // [300, 400].
  std::vector<RecordVersion> v = {{0, 0, 0}, {100, 200, 1}, {300, 400, 2}};
  Expect(CandidateRecords(v, 10, 50) == std::vector<int32_t>{0},
         "versions: before any push only the snapshot is current");
  Expect(CandidateRecords(v, 150, 160) == std::vector<int32_t>({0, 1}),
         "versions: during a push both the old and new record may answer");
  Expect(CandidateRecords(v, 250, 260) == std::vector<int32_t>{1},
         "versions: after a push returns only the new record answers");
  Expect(CandidateRecords(v, 450, 500) == std::vector<int32_t>{2},
         "versions: after the last push only the last record answers");
}

void TestFreshness() {
  TinyModel m;
  rc::core::ClientInputs x;
  x.subscription_id = 1;
  x.cores = 2;
  rc::core::SubscriptionFeatures old_h, new_h;
  old_h.subscription_id = new_h.subscription_id = 1;
  Prediction under_last = LegacyPredict(m.forest, m.featurizer, x, &new_h);
  Expect(StaleAnswers({under_last}, {under_last}) == 0,
         "push-freshness: answers under the last record pass");
  // A dropped push: the server still answers under an older record, which
  // here gives a different answer (a different input stands in for it).
  rc::core::ClientInputs y = x;
  y.cores = 7;
  Prediction under_old = LegacyPredict(m.forest, m.featurizer, y, &old_h);
  Expect(!SameAnswer(under_old, under_last), "push-freshness: the two records differ");
  Expect(StaleAnswers({under_old}, {under_last}) == 1,
         "push-freshness: an answer under a dropped push's predecessor fails");
  Expect(StaleAnswers({}, {under_last}) == 1, "push-freshness: a missing probe fails");
  // A push the server never acknowledged is never a candidate.
  std::vector<RecordVersion> v = {{0, 0, 0}, {100, 200, -2}};
  auto c = CandidateRecords(v, 300, 400);
  Expect(c.size() == 1 && c[0] == -2, "versions: a dropped push is reported as such");
}

void TestConservation() {
  rc::trace::UtilizationParams util;
  util.seed = 7;
  util.base = 0.3;
  std::vector<AliveVm> vms = {
      {0, 2 * rc::kHour, 4, &util},          // departs after two hours
      {rc::kHour + 1, 0, 2, &util},          // never departs
      {10 * rc::kMinute, 10 * rc::kMinute, 8, &util}};  // departure == arrival
  const int64_t horizon = 3 * rc::kHour;
  double direct = DirectCoreReadingSum(vms, horizon, 2);
  // The same sum, slot by slot.
  double slow = 0.0;
  for (int64_t s = 0; s < horizon / rc::kSlot; ++s) {
    const int64_t t = rc::SlotStart(s);
    for (const AliveVm& vm : vms) {
      bool alive = vm.arrival <= t && (vm.departure > t || vm.departure <= vm.arrival);
      if (alive) slow += rc::trace::UtilizationModel::ReadingAt(util, s).max_cpu * vm.cores;
    }
  }
  Expect(std::abs(direct - slow) <= 1e-9 * slow, "conservation: trace sum matches slot loop");
  ConservationInput good{3, 3, 0, slow, direct};
  Expect(CheckConservation(good).empty(), "conservation: a conserved month passes");
  ConservationInput lost = good;
  lost.placed = 2;
  Expect(!CheckConservation(lost).empty(), "conservation: a lost arrival fails");
  ConservationInput miscounted = good;
  miscounted.sim_core_reading_sum += 0.3 * 4;  // one extra reading of the first VM
  Expect(!CheckConservation(miscounted).empty(), "conservation: a miscounted reading fails");
}

void TestPredictedOnce() {
  Expect(CheckPredictedOnce({3, 1, 2}, {1, 2, 3}).empty(),
         "predicted-once: each arrival once passes");
  Expect(!CheckPredictedOnce({1, 2, 2, 3}, {1, 2, 3}).empty(),
         "predicted-once: an arrival predicted twice fails");
  Expect(!CheckPredictedOnce({1, 3}, {1, 2, 3}).empty(),
         "predicted-once: an arrival never predicted fails");
}

void TestModelQuality() {
  QualityInput q;
  q.train_labels = {0, 0, 0, 1};
  q.heldout_labels = {0, 1, 1, 0};
  q.heldout_predicted = {0, 1, 1, 0};
  double acc = 0, base = 0;
  Expect(CheckModelQuality(q, &acc, &base).empty() && acc == 1.0 && base == 0.5,
         "model-quality: a model above the majority bucket passes");
  q.heldout_predicted = {0, 0, 0, 0};
  Expect(!CheckModelQuality(q, &acc, &base).empty(),
         "model-quality: a model no better than the majority bucket fails");
}

}  // namespace

int main() {
  TestExpectedPredictions();
  TestCandidateRecords();
  TestFreshness();
  TestConservation();
  TestPredictedOnce();
  TestModelQuality();
  std::cout << (failures == 0 ? "all checks behave\n" : "some checks misbehave\n");
  return failures == 0 ? 0 : 1;
}
