#include "core/refined_da.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/knn.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"
#include "ml/metrics.h"
#include "ml/nearest_centroid.h"
#include "ml/rlsc.h"
#include "stylo/feature_layout.h"

namespace dehealth {

const char* LearnerKindName(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kKnn: return "KNN";
    case LearnerKind::kSmoSvm: return "SMO";
    case LearnerKind::kRlsc: return "RLSC";
    case LearnerKind::kNearestCentroid: return "NearestCentroid";
  }
  return "?";
}

namespace {

std::unique_ptr<Classifier> MakeLearner(const RefinedDaConfig& config) {
  switch (config.learner) {
    case LearnerKind::kKnn:
      return std::make_unique<KnnClassifier>(config.knn_k);
    case LearnerKind::kSmoSvm:
      return std::make_unique<SmoSvmClassifier>(config.svm);
    case LearnerKind::kRlsc:
      return std::make_unique<RlscClassifier>(config.rlsc_lambda);
    case LearnerKind::kNearestCentroid:
      return std::make_unique<NearestCentroidClassifier>();
  }
  return nullptr;
}

/// The dense columns of one training problem: each feature id some post
/// holds gets the next column, in order of first appearance. The per-user
/// problems only touch a few hundred of the kTotalFeatures dimensions.
class ColumnMap {
 public:
  /// Gives each id of `v` not seen before the next column. InvalidArgument
  /// for an id outside [0, kTotalFeatures).
  Status Collect(const SparseVector& v) {
    for (const auto& [id, value] : v.entries()) {
      if (id < 0 || id >= feature_layout::kTotalFeatures)
        return Status::InvalidArgument(
            "refined DA: feature id " + std::to_string(id) +
            " outside [0, " + std::to_string(feature_layout::kTotalFeatures) +
            ")");
      int& column = column_[static_cast<size_t>(id)];
      if (column < 0) column = dims_++;
    }
    return Status::OK();
  }

  int dims() const { return dims_; }

  /// Writes `v`'s values into their columns of `row`; every id of `v` must
  /// have been collected.
  void Scatter(const SparseVector& v, std::span<double> row) const {
    for (const auto& [id, value] : v.entries())
      row[static_cast<size_t>(column_[static_cast<size_t>(id)])] = value;
  }

 private:
  std::vector<int> column_ =
      std::vector<int>(feature_layout::kTotalFeatures, -1);
  int dims_ = 0;
};

constexpr int kNumStructuralFeatures = 3;

/// Writes the structural features of `user` into the last
/// kNumStructuralFeatures entries of `row`.
void SetStructural(const UdaGraph& side, NodeId user, std::span<double> row) {
  const size_t base = row.size() - kNumStructuralFeatures;
  row[base + 0] = static_cast<double>(side.graph.Degree(user));
  row[base + 1] = side.graph.WeightedDegree(user);
  row[base + 2] = std::log(
      1.0 + static_cast<double>(
                side.post_features[static_cast<size_t>(user)].size()));
}

/// A learner trained on the posts of a label set, with the column map and
/// the scaler its inputs go through.
struct TrainedModel {
  bool structural = false;
  size_t dims = 0;
  ColumnMap columns;
  StandardScaler scaler;
  /// Null when no label has a post to train on.
  std::unique_ptr<Classifier> learner;
};

/// Writes `post` into `row` (zeroed) as a training or query sample of
/// `user` on `side`.
void WriteRow(const TrainedModel& model, const UdaGraph& side, NodeId user,
              const SparseVector& post, std::span<double> row) {
  model.columns.Scatter(post, row);
  if (model.structural) SetStructural(side, user, row);
}

/// Trains `model` on every post of every user in `labels`, each labelled
/// with that auxiliary id. The column map covers the training posts, then
/// the posts of `queries` in order, so every post Predict reads has its
/// columns. The posts go straight into the rows of one zeroed matrix,
/// which is standardized in place and handed to the learner.
Status Train(const UdaGraph& auxiliary, const std::vector<int>& labels,
             std::span<const std::vector<SparseVector>> queries,
             const RefinedDaConfig& config, TrainedModel& model) {
  std::vector<int> row_labels;
  for (int v : labels)
    row_labels.insert(row_labels.end(),
                      auxiliary.post_features[static_cast<size_t>(v)].size(),
                      v);
  if (row_labels.empty()) return Status();

  for (int v : labels)
    for (const SparseVector& f :
         auxiliary.post_features[static_cast<size_t>(v)])
      DEHEALTH_RETURN_IF_ERROR(model.columns.Collect(f));
  for (const std::vector<SparseVector>& posts : queries)
    for (const SparseVector& f : posts)
      DEHEALTH_RETURN_IF_ERROR(model.columns.Collect(f));

  model.structural = config.include_structural_features;
  model.dims = static_cast<size_t>(model.columns.dims()) +
               (model.structural ? kNumStructuralFeatures : 0);
  const size_t rows = row_labels.size();
  Dataset train(model.dims, std::vector<double>(rows * model.dims),
                std::move(row_labels));
  size_t r = 0;
  for (int v : labels)
    for (const SparseVector& f :
         auxiliary.post_features[static_cast<size_t>(v)])
      WriteRow(model, auxiliary, v, f, train.row(r++));

  DEHEALTH_RETURN_IF_ERROR(model.scaler.Fit(train));
  model.scaler.Transform(train);
  std::unique_ptr<Classifier> learner = MakeLearner(config);
  if (learner == nullptr)
    return Status::InvalidArgument("RunRefinedDa: unknown learner");
  DEHEALTH_RETURN_IF_ERROR(learner->Fit(std::move(train)));
  model.learner = std::move(learner);
  return Status();
}

/// The label u's posts point to: their decision scores summed, or their
/// argmax votes counted under kMajorityVote, then the highest total (the
/// first on ties). Reads the model only, so users predict in parallel;
/// each post goes through one reused row and score buffer.
int Predict(const TrainedModel& model, const UdaGraph& anonymized, NodeId u,
            RefinedDaConfig::PostAggregation aggregation) {
  const std::vector<int>& classes = model.learner->classes();
  std::vector<double> total_scores(classes.size(), 0.0);
  std::vector<double> decision(classes.size());
  std::vector<double> row(model.dims);
  for (const SparseVector& f :
       anonymized.post_features[static_cast<size_t>(u)]) {
    std::fill(row.begin(), row.end(), 0.0);
    WriteRow(model, anonymized, u, f, row);
    model.scaler.Transform(row);
    model.learner->DecisionScores(row, decision);
    if (aggregation == RefinedDaConfig::PostAggregation::kMajorityVote) {
      size_t argmax = 0;
      for (size_t c = 1; c < decision.size(); ++c)
        if (decision[c] > decision[argmax]) argmax = c;
      total_scores[argmax] += 1.0;
    } else {
      for (size_t c = 0; c < decision.size(); ++c)
        total_scores[c] += decision[c];
    }
  }
  size_t best = 0;
  for (size_t c = 1; c < total_scores.size(); ++c)
    if (total_scores[c] > total_scores[best]) best = c;
  return classes[best];
}

/// The mean-verification acceptance test (see the RefinedDaConfig docs):
/// the predicted user's similarity, measured above the per-row floor, must
/// exceed the mean of the other candidates' by a factor (1 + r).
bool PassesMeanVerification(const std::vector<double>& row,
                            const std::vector<int>& candidate_set,
                            int predicted, double r) {
  const double floor = *std::min_element(row.begin(), row.end());
  double mean = 0.0;
  int competitors = 0;
  for (int w : candidate_set) {
    if (w == predicted) continue;
    mean += row[static_cast<size_t>(w)] - floor;
    ++competitors;
  }
  if (competitors == 0) return true;
  mean /= static_cast<double>(competitors);
  return row[static_cast<size_t>(predicted)] - floor >= (1.0 + r) * mean;
}

/// Per-user outcome slot: each parallel task writes only its own entry.
struct UserOutcome {
  int prediction = kNotPresent;
  bool rejected = false;
};

/// Result entry i is outcomes[i].
RefinedDaResult FoldOutcomes(const std::vector<UserOutcome>& outcomes) {
  RefinedDaResult result;
  result.predictions.reserve(outcomes.size());
  result.rejected.reserve(outcomes.size());
  for (const UserOutcome& outcome : outcomes) {
    result.predictions.push_back(outcome.prediction);
    result.rejected.push_back(outcome.rejected);
    if (outcome.rejected) ++result.num_rejected;
  }
  return result;
}

/// The per-user refined-DA problem: assemble labels (+ decoys), train the
/// per-user classifier, classify u's posts, verify. Pure function of its
/// inputs — the decoy stream comes from a per-user Rng the caller derives
/// as Rng(MixSeed(seed, u)), so the outcome does not depend on which
/// thread runs it or in what order.
Status RefineOneUser(const UdaGraph& anonymized, const UdaGraph& auxiliary,
                     const CandidateSets& candidates,
                     const CandidateSource& scores,
                     const RefinedDaConfig& config, NodeId u,
                     UserOutcome& out) {
  const auto& posts_u = anonymized.post_features[static_cast<size_t>(u)];
  if (posts_u.empty() || candidates[static_cast<size_t>(u)].empty())
    return Status();

  // Assemble the label set: candidates plus (optionally) decoys.
  std::vector<int> labels = candidates[static_cast<size_t>(u)];
  std::unordered_set<int> decoys;
  if (config.verification == VerificationScheme::kFalseAddition) {
    Rng rng(MixSeed(config.seed, static_cast<uint64_t>(u)));
    const int n2 = auxiliary.num_users();
    std::unordered_set<int> in_set(labels.begin(), labels.end());
    int want = config.false_addition_count > 0
                   ? config.false_addition_count
                   : static_cast<int>(labels.size());
    want = std::min(want, n2 - static_cast<int>(in_set.size()));
    int guard = 0;
    while (static_cast<int>(decoys.size()) < want && guard++ < 50 * want) {
      const int v = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(n2)));
      if (in_set.count(v)) continue;
      if (decoys.insert(v).second) labels.push_back(v);
    }
  }

  TrainedModel model;
  DEHEALTH_RETURN_IF_ERROR(
      Train(auxiliary, labels, std::span(&posts_u, 1), config, model));
  if (model.learner == nullptr) return Status();
  const int predicted = Predict(model, anonymized, u, config.aggregation);

  // Verification.
  if (config.verification == VerificationScheme::kFalseAddition &&
      decoys.count(predicted)) {
    out.rejected = true;  // u → ⊥
    return Status();
  }
  if (config.verification == VerificationScheme::kMeanVerification) {
    std::vector<double> scratch;
    if (!PassesMeanVerification(scores.Row(u, &scratch),
                                candidates[static_cast<size_t>(u)],
                                predicted, config.mean_verification_r)) {
      out.rejected = true;  // u → ⊥
      return Status();
    }
  }
  out.prediction = predicted;
  return Status();
}

/// Refines users[i] (an absolute id) into result entry i: the one per-user
/// loop behind the full run and the batch entry point. Each task writes
/// only its own slot, so answers are identical for any thread count, and
/// the lowest-slot error wins, as a serial loop would report it.
StatusOr<RefinedDaResult> RefineEachUser(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<int>& users, const CandidateSets& candidates,
    const std::vector<bool>* rejected, const CandidateSource& scores,
    const RefinedDaConfig& config) {
  std::vector<UserOutcome> outcomes(users.size());
  std::vector<Status> statuses(users.size());
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        const NodeId u = static_cast<NodeId>(users[static_cast<size_t>(i)]);
        if (rejected != nullptr && (*rejected)[static_cast<size_t>(u)]) {
          outcomes[static_cast<size_t>(i)].rejected = true;
          return;  // filtering already concluded u → ⊥
        }
        statuses[static_cast<size_t>(i)] =
            RefineOneUser(anonymized, auxiliary, candidates, scores, config,
                          u, outcomes[static_cast<size_t>(i)]);
      },
      config.num_threads);
  for (const Status& st : statuses)
    if (!st.ok()) return st;
  return FoldOutcomes(outcomes);
}

}  // namespace

StatusOr<RefinedDaResult> RunRefinedDa(const UdaGraph& anonymized,
                                       const UdaGraph& auxiliary,
                                       const CandidateSets& candidates,
                                       const std::vector<bool>* rejected,
                                       const CandidateSource& scores,
                                       const RefinedDaConfig& config) {
  const int n1 = anonymized.num_users();
  if (static_cast<int>(candidates.size()) != n1)
    return Status::InvalidArgument(
        "RunRefinedDa: candidate set count != anonymized users");
  if (scores.num_anonymized() != n1)
    return Status::InvalidArgument(
        "RunRefinedDa: similarity row count != anonymized users");
  obs::Span span("core", "refined_da");
  span.SetArg("users", n1);
  obs::GetCoreMetrics().refined_users->Increment(static_cast<uint64_t>(n1));
  std::vector<int> users(static_cast<size_t>(n1));
  std::iota(users.begin(), users.end(), 0);
  return RefineEachUser(anonymized, auxiliary, users, candidates, rejected,
                        scores, config);
}

StatusOr<RefinedDaResult> RunRefinedDaForUsers(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<int>& users, const CandidateSets& candidates,
    const std::vector<bool>* rejected, const CandidateSource& scores,
    const RefinedDaConfig& config) {
  const int n1 = anonymized.num_users();
  if (static_cast<int>(candidates.size()) != n1)
    return Status::InvalidArgument(
        "RunRefinedDaForUsers: candidate set count != anonymized users");
  if (scores.num_anonymized() != n1)
    return Status::InvalidArgument(
        "RunRefinedDaForUsers: similarity row count != anonymized users");
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "RunRefinedDaForUsers: user id " + std::to_string(u) +
          " out of range [0, " + std::to_string(n1) + ")");
  obs::Span span("core", "refined_da_for_users");
  span.SetArg("users", static_cast<int64_t>(users.size()));
  obs::GetCoreMetrics().refined_users->Increment(users.size());
  return RefineEachUser(anonymized, auxiliary, users, candidates, rejected,
                        scores, config);
}

StatusOr<RefinedDaResult> RunRefinedDaShared(const UdaGraph& anonymized,
                                             const UdaGraph& auxiliary,
                                             const CandidateSets& candidates,
                                             const CandidateSource& scores,
                                             const RefinedDaConfig& config) {
  const int n1 = anonymized.num_users();
  if (static_cast<int>(candidates.size()) != n1)
    return Status::InvalidArgument(
        "RunRefinedDaShared: candidate set count != anonymized users");
  if (scores.num_anonymized() != n1)
    return Status::InvalidArgument(
        "RunRefinedDaShared: similarity row count != anonymized users");
  for (const auto& set : candidates)
    if (set != candidates.front())
      return Status::InvalidArgument(
          "RunRefinedDaShared: candidate sets are not identical");

  RefinedDaResult result;
  result.predictions.assign(static_cast<size_t>(n1), kNotPresent);
  result.rejected.assign(static_cast<size_t>(n1), false);
  if (n1 == 0) return result;
  const std::vector<int>& labels = candidates.front();
  if (labels.empty()) return result;

  TrainedModel model;
  DEHEALTH_RETURN_IF_ERROR(
      Train(auxiliary, labels, anonymized.post_features, config, model));
  if (model.learner == nullptr) return result;

  // Classification of each anonymized user against the one shared learner
  // is read-only on the model, so the per-user loop parallelizes with
  // per-slot writes.
  std::vector<UserOutcome> outcomes(static_cast<size_t>(n1));
  ParallelFor(
      0, n1,
      [&](int64_t ui) {
        const NodeId u = static_cast<NodeId>(ui);
        if (anonymized.post_features[static_cast<size_t>(u)].empty()) return;
        const int predicted =
            Predict(model, anonymized, u, config.aggregation);
        if (config.verification == VerificationScheme::kMeanVerification) {
          std::vector<double> scratch;
          if (!PassesMeanVerification(scores.Row(u, &scratch), labels,
                                      predicted,
                                      config.mean_verification_r)) {
            outcomes[static_cast<size_t>(u)].rejected = true;  // u → ⊥
            return;
          }
        }
        outcomes[static_cast<size_t>(u)].prediction = predicted;
      },
      config.num_threads);
  return FoldOutcomes(outcomes);
}

}  // namespace dehealth
