#ifndef DEHEALTH_CORE_REFINED_DA_H_
#define DEHEALTH_CORE_REFINED_DA_H_

#include <vector>

#include "common/status.h"
#include "core/candidate_source.h"
#include "core/similarity.h"
#include "core/top_k.h"
#include "core/uda_graph.h"
#include "ml/svm_smo.h"

namespace dehealth {

/// Benchmark learner used by the refined-DA phase.
enum class LearnerKind {
  kKnn,
  kSmoSvm,
  kRlsc,
  kNearestCentroid,
};

const char* LearnerKindName(LearnerKind kind);

/// Open-world verification scheme (Section III-B, "Refined DA").
enum class VerificationScheme {
  kNone,            // closed world: always accept the classifier output
  kFalseAddition,   // add K' decoy users; prediction of a decoy => ⊥
  kMeanVerification,  // accept only if s_uv >= (1 + r) * mean_w s_uw
};

/// Configuration of the refined-DA phase.
struct RefinedDaConfig {
  LearnerKind learner = LearnerKind::kSmoSvm;
  int knn_k = 3;
  double rlsc_lambda = 1.0;
  SvmConfig svm;

  /// Appends graph-structural features (degree, weighted degree, log post
  /// count) of the post's author to each stylometric sample, as the paper
  /// trains on "stylometric and structural features".
  bool include_structural_features = true;

  /// How per-post classifier outputs combine into the user-level decision.
  /// kScoreSum adds decision scores (strong); kMajorityVote counts per-post
  /// argmax predictions (the classical Weka-era pipeline — weak when
  /// single posts are barely attributable, which is the paper's regime).
  enum class PostAggregation { kScoreSum, kMajorityVote };
  PostAggregation aggregation = PostAggregation::kScoreSum;

  VerificationScheme verification = VerificationScheme::kNone;
  /// The margin r of the mean-verification scheme, applied to similarity
  /// scores above the per-row floor. The paper uses r = 0.25 on its
  /// similarity scale; on the weighted-Jaccard attribute scale used here
  /// the discriminative band is narrower, so the calibrated default is
  /// 0.05 (see EXPERIMENTS.md).
  double mean_verification_r = 0.05;
  /// K' decoys for false addition; 0 means "as many as |C_u|".
  int false_addition_count = 0;

  /// Base seed for decoy sampling. Each anonymized user u draws from its
  /// own stream Rng(MixSeed(seed, u)), so decoy sets are a pure function
  /// of (seed, u) — independent of thread count and iteration order.
  uint64_t seed = 7;

  /// Threads for the per-user training loop (0 = hardware concurrency).
  /// Predictions are identical for any value; see DESIGN.md "Threading
  /// model".
  int num_threads = 0;
};

/// Result of refined DA over all anonymized users.
struct RefinedDaResult {
  /// predictions[u] = auxiliary id, or kNotPresent (⊥) when rejected.
  std::vector<int> predictions;
  /// rejected[u]: u → ⊥ was an explicit verification/filtering decision
  /// (kNotPresent alone can also mean "no posts / no candidates").
  std::vector<bool> rejected;
  /// Number of users decided by verification rejection (u → ⊥).
  int num_rejected = 0;
};

/// Runs the refined-DA phase: per anonymized user u, trains a classifier on
/// the posts of the users in C_u (labels = auxiliary ids), classifies u's
/// anonymized posts, aggregates per-post decision scores, and applies the
/// configured verification scheme. `rejected` (from filtering) may be null;
/// users rejected there map to ⊥ directly. `scores` must be the source the
/// candidates were selected from; its rows are only pulled (one O(n2) row
/// per user) when mean-verification needs them, so the indexed path never
/// materializes the matrix. A dense matrix goes in as
/// `DenseCandidateSource(matrix)`.
StatusOr<RefinedDaResult> RunRefinedDa(const UdaGraph& anonymized,
                                       const UdaGraph& auxiliary,
                                       const CandidateSets& candidates,
                                       const std::vector<bool>* rejected,
                                       const CandidateSource& scores,
                                       const RefinedDaConfig& config);

/// Batch entry point for the serving path: answers ONLY the listed
/// anonymized users (result entry i belongs to users[i]). `candidates` and
/// `rejected` stay indexed by absolute user id, exactly as a full run takes
/// them. Each user's problem is a pure function of (config, u) — the decoy
/// stream is Rng(MixSeed(seed, u)) with the ABSOLUTE id — so every answer
/// is bitwise-identical to the corresponding entry of a full RunRefinedDa,
/// whether the user is asked solo or in any batch, on any thread count.
/// Duplicate ids are allowed (and answered identically).
StatusOr<RefinedDaResult> RunRefinedDaForUsers(
    const UdaGraph& anonymized, const UdaGraph& auxiliary,
    const std::vector<int>& users, const CandidateSets& candidates,
    const std::vector<bool>* rejected, const CandidateSource& scores,
    const RefinedDaConfig& config);

/// Variant for the case where every anonymized user has the SAME candidate
/// set (the "Stylometry" baseline): trains one shared classifier instead of
/// |V1| identical ones. Fails if candidate sets differ. False-addition is
/// meaningless here (every user is already a candidate) and is treated as
/// kNone; mean-verification applies per user as usual.
StatusOr<RefinedDaResult> RunRefinedDaShared(const UdaGraph& anonymized,
                                             const UdaGraph& auxiliary,
                                             const CandidateSets& candidates,
                                             const CandidateSource& scores,
                                             const RefinedDaConfig& config);

}  // namespace dehealth

#endif  // DEHEALTH_CORE_REFINED_DA_H_
