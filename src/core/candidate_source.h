#ifndef DEHEALTH_CORE_CANDIDATE_SOURCE_H_
#define DEHEALTH_CORE_CANDIDATE_SOURCE_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "common/status.h"
#include "core/top_k.h"
#include "graph/correlation_graph.h"

namespace dehealth {

/// The smallest and largest score over a set of rows: the global extremes
/// Algorithm 2's thresholds start from. Empty (min > max) until a score is
/// added. Adding each row's range in row order gives bitwise the result of
/// one serial row-major pass over the same scores, because a fold only
/// moves on a strictly better score.
struct ScoreRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double score) {
    max = std::max(max, score);
    min = std::min(min, score);
  }
  void Add(const ScoreRange& other) {
    max = std::max(max, other.max);
    min = std::min(min, other.min);
  }
};

/// Where per-pair similarity scores and Top-K candidate sets come from.
///
/// The structural engine scores through the candidate index (src/index/),
/// one row at a time, without ever forming the |Δ1|×|Δ2| matrix; the
/// matrix-backed engines wrap their materialized matrix. Both produce
/// bitwise-identical scores and candidate sets for the same scores, so
/// every downstream phase (filtering, refined DA, evaluation) consumes
/// either through this interface.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  virtual int num_anonymized() const = 0;
  virtual int num_auxiliary() const = 0;

  /// Exact similarity s_uv of anonymized u against auxiliary v.
  virtual double Score(NodeId u, NodeId v) const = 0;

  /// All of u's scores, in auxiliary-id order. Dense sources return a
  /// reference to their materialized row; others fill *scratch (resized to
  /// num_auxiliary()) and return it — an O(n2) computation.
  virtual const std::vector<double>& Row(NodeId u,
                                         std::vector<double>* scratch)
      const = 0;

  /// Direct Top-K candidate sets for every anonymized user: per user the
  /// min(k, n2) auxiliary ids with the largest scores, ordered by
  /// decreasing score with ties broken by smaller id — exactly what
  /// SelectTopKCandidates(kDirect) returns on the dense matrix. k must be
  /// >= 1. Row-parallel across num_threads (0 = hardware concurrency) with
  /// thread-count-independent output. When `range` is non-null it receives
  /// the extremes of all n1 × n2 scores, taken in the same row pass.
  StatusOr<CandidateSets> TopK(int k, int num_threads,
                               ScoreRange* range = nullptr) const;

  /// Batch entry point for the serving path and the job runner: direct
  /// Top-K candidate lists for just the listed anonymized users —
  /// result[i] is bitwise-identical to TopK(k, ...)[users[i]], for any
  /// batch composition and thread count. When `range` is non-null it
  /// receives the extremes of the listed users' rows, folded in list
  /// order. Fails with InvalidArgument on k < 1 or an out-of-range user
  /// id. Streams one Row per user through TopKForRow.
  virtual StatusOr<CandidateSets> TopKForUsers(const std::vector<int>& users,
                                               int k, int num_threads,
                                               ScoreRange* range) const;

  /// The materialized matrix when this source holds one, else nullptr.
  virtual const std::vector<std::vector<double>>* DenseMatrix() const {
    return nullptr;
  }
};

/// CandidateSource over a materialized similarity matrix. Borrows the
/// matrix, which must outlive this object; rows must be uniform length.
class DenseCandidateSource final : public CandidateSource {
 public:
  explicit DenseCandidateSource(
      const std::vector<std::vector<double>>& matrix);

  int num_anonymized() const override;
  int num_auxiliary() const override;
  double Score(NodeId u, NodeId v) const override;
  const std::vector<double>& Row(NodeId u,
                                 std::vector<double>* scratch) const override;
  const std::vector<std::vector<double>>* DenseMatrix() const override;

 private:
  const std::vector<std::vector<double>>* matrix_;
};

}  // namespace dehealth

#endif  // DEHEALTH_CORE_CANDIDATE_SOURCE_H_
