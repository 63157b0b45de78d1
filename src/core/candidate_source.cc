#include "core/candidate_source.h"

#include <numeric>

#include "common/parallel.h"
#include "obs/standard_metrics.h"
#include "obs/trace.h"

namespace dehealth {

StatusOr<CandidateSets> CandidateSource::TopK(int k, int num_threads,
                                              ScoreRange* range) const {
  obs::Span span("core", "top_k");
  span.SetArg("rows", static_cast<int64_t>(num_anonymized()));
  if (DenseMatrix() != nullptr)
    obs::GetCoreMetrics().topk_dense_rows->Increment(
        static_cast<uint64_t>(num_anonymized()));
  std::vector<int> users(static_cast<size_t>(num_anonymized()));
  std::iota(users.begin(), users.end(), 0);
  return TopKForUsers(users, k, num_threads, range);
}

StatusOr<CandidateSets> CandidateSource::TopKForUsers(
    const std::vector<int>& users, int k, int num_threads,
    ScoreRange* range) const {
  if (k < 1)
    return Status::InvalidArgument(
        "CandidateSource::TopKForUsers: k must be >= 1");
  const int n1 = num_anonymized();
  for (int u : users)
    if (u < 0 || u >= n1)
      return Status::InvalidArgument(
          "CandidateSource::TopKForUsers: user id " + std::to_string(u) +
          " out of range [0, " + std::to_string(n1) + ")");
  CandidateSets result(users.size());
  std::vector<ScoreRange> row_ranges(range != nullptr ? users.size() : 0);
  // Each task owns one output slot, one range slot and its own row
  // scratch, so the lists and the folded range are identical for any
  // thread count.
  ParallelFor(
      0, static_cast<int64_t>(users.size()),
      [&](int64_t i) {
        const auto slot = static_cast<size_t>(i);
        std::vector<double> scratch;
        const std::vector<double>& row = Row(users[slot], &scratch);
        result[slot] = TopKForRow(row, k);
        if (range != nullptr)
          for (const double s : row) row_ranges[slot].Add(s);
      },
      num_threads);
  if (range != nullptr) {
    *range = ScoreRange{};
    for (const ScoreRange& row_range : row_ranges) range->Add(row_range);
  }
  return result;
}

DenseCandidateSource::DenseCandidateSource(
    const std::vector<std::vector<double>>& matrix)
    : matrix_(&matrix) {}

int DenseCandidateSource::num_anonymized() const {
  return static_cast<int>(matrix_->size());
}

int DenseCandidateSource::num_auxiliary() const {
  return matrix_->empty() ? 0 : static_cast<int>(matrix_->front().size());
}

double DenseCandidateSource::Score(NodeId u, NodeId v) const {
  return (*matrix_)[static_cast<size_t>(u)][static_cast<size_t>(v)];
}

const std::vector<double>& DenseCandidateSource::Row(
    NodeId u, std::vector<double>* /*scratch*/) const {
  return (*matrix_)[static_cast<size_t>(u)];
}

const std::vector<std::vector<double>>* DenseCandidateSource::DenseMatrix()
    const {
  return matrix_;
}

}  // namespace dehealth
