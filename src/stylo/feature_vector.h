#ifndef DEHEALTH_STYLO_FEATURE_VECTOR_H_
#define DEHEALTH_STYLO_FEATURE_VECTOR_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace dehealth {

/// A sparse, id-indexed feature vector. Ids are kept sorted; absent ids read
/// as 0. Used for per-post stylometric vectors (dimension ~1.7K, typically a
/// few hundred nonzeros).
class SparseVector {
 public:
  SparseVector() = default;

  /// Adopts `entries`, which must already be what Set would build: ids
  /// strictly ascending, no zero values.
  static SparseVector FromSortedEntries(
      std::vector<std::pair<int, double>> entries);

  /// Sets feature `id` to `value`. Setting 0 removes the entry.
  void Set(int id, double value);

  /// Adds `delta` to feature `id`.
  void Add(int id, double delta);

  /// Value at `id` (0 when absent).
  double Get(int id) const;

  /// Number of stored (nonzero) entries.
  size_t NumNonZero() const { return entries_.size(); }

  bool empty() const { return entries_.empty(); }

  /// Sorted (id, value) pairs.
  const std::vector<std::pair<int, double>>& entries() const {
    return entries_;
  }

  /// Dot product with another sparse vector.
  double Dot(const SparseVector& other) const;

  /// Euclidean norm.
  double Norm() const;

  /// Cosine similarity (0 if either is empty/zero).
  double Cosine(const SparseVector& other) const;

  /// In-place scaling by `factor`.
  void Scale(double factor);

  /// In-place accumulation: *this += other, as Add(id, v) for every entry
  /// of `other`, done in one merge of the two id lists.
  void AddVector(const SparseVector& other);

  /// Densifies into a length-`dims` vector (ids >= dims are dropped).
  std::vector<double> ToDense(int dims) const;

  bool operator==(const SparseVector& other) const = default;

 private:
  // Sorted by id.
  std::vector<std::pair<int, double>> entries_;
};

}  // namespace dehealth

#endif  // DEHEALTH_STYLO_FEATURE_VECTOR_H_
