#ifndef DEHEALTH_STYLO_USER_PROFILE_H_
#define DEHEALTH_STYLO_USER_PROFILE_H_

#include <map>
#include <vector>

#include "stylo/feature_vector.h"

namespace dehealth {

/// User-level aggregation of per-post feature vectors:
///  - the paper's attribute set A(u) = { A_i : some post of u has F_i != 0 }
///    with weights l_u(A_i) = number of u's posts having feature F_i, and
///  - the mean per-post feature vector (used as the ML representation).
class UserProfile {
 public:
  UserProfile() = default;

  /// Folds one post's feature vector into the profile.
  void AddPost(const SparseVector& post_features);

  /// Number of posts aggregated.
  int num_posts() const { return num_posts_; }

  /// True if the user has attribute `id` (some post had the feature).
  bool HasAttribute(int id) const;

  /// l_u(A_i): number of posts having feature `id` (0 if none).
  int AttributeWeight(int id) const;

  /// All (attribute id, weight) pairs, ordered by id.
  const std::map<int, int>& attributes() const { return attribute_weights_; }

  /// Mean per-post feature vector (empty if no posts).
  SparseVector MeanFeatures() const;

  /// Sum of all posts' feature vectors.
  const SparseVector& SumFeatures() const { return sum_features_; }

 private:
  int num_posts_ = 0;
  std::map<int, int> attribute_weights_;
  SparseVector sum_features_;
};

}  // namespace dehealth

#endif  // DEHEALTH_STYLO_USER_PROFILE_H_
