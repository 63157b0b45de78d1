#include "stylo/user_profile.h"

namespace dehealth {

void UserProfile::AddPost(const SparseVector& post_features) {
  ++num_posts_;
  // The post's ids ascend, so one forward walk over the map finds each
  // attribute, or the exact position to insert it at.
  auto it = attribute_weights_.begin();
  for (const auto& [id, value] : post_features.entries()) {
    if (value == 0.0) continue;
    while (it != attribute_weights_.end() && it->first < id) ++it;
    if (it != attribute_weights_.end() && it->first == id) {
      ++it->second;
      ++it;
    } else {
      attribute_weights_.emplace_hint(it, id, 1);
    }
  }
  sum_features_.AddVector(post_features);
}

bool UserProfile::HasAttribute(int id) const {
  return attribute_weights_.count(id) > 0;
}

int UserProfile::AttributeWeight(int id) const {
  auto it = attribute_weights_.find(id);
  return it == attribute_weights_.end() ? 0 : it->second;
}

SparseVector UserProfile::MeanFeatures() const {
  SparseVector mean = sum_features_;
  if (num_posts_ > 0) mean.Scale(1.0 / num_posts_);
  return mean;
}

}  // namespace dehealth
