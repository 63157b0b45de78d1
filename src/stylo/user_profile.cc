#include "stylo/user_profile.h"

#include <algorithm>

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

double AttributeSimilarity(const UserProfile& u, const UserProfile& v) {
  const auto& a = u.attributes();
  const auto& b = v.attributes();
  if (a.empty() && b.empty()) return 0.0;

  size_t set_intersection = 0;
  long long weight_intersection = 0;  // sum of min weights over A(u) ∩ A(v)
  long long weight_union = 0;         // sum of max weights over A(u) ∪ A(v)

  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->first < ib->first) {
      weight_union += ia->second;
      ++ia;
    } else if (ib->first < ia->first) {
      weight_union += ib->second;
      ++ib;
    } else {
      ++set_intersection;
      weight_intersection += std::min(ia->second, ib->second);
      weight_union += std::max(ia->second, ib->second);
      ++ia;
      ++ib;
    }
  }
  for (; ia != a.end(); ++ia) weight_union += ia->second;
  for (; ib != b.end(); ++ib) weight_union += ib->second;

  const size_t set_union = a.size() + b.size() - set_intersection;
  double sim = 0.0;
  if (set_union > 0)
    sim += static_cast<double>(set_intersection) /
           static_cast<double>(set_union);
  if (weight_union > 0)
    sim += static_cast<double>(weight_intersection) /
           static_cast<double>(weight_union);
  return sim;
}

}  // namespace dehealth
