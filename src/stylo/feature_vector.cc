#include "stylo/feature_vector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dehealth {

namespace {

// Finds the entry for `id` in a sorted pair vector.
auto FindEntry(std::vector<std::pair<int, double>>& v, int id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const std::pair<int, double>& e, int key) { return e.first < key; });
}

auto FindEntryConst(const std::vector<std::pair<int, double>>& v, int id) {
  return std::lower_bound(
      v.begin(), v.end(), id,
      [](const std::pair<int, double>& e, int key) { return e.first < key; });
}

}  // namespace

SparseVector SparseVector::FromSortedEntries(
    std::vector<std::pair<int, double>> entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const auto& a, const auto& b) {
                              return a.first >= b.first;
                            }) == entries.end());
  assert(std::none_of(entries.begin(), entries.end(),
                      [](const auto& e) { return e.second == 0.0; }));
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

void SparseVector::Set(int id, double value) {
  auto it = FindEntry(entries_, id);
  if (it != entries_.end() && it->first == id) {
    if (value == 0.0) {
      entries_.erase(it);
    } else {
      it->second = value;
    }
  } else if (value != 0.0) {
    entries_.insert(it, {id, value});
  }
}

void SparseVector::Add(int id, double delta) {
  if (delta == 0.0) return;
  auto it = FindEntry(entries_, id);
  if (it != entries_.end() && it->first == id) {
    it->second += delta;
    if (it->second == 0.0) entries_.erase(it);
  } else {
    entries_.insert(it, {id, delta});
  }
}

double SparseVector::Get(int id) const {
  auto it = FindEntryConst(entries_, id);
  if (it != entries_.end() && it->first == id) return it->second;
  return 0.0;
}

double SparseVector::Dot(const SparseVector& other) const {
  double acc = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->first < b->first) {
      ++a;
    } else if (b->first < a->first) {
      ++b;
    } else {
      acc += a->second * b->second;
      ++a;
      ++b;
    }
  }
  return acc;
}

double SparseVector::Norm() const {
  double acc = 0.0;
  for (const auto& [id, v] : entries_) acc += v * v;
  return std::sqrt(acc);
}

double SparseVector::Cosine(const SparseVector& other) const {
  const double na = Norm();
  const double nb = other.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(other) / (na * nb);
}

void SparseVector::Scale(double factor) {
  if (factor == 0.0) {
    entries_.clear();
    return;
  }
  for (auto& [id, v] : entries_) v *= factor;
}

void SparseVector::AddVector(const SparseVector& other) {
  // Merged into a per-thread scratch list, then copied back, so entries_
  // grows to exactly the size it needs and a fold allocates only when a
  // vector gains ids. A shared id gets Add's `old + v` and is erased when
  // that is zero; a zero in `other` changes nothing, as in Add.
  thread_local std::vector<std::pair<int, double>> merged;
  merged.clear();
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (b != other.entries_.end()) {
    if (a != entries_.end() && a->first < b->first) {
      merged.push_back(*a++);
    } else if (a != entries_.end() && a->first == b->first) {
      if (b->second == 0.0)
        merged.push_back(*a);
      else if (const double sum = a->second + b->second; sum != 0.0)
        merged.emplace_back(a->first, sum);
      ++a;
      ++b;
    } else {
      if (b->second != 0.0) merged.push_back(*b);
      ++b;
    }
  }
  merged.insert(merged.end(), a, entries_.end());
  entries_.assign(merged.begin(), merged.end());
}

}  // namespace dehealth
