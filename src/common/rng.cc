#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace dehealth {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // Offset by one golden-ratio step so MixSeed(s, 0) != a plain SplitMix64
  // finalization of s (which seeding already performs internally).
  uint64_t x = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  // xoshiro256**
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling: discard values in the biased tail.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u, v, s;
  do {
    u = NextDouble(-1.0, 1.0);
    v = NextDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double mul = std::sqrt(-2.0 * std::log(s) / s);
  spare_gaussian_ = v * mul;
  has_spare_gaussian_ = true;
  return u * mul;
}

double Rng::NextGaussian(double mean, double stddev) {
  assert(stddev >= 0.0);
  return mean + stddev * NextGaussian();
}

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= target) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  if (k == 0) return {};
  if (k * 3 >= n) {
    // Dense case: shuffle a full index array and truncate.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    Shuffle(idx);
    idx.resize(k);
    return idx;
  }
  // Sparse case: rejection sampling into a set.
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    size_t candidate = static_cast<size_t>(NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

ZipfSampler::ZipfSampler(int n, double s) : n_(n), s_(s) {
  assert(n >= 1 && s > 0.0);
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int i = 1; i <= n; ++i) {
    acc += std::pow(i, -s);
    cdf_[static_cast<size_t>(i - 1)] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

int ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_;
  return static_cast<int>(it - cdf_.begin()) + 1;
}

}  // namespace dehealth
