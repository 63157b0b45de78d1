#ifndef DEHEALTH_COMMON_RNG_H_
#define DEHEALTH_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dehealth {

/// Mixes a base seed with a stream index into a statistically independent
/// derived seed (SplitMix64 finalizer over seed ⊕ golden-ratio-scaled
/// stream). Parallel code derives one `Rng(MixSeed(seed, i))` per work item
/// so the random stream consumed by item i is a pure function of (seed, i),
/// independent of thread count and iteration order.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// Deterministic pseudo-random number generator (xoshiro256** seeded through
/// SplitMix64). Every stochastic component of the library draws from an
/// explicitly passed `Rng` so experiments are reproducible bit-for-bit.
///
/// Not thread-safe; use one instance per thread.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds give independent-looking streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Standard normal via polar Box-Muller (caches the spare deviate).
  double NextGaussian();

  /// Normal with given mean and standard deviation (stddev >= 0).
  double NextGaussian(double mean, double stddev);

  /// Draws an index in [0, weights.size()) with probability proportional to
  /// weights[i]. All weights must be >= 0 and sum to > 0.
  size_t NextCategorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices uniformly from [0, n) (k <= n),
  /// returned in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  bool has_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// Precomputed Zipf(n, s) sampler: O(n) setup, O(log n) per draw.
class ZipfSampler {
 public:
  /// Requires n >= 1 and s > 0.
  ZipfSampler(int n, double s);

  /// Returns a rank in [1, n].
  int Sample(Rng& rng) const;

  int n() const { return n_; }
  double exponent() const { return s_; }

 private:
  int n_;
  double s_;
  std::vector<double> cdf_;  // cdf_[i] = P(rank <= i + 1)
};

}  // namespace dehealth

#endif  // DEHEALTH_COMMON_RNG_H_
