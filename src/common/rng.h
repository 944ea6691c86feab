#ifndef START_COMMON_RNG_H_
#define START_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace start::common {

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// A single self-contained PRNG is used everywhere (data generation, parameter
/// initialisation, masking, augmentation) so that every experiment in the
/// benchmark harness is exactly reproducible from its seed. The seed is expanded
/// with SplitMix64 per the xoshiro reference implementation.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) { Seed(seed); }

  /// Re-seeds the generator deterministically.
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportional to `weights`.
  /// Weights must be non-negative with a positive sum.
  int64_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Forks an independent child generator (stream split by hashing the state).
  Rng Fork();

  /// Serialises the full generator state (xoshiro words + the Box-Muller
  /// cache) so a checkpointed training run can resume its random stream at
  /// the exact cursor where it stopped. The layout is 6 words:
  /// state[0..3], have_cached_normal, bit pattern of cached_normal.
  std::vector<uint64_t> GetState() const;

  /// Restores a state captured by GetState(). The next draw after SetState
  /// is bitwise identical to the draw the captured generator would have made.
  void SetState(const std::vector<uint64_t>& state);

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// \brief Process-wide RNG used by components that need randomness but take no
/// explicit Rng parameter (e.g. dropout inside autograd ops). Seed it once at
/// program start for reproducibility. Not thread-safe by design: code that runs
/// ops from several threads passes each thread its own explicit Rng.
Rng& GlobalRng();

/// Seeds GlobalRng().
void SeedGlobalRng(uint64_t seed);

}  // namespace start::common

#endif  // START_COMMON_RNG_H_
