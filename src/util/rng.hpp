// Pseudorandom number generation for reproducible Monte-Carlo experiments.
//
// We implement xoshiro256++ (Blackman & Vigna, 2019) seeded through
// splitmix64, rather than relying on std::mt19937, for three reasons:
// (1) deterministic cross-platform streams given a 64-bit seed, (2) cheap
// jump-free substreams via re-seeding with a stream index, and (3) state
// small enough to embed one generator per experiment without care.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace sops::util {

/// splitmix64: a tiny, high-quality 64-bit mixer. Used to expand a user
/// seed into the 256-bit xoshiro state; also usable as a standalone hash.
struct SplitMix64 {
  std::uint64_t state = 0;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Stateless splitmix64 finalizer: a strong 64-bit bit mixer. This is the
/// hash function used by the open-addressed containers in hash_table.hpp.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Lemire's multiply-shift bounded draw (2019, "Fast Random Integer
/// Generation in an Interval") over an arbitrary source of raw 64-bit
/// words. `next` is invoked once, plus once per rejection, so the word
/// consumption order is fully determined by (word values, bound). This
/// is the single definition of the decode: Rng::below wraps it around
/// the live generator, and SeparationChain::run around a local copy of
/// the chain's generator that it stores back — guaranteeing both
/// consume the identical underlying sequence.
template <typename Next>
[[nodiscard]] std::uint64_t lemire_below(Next&& next,
                                         std::uint64_t bound) noexcept {
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// The (0, 1) double Rng::uniform_open decodes from one raw word.
[[nodiscard]] constexpr double decode_uniform_open(std::uint64_t raw) noexcept {
  return (static_cast<double>(raw >> 11) + 0.5) * 0x1.0p-53;
}

/// xoshiro256++ generator. Satisfies the UniformRandomBitGenerator
/// concept so it can also be plugged into <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from `seed` via splitmix64. A `stream`
  /// index derives statistically independent substreams from one seed.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL,
               std::uint64_t stream = 0) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 uniform bits.
  result_type operator()() noexcept { return next(); }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1): never returns 0, suitable for Metropolis
  /// draws `q` where Algorithm 1 requires q strictly inside (0, 1).
  double uniform_open() noexcept { return decode_uniform_open(next()); }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift method
  /// with rejection, so the result is exactly uniform.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// The raw 256-bit generator state, exported for checkpoint/resume
  /// (src/checkpoint). Restoring a saved State with set_state() makes
  /// the generator continue the exact word stream it would have produced
  /// uninterrupted — including through lemire_below rejection redraws,
  /// which consume words from this same stream (pinned by tests).
  using State = std::array<std::uint64_t, 4>;

  [[nodiscard]] State state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Precondition: `s` came from state() (in particular it is not the
  /// degenerate all-zero state, which the seeding path cannot produce).
  void set_state(const State& s) noexcept {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace sops::util
