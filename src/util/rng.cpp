#include "src/util/rng.hpp"

namespace sops::util {

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream index into the seed first so (seed, 0) and (seed, 1)
  // share no state, then expand with splitmix64 per the xoshiro authors'
  // recommendation. A degenerate all-zero state is impossible because
  // splitmix64 is a bijection sequence and we draw four distinct outputs.
  SplitMix64 sm(seed ^ mix64(stream + 0x7f4a7c15ULL));
  s_[0] = sm.next();
  s_[1] = sm.next();
  s_[2] = sm.next();
  s_[3] = sm.next();
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;  // unreachable guard
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  return lemire_below([this] { return next(); }, bound);
}

}  // namespace sops::util
