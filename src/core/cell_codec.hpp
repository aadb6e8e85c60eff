// Dense-mirror cell encoding of the replica band's arena planes
// (replica_band.hpp).
//
// A cell is one 32-bit occupancy slot of a bounding-box grid:
//
//   | 31..28 color ^ 0xF | 27..24 zero | 23..0 index+1 |
//
// Invariants the branch-free gather kernels rely on:
//   - 0 encodes an empty cell, so `cell != 0` is the occupancy bit and
//     `(cell & kIndexMask) - 1` yields the particle index with -1
//     (kNoParticle) on empty cells, no branch;
//   - the stored nibble is color ^ 0xF ∈ [8, 15] (colors are < 8), so
//     the top bit of the cell is set iff the cell is occupied —
//     occupancy is one arithmetic right shift and the nibble one
//     logical shift;
//   - the nibble is exactly the XOR mask NeighborhoodGather applies to
//     its all-0xF default nibbles (0 for an empty cell), so gathered
//     nibbles fold into a NeighborhoodView with XOR alone.
#pragma once

#include <cstdint>

namespace sops::core::cell {

inline constexpr int kIndexBits = 24;
inline constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;
inline constexpr int kNibbleShift = 28;

/// Encodes (index, color). The caller guarantees index + 1 fits the
/// index field.
[[nodiscard]] constexpr std::uint32_t encode(std::uint32_t index,
                                             std::uint32_t color) noexcept {
  return (index + 1) | ((color ^ 0xFu) << kNibbleShift);
}

}  // namespace sops::core::cell
