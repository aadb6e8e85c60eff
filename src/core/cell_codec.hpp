// Dense-mirror cell encodings of the replica band's arena planes
// (replica_band.hpp).
//
// A cell is one occupancy slot of a bounding-box grid. Two layouts:
//
//   wide (32-bit)        | 31..28 color ^ 0xF | 27..24 zero | 23..0 index+1 |
//   compact (16-bit)     | 15..12 color ^ 0xF |             | 11..0 index+1 |
//
// Invariants both layouts share, which the branch-free gather kernels
// rely on:
//   - 0 encodes an empty cell, so `cell != 0` is the occupancy bit and
//     `(cell & index_mask) - 1` yields the particle index with -1
//     (kNoParticle) on empty cells, no branch;
//   - the stored nibble is color ^ 0xF ∈ [8, 15] (colors are < 8), so
//     the top bit of the nibble field is set iff the cell is occupied —
//     after shifting the nibble field to the register's top, occupancy
//     is one arithmetic right shift and the nibble one logical shift;
//   - the nibble is exactly the XOR mask NeighborhoodGather applies to
//     its all-0xF default nibbles (0 for an empty cell), so gathered
//     nibbles fold into a NeighborhoodView with XOR alone.
//
// The compact layout halves the plane footprint — eight n=1600 replica
// planes drop from ~128 KiB to ~64 KiB — but caps the particle index at
// 12 bits; encoders must select it only when n + 1 <= kCompactIndexMask
// and fall back to the wide layout above that.
#pragma once

#include <cstdint>

namespace sops::core::cell {

/// Wide 32-bit layout: index+1 in the low 24 bits, nibble at 28..31.
inline constexpr int kWideIndexBits = 24;
inline constexpr std::uint32_t kWideIndexMask = (1u << kWideIndexBits) - 1;
inline constexpr int kWideNibbleShift = 28;

/// Compact 16-bit layout: index+1 in the low 12 bits, nibble at 12..15.
inline constexpr int kCompactIndexBits = 12;
inline constexpr std::uint32_t kCompactIndexMask =
    (1u << kCompactIndexBits) - 1;
inline constexpr int kCompactNibbleShift = 12;

/// Encodes (index, color) for either layout; Cell is std::uint32_t or
/// std::uint16_t. The caller guarantees index + 1 fits the layout's
/// index field.
template <typename Cell>
[[nodiscard]] constexpr Cell encode(std::uint32_t index,
                                    std::uint32_t color) noexcept {
  constexpr int shift =
      sizeof(Cell) == 2 ? kCompactNibbleShift : kWideNibbleShift;
  return static_cast<Cell>((index + 1) | ((color ^ 0xFu) << shift));
}

template <typename Cell>
inline constexpr std::uint32_t kIndexMask =
    sizeof(Cell) == 2 ? kCompactIndexMask : kWideIndexMask;

template <typename Cell>
inline constexpr int kNibbleShift =
    sizeof(Cell) == 2 ? kCompactNibbleShift : kWideNibbleShift;

}  // namespace sops::core::cell
