// Neighborhood kernel for Algorithm 1's hot path.
//
// One step of the chain needs, for the proposal edge (l, l'), the
// neighbor counts e, e_i, e', e'_i, the swap exponent of line 10, and
// the locality Properties 4/5 — all of which are functions of the
// closed 10-node neighborhood {l, l'} ∪ ring(l, l'). The reference,
// SeparationChain::step(), recounts each quantity with its own pass of
// FlatMap probes (markov_chain.cpp, locality.cpp). SeparationChain::run's
// arena walk instead reads the ten nodes' arena cells once into one
// register of 4-bit per-node color nibbles (`color_nibbles`, 0xF where
// empty), and NeighborhoodView answers every query from it:
//
//  - every count is a nibble test that leaves bit 4i set per counted
//    node (occupied for the e-style counts, a SWAR color match for the
//    e_i-style ones), masked by a nibble-expanded node subset and
//    summed by one multiply (count_nibble_bits) — no POPCNT
//    instruction, which the baseline x86-64 target lacks, and no
//    libgcc call in its place;
//  - Properties 4 and 5 depend only on the 8-bit ring occupancy mask
//    packed from the nibbles (ring_mask), so the 8-cycle run-structure
//    analysis is precomputed into 256-entry lookup tables at compile
//    time.
//
// The node layout (nibble i) is defined by NeighborhoodView: ring
// indices 0..7 in lattice::EdgeRing order (0 and 4 the common
// neighbors), 8 = l, 9 = l'.
//
// Equivalence with the reference is enforced two ways: an exhaustive
// cross-check over all ring masks and synthetic neighborhoods
// (tests/neighborhood_test.cpp), and run()-against-step() trajectory
// tests (there and in tests/chain_run_test.cpp).
#pragma once

#include <cstdint>

#include "src/sops/particle_system.hpp"

namespace sops::core {

// Node-subset masks over the NeighborhoodView node layout. "Nbr"
// subsets enumerate the six lattice neighbors of an endpoint; the
// "No..." variants exclude the other endpoint, matching the
// neighbor_count(…, exclude) calls of the reference path.
inline constexpr std::uint16_t kRingNodes = 0x0FF;   // ring 0..7
inline constexpr std::uint16_t kNbrOfL = 0x21F;      // ring 0..4 + l'
inline constexpr std::uint16_t kNbrOfLNoLp = 0x01F;  // ring 0..4
inline constexpr std::uint16_t kNbrOfLp = 0x1F1;     // ring 0,4..7 + l
inline constexpr std::uint16_t kNbrOfLpNoL = 0x0F1;  // ring 0,4..7

/// Expands a 10-bit node mask so node i occupies bit 4i — the bit
/// position a SWAR nibble match reports on (see count_color below).
[[nodiscard]] constexpr std::uint64_t expand_nodes(std::uint16_t m) noexcept {
  std::uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    if ((m >> i) & 1u) out |= 1ULL << (4 * i);
  }
  return out;
}

inline constexpr std::uint64_t kNbrOfLX = expand_nodes(kNbrOfL);
inline constexpr std::uint64_t kNbrOfLNoLpX = expand_nodes(kNbrOfLNoLp);
inline constexpr std::uint64_t kNbrOfLpX = expand_nodes(kNbrOfLp);
inline constexpr std::uint64_t kNbrOfLpNoLX = expand_nodes(kNbrOfLpNoL);

/// Bit 4i of each of the ten nibbles; the SWAR match target, the
/// replication pattern for broadcasting a color to all nibbles, and the
/// multiplier of count_nibble_bits.
inline constexpr std::uint64_t kNibbleOnes = 0x1111111111ULL;

/// Popcount of a word whose set bits all sit at nibble bases 4i, i < 10
/// (a nibble-expanded node set). Multiplying by kNibbleOnes adds nibble
/// i into nibble i + j for every j < 10, so nibble 9 collects all ten;
/// no nibble sum exceeds 10, so nothing carries into it. Equals
/// std::popcount on every such word (tests/neighborhood_test.cpp), in
/// three integer ops on any x86-64.
[[nodiscard]] constexpr int count_nibble_bits(std::uint64_t v) noexcept {
  return static_cast<int>(((v * kNibbleOnes) >> 36) & 0xFu);
}

/// The 8-bit ring mask of a nibble-expanded node set: bit 4i of `v`
/// for ring node i < 8 packed into bit i, the inverse of expand_nodes on
/// the ring, in three shift-or-mask rounds (two bits per byte, four per
/// half, eight).
[[nodiscard]] constexpr std::uint8_t pack_ring_nibbles(
    std::uint64_t v) noexcept {
  v &= 0x11111111ULL;
  v = (v | (v >> 3)) & 0x03030303ULL;
  v = (v | (v >> 6)) & 0x000F000FULL;
  return static_cast<std::uint8_t>(v | (v >> 12));
}

namespace detail {

// Property 4 as a pure function of the 8-bit ring mask (commons at ring
// indices 0 and 4): |S| ∈ {1,2} and every maximal cyclic run of
// occupied ring nodes contains exactly one occupied common neighbor.
// Mirrors property4(RingOccupancy) in locality.cpp, against which it is
// exhaustively tested.
[[nodiscard]] constexpr bool prop4_of_ring_mask(unsigned m) noexcept {
  const unsigned s = (m & 1u) + ((m >> 4) & 1u);
  if (s == 0) return false;
  if (m == 0xFFu) return false;  // one run containing both commons
  int start = 0;
  while ((m >> start) & 1u) ++start;
  bool in_run = false;
  int commons_in_run = 0;
  for (int step = 1; step <= 8; ++step) {
    const int i = (start + step) & 7;
    if ((m >> i) & 1u) {
      in_run = true;
      if (i == 0 || i == 4) ++commons_in_run;
    } else {
      if (in_run && commons_in_run != 1) return false;
      in_run = false;
      commons_in_run = 0;
    }
  }
  return true;
}

// Property 5 on the ring mask: commons empty, and on each private
// side-arc (ring 1..3 for l, 5..7 for l') the occupied subset is
// nonempty and contiguous.
[[nodiscard]] constexpr bool prop5_of_ring_mask(unsigned m) noexcept {
  if ((m & 1u) || ((m >> 4) & 1u)) return false;
  const auto arc_ok = [m](int a, int b, int c) {
    const bool oa = (m >> a) & 1u;
    const bool ob = (m >> b) & 1u;
    const bool oc = (m >> c) & 1u;
    if (!oa && !ob && !oc) return false;
    if (oa && oc && !ob) return false;
    return true;
  };
  return arc_ok(1, 2, 3) && arc_ok(5, 6, 7);
}

/// 256-entry bitset indexed by ring mask.
struct RingLut {
  std::uint64_t bits[4] = {};

  [[nodiscard]] constexpr bool test(std::uint8_t m) const noexcept {
    return (bits[m >> 6] >> (m & 63u)) & 1u;
  }
};

template <typename Pred>
[[nodiscard]] constexpr RingLut make_ring_lut(Pred pred) noexcept {
  RingLut lut;
  for (unsigned m = 0; m < 256; ++m) {
    if (pred(m)) lut.bits[m >> 6] |= 1ULL << (m & 63u);
  }
  return lut;
}

inline constexpr RingLut kProp4Lut =
    make_ring_lut([](unsigned m) { return prop4_of_ring_mask(m); });
inline constexpr RingLut kProp5Lut =
    make_ring_lut([](unsigned m) { return prop5_of_ring_mask(m); });
inline constexpr RingLut kMoveOkLut = make_ring_lut(
    [](unsigned m) { return prop4_of_ring_mask(m) || prop5_of_ring_mask(m); });

}  // namespace detail

/// Table-driven Properties 4/5 on a raw ring mask (bit i = ring node i).
[[nodiscard]] inline bool property4_lut(std::uint8_t ring_mask) noexcept {
  return detail::kProp4Lut.test(ring_mask);
}
[[nodiscard]] inline bool property5_lut(std::uint8_t ring_mask) noexcept {
  return detail::kProp5Lut.test(ring_mask);
}

/// One gathered neighborhood plus every per-step query Algorithm 1 asks
/// of it. All queries are branch-light bit arithmetic on the nibbles.
///
/// Node layout (nibble i of `color_nibbles`):
///   0..7  lattice::EdgeRing::around(l, dir).nodes[0..7]
///         (ring indices 0 and 4 are the common neighbors of l and l')
///   8     l
///   9     l'
/// `color_nibbles` holds the color of node i in bits [4i, 4i+4), with
/// 0xF (an impossible color; kMaxColors = 8) where the node is empty,
/// so a nibble match against any real color also filters occupancy, and
/// nibble bit 3 is clear exactly on occupied nodes. A gatherer XORs
/// color ^ 0xF into each occupied node's nibble.
struct NeighborhoodView {
  std::uint64_t color_nibbles = 0xFFFFFFFFFFULL;

  static constexpr int kNodeL = 8;
  static constexpr int kNodeLp = 9;

  [[nodiscard]] bool node_occupied(int i) const noexcept {
    return (occupied_nibbles() >> (4 * i)) & 1u;
  }
  [[nodiscard]] system::Color color_at(int i) const noexcept {
    return static_cast<system::Color>((color_nibbles >> (4 * i)) & 0xFu);
  }
  /// Bit i set iff ring node i is occupied, read from the nibbles.
  /// Equals the ring occupancy RingOccupancy::read finds on every
  /// neighborhood (tests/neighborhood_test.cpp).
  [[nodiscard]] std::uint8_t ring_mask() const noexcept {
    return pack_ring_nibbles(occupied_nibbles());
  }

  /// Bit 4i set iff node i is occupied: colors are below 8 and empty
  /// nodes hold 0xF, so nibble bit 3 is clear exactly on occupied nodes.
  [[nodiscard]] std::uint64_t occupied_nibbles() const noexcept {
    return (~color_nibbles >> 3) & kNibbleOnes;
  }

  /// Bit 4i set iff node i holds color `c`. SWAR: broadcast c to all
  /// nibbles, XOR (matching nibbles become 0), OR-fold each nibble into
  /// its bit 4i, invert. Empty nodes hold 0xF and can never match a
  /// real color.
  [[nodiscard]] std::uint64_t color_matches(system::Color c) const noexcept {
    const std::uint64_t x = color_nibbles ^ (kNibbleOnes * c);
    std::uint64_t y = x | (x >> 2);
    y |= y >> 1;
    return ~y & kNibbleOnes;
  }

  /// Occupied nodes within a 10-bit node subset.
  [[nodiscard]] int count(std::uint16_t node_mask) const noexcept {
    return count_nibble_bits(occupied_nibbles() & expand_nodes(node_mask));
  }

  /// Occupied nodes of color `c` within a nibble-expanded node subset.
  [[nodiscard]] int count_color(system::Color c,
                                std::uint64_t expanded_mask) const noexcept {
    return count_nibble_bits(color_matches(c) & expanded_mask);
  }

  // Move quantities (l' empty): e and e_i count P's neighbors at l;
  // e' and e'_i count the neighbors P would have at l', excluding P
  // itself. Identical index sets to the reference neighbor_count calls.
  [[nodiscard]] int e() const noexcept {
    return count_nibble_bits(occupied_nibbles() & kNbrOfLX);
  }
  [[nodiscard]] int e_i(system::Color c) const noexcept {
    return count_color(c, kNbrOfLX);
  }
  [[nodiscard]] int e_prime() const noexcept {
    return count_nibble_bits(occupied_nibbles() & kNbrOfLpNoLX);
  }
  [[nodiscard]] int e_prime_i(system::Color c) const noexcept {
    return count_color(c, kNbrOfLpNoLX);
  }

  /// Swap exponent of Algorithm 1, line 10 (both endpoints occupied):
  /// (|N_i(l')\{P}| − |N_i(l)|) + (|N_j(l)\{Q}| − |N_j(l')|).
  /// When i = j the ring terms cancel and each difference is −1 (N_i(l)
  /// counts Q, N_j(l') counts P), so the like-colored swaps that
  /// dominate a separated system skip the four color counts.
  [[nodiscard]] int swap_exponent() const noexcept {
    const system::Color ci = color_at(kNodeL);
    const system::Color cj = color_at(kNodeLp);
    if (ci == cj) return -2;
    const int ni_lp = count_color(ci, kNbrOfLpNoLX);
    const int ni_l = count_color(ci, kNbrOfLX);
    const int nj_l = count_color(cj, kNbrOfLNoLpX);
    const int nj_lp = count_color(cj, kNbrOfLpX);
    return (ni_lp - ni_l) + (nj_l - nj_lp);
  }

  /// Condition (ii) of Algorithm 1: Property 4 or 5 holds on the ring.
  [[nodiscard]] bool move_locality_ok() const noexcept {
    return detail::kMoveOkLut.test(ring_mask());
  }
};

}  // namespace sops::core
