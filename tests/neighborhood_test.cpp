#include "src/core/neighborhood.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/locality.hpp"
#include "src/core/markov_chain.hpp"
#include "src/lattice/shapes.hpp"
#include "src/util/rng.hpp"

namespace sops::core {
namespace {

using lattice::Node;
using system::Color;
using system::ParticleSystem;

// ---------------------------------------------------------------------
// LUT vs reference run analysis, exhaustively over all 2^8 ring masks.
// The reference property4/property5 take a RingOccupancy, which can be
// filled directly — no particle system needed.

RingOccupancy ring_from_mask(unsigned mask) {
  RingOccupancy ring;
  for (int i = 0; i < 8; ++i) ring.occupied[i] = (mask >> i) & 1u;
  return ring;
}

TEST(RingLutTest, MatchesReferencePropertiesOnAllMasks) {
  for (unsigned mask = 0; mask < 256; ++mask) {
    const RingOccupancy ring = ring_from_mask(mask);
    const auto m = static_cast<std::uint8_t>(mask);
    EXPECT_EQ(property4_lut(m), property4(ring)) << "mask " << mask;
    EXPECT_EQ(property5_lut(m), property5(ring)) << "mask " << mask;
  }
}

// ---------------------------------------------------------------------
// NeighborhoodView vs the per-call reference path, exhaustively over
// every occupancy pattern of the closed 10-node neighborhood (l always
// occupied — it carries the proposing particle) x several deterministic
// color assignments x all six edge directions.

constexpr int kNumColorPatterns = 4;

Color pattern_color(int pattern, unsigned mask, int node) {
  switch (pattern) {
    case 0:
      return 0;  // homogeneous
    case 1:
      return static_cast<Color>(node % 2);  // alternating 2-coloring
    case 2:
      return static_cast<Color>(node % 4);  // 4 colors by position
    default:
      // Pseudo-random but deterministic per (mask, node), k = 5.
      return static_cast<Color>(
          util::mix64(static_cast<std::uint64_t>(mask) * 16 +
                      static_cast<std::uint64_t>(node)) %
          5);
  }
}

TEST(NeighborhoodViewTest, ExhaustiveEquivalenceWithReferencePath) {
  const Node l{0, 0};
  // The multiply-fold count against std::popcount on every node set.
  for (unsigned m = 0; m < 1024; ++m) {
    ASSERT_EQ(count_nibble_bits(expand_nodes(static_cast<std::uint16_t>(m))),
              std::popcount(m))
        << "mask " << m;
  }
  for (int dir = 0; dir < lattice::kDegree; ++dir) {
    const lattice::EdgeRing ring = lattice::EdgeRing::around(l, dir);
    const Node lp = lattice::neighbor(l, dir);
    // Node order matching the gather layout: ring 0..7, l (8), l' (9).
    std::vector<Node> all_nodes(ring.nodes.begin(), ring.nodes.end());
    all_nodes.push_back(l);
    all_nodes.push_back(lp);

    // Enumerate occupancy over ring + l'; l (bit 8) is always occupied.
    for (unsigned free_mask = 0; free_mask < 512; ++free_mask) {
      const unsigned mask =
          (free_mask & 0xFFu) | (1u << 8) | ((free_mask & 0x100u) << 1);
      for (int pattern = 0; pattern < kNumColorPatterns; ++pattern) {
        // The view gathered as the arena walk does: each occupied
        // node's color ^ 0xF folded into the all-0xF default nibbles.
        std::vector<Node> nodes;
        std::vector<Color> colors;
        NeighborhoodView nb;
        for (int i = 0; i < 10; ++i) {
          if (!((mask >> i) & 1u)) continue;
          const Color c = pattern_color(pattern, mask, i);
          nodes.push_back(all_nodes[static_cast<std::size_t>(i)]);
          colors.push_back(c);
          nb.color_nibbles ^= static_cast<std::uint64_t>(c ^ 0xFu) << (4 * i);
        }
        const ParticleSystem sys(nodes, colors);
        // Nibble i of the view is node i's color, F where empty.
        SCOPED_TRACE(testing::Message()
                     << "dir " << dir << " mask " << mask << " pattern "
                     << pattern << " nibbles 0x" << std::hex
                     << nb.color_nibbles);

        // Per-node occupancy, against the system's own index, and colors.
        for (int i = 0; i < 10; ++i) {
          ASSERT_EQ(nb.node_occupied(i),
                    sys.occupied(all_nodes[static_cast<std::size_t>(i)]))
              << "node " << i;
          if ((mask >> i) & 1u) {
            const auto p = sys.particle_at(all_nodes[static_cast<std::size_t>(i)]);
            ASSERT_NE(p, system::kNoParticle);
            EXPECT_EQ(nb.color_at(i), sys.color(p)) << "node " << i;
          } else {
            EXPECT_EQ(nb.color_at(i), 0xF) << "node " << i;
          }
        }

        // The nibble words the counts fold, and the fold itself.
        EXPECT_EQ(nb.occupied_nibbles(),
                  expand_nodes(static_cast<std::uint16_t>(mask)));
        EXPECT_EQ(count_nibble_bits(nb.occupied_nibbles()), std::popcount(mask));
        for (Color c = 0; c < 5; ++c) {
          EXPECT_EQ(count_nibble_bits(nb.color_matches(c)),
                    std::popcount(nb.color_matches(c)))
              << int(c);
        }

        // Counts against the per-call reference walks, for every color.
        EXPECT_EQ(nb.e(), sys.neighbor_count(l));
        EXPECT_EQ(nb.e_prime(), sys.neighbor_count(lp, /*exclude=*/l));
        EXPECT_EQ(nb.count(kNbrOfLNoLp), sys.neighbor_count(l, /*exclude=*/lp));
        EXPECT_EQ(nb.count(kNbrOfLp), sys.neighbor_count(lp));
        for (Color c = 0; c < 5; ++c) {
          EXPECT_EQ(nb.e_i(c), sys.neighbor_count_color(l, c)) << int(c);
          EXPECT_EQ(nb.e_prime_i(c), sys.neighbor_count_color(lp, c, l))
              << int(c);
          EXPECT_EQ(nb.count_color(c, kNbrOfLNoLpX),
                    sys.neighbor_count_color(l, c, lp))
              << int(c);
          EXPECT_EQ(nb.count_color(c, kNbrOfLpX),
                    sys.neighbor_count_color(lp, c))
              << int(c);
        }

        // Locality: the nibble-derived ring mask against the reference
        // ring read, and LUT vs run analysis on that read.
        const RingOccupancy ro = RingOccupancy::read(sys, l, dir);
        unsigned ref_ring = 0;
        for (int i = 0; i < 8; ++i) {
          if (ro.occupied[static_cast<std::size_t>(i)]) ref_ring |= 1u << i;
        }
        ASSERT_EQ(nb.ring_mask(), ref_ring);
        EXPECT_EQ(property4_lut(nb.ring_mask()), property4(ro));
        EXPECT_EQ(property5_lut(nb.ring_mask()), property5(ro));
        EXPECT_EQ(nb.move_locality_ok(),
                  move_preserves_invariants_reference(sys, l, dir));

        // The swap exponent against the reference recount.
        if (nb.node_occupied(NeighborhoodView::kNodeLp)) {
          const Color ci = nb.color_at(NeighborhoodView::kNodeL);
          const Color cj = nb.color_at(NeighborhoodView::kNodeLp);
          const int ref_exp = (sys.neighbor_count_color(lp, ci, l) -
                               sys.neighbor_count_color(l, ci)) +
                              (sys.neighbor_count_color(l, cj, lp) -
                               sys.neighbor_count_color(lp, cj));
          EXPECT_EQ(nb.swap_exponent(), ref_exp);
        }
      }
    }
  }
}

// SeparationChain::run's arena walk gathers only the nibbles of its
// cells (color ^ 0xF when occupied, 0 when empty) and reads the ring
// from them. Over every occupancy pattern of the ten nodes and every
// color below kMaxColors, alone or mixed, that mask must be the
// `cell != 0` mask of the eight ring cells.
TEST(NeighborhoodViewTest, RingMaskFromNibblesMatchesOccupiedCells) {
  for (unsigned mask = 0; mask < 1024; ++mask) {
    const auto nodes = static_cast<std::uint16_t>(mask);
    ASSERT_EQ(pack_ring_nibbles(expand_nodes(nodes)), mask & kRingNodes)
        << "mask " << mask;
    for (unsigned c = 0; c < system::kMaxColors; ++c) {
      for (const bool mixed : {false, true}) {
        std::uint64_t nib = 0;
        unsigned occupied_cells = 0;
        for (unsigned i = 0; i < 10; ++i) {
          const unsigned color = mixed ? (c + i) % system::kMaxColors : c;
          const std::uint32_t cell =
              ((mask >> i) & 1u) ? (color ^ 0xFu) << 28 | (i + 1) : 0;
          occupied_cells |= static_cast<unsigned>(cell != 0) << i;
          nib |= static_cast<std::uint64_t>(cell >> 28) << (4 * i);
        }
        NeighborhoodView nb;
        nb.color_nibbles ^= nib;
        ASSERT_EQ(nb.ring_mask(), occupied_cells & kRingNodes)
            << "mask " << mask << " color " << c << " mixed " << mixed;
      }
    }
  }
}

TEST(NeighborhoodViewTest, WeightFunctionsValidatePreconditions) {
  // l occupied, l' occupied → the move weight must throw, the swap weight
  // work.
  const ParticleSystem sys(std::vector<Node>{{0, 0}, {1, 0}});
  const Params params{4.0, 4.0, true};
  EXPECT_THROW((void)move_weight_reference(sys, params, Node{0, 0}, 0),
               std::invalid_argument);
  EXPECT_NO_THROW((void)swap_weight_reference(sys, params, Node{0, 0}, 0));
  // l empty → both throw.
  EXPECT_THROW((void)move_weight_reference(sys, params, Node{5, 5}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)swap_weight_reference(sys, params, Node{5, 5}, 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Trajectory equivalence: run()'s arena walk and the reference step(),
// fed identical seeds, must make identical decisions for 10^6 steps —
// same counters, same final configuration, same incremental edge counts.

struct TrajectorySetting {
  double lambda;
  double gamma;
  int k;
  bool swaps;
};

TEST(NeighborhoodViewTest, TrajectoryIdenticalToReferencePath) {
  const TrajectorySetting settings[] = {
      {4.0, 4.0, 2, true},   // the paper's separation regime
      {1.5, 4.0, 2, true},   // expansion in λ, separation in γ
      {4.0, 1.0, 1, false},  // PODC '16 compression (no swaps)
      {3.0, 6.0, 4, true},   // Section 5 generalization, k = 4
  };
  int setting_idx = 0;
  for (const auto& s : settings) {
    SCOPED_TRACE("setting " + std::to_string(setting_idx++));
    util::Rng init(9000 + static_cast<std::uint64_t>(setting_idx));
    const std::size_t n = 60;
    const auto nodes = lattice::random_blob(n, init);
    const auto colors = balanced_random_colors(n, s.k, init);
    const Params params{s.lambda, s.gamma, s.swaps};
    const std::uint64_t seed = 77'000 + static_cast<std::uint64_t>(setting_idx);

    SeparationChain fast(ParticleSystem(nodes, colors), params, seed);
    SeparationChain ref(ParticleSystem(nodes, colors), params, seed);

    const std::size_t cap_before = fast.system().occupancy_capacity();
    fast.run(1'000'000);
    for (int i = 0; i < 1'000'000; ++i) ref.step();

    const auto& cf = fast.counters();
    const auto& cr = ref.counters();
    EXPECT_EQ(cf.steps, cr.steps);
    EXPECT_EQ(cf.move_proposals, cr.move_proposals);
    EXPECT_EQ(cf.moves_accepted, cr.moves_accepted);
    EXPECT_EQ(cf.rejected_five, cr.rejected_five);
    EXPECT_EQ(cf.rejected_locality, cr.rejected_locality);
    EXPECT_EQ(cf.rejected_metropolis, cr.rejected_metropolis);
    EXPECT_EQ(cf.swap_proposals, cr.swap_proposals);
    EXPECT_EQ(cf.swaps_accepted, cr.swaps_accepted);

    EXPECT_EQ(fast.system().positions(), ref.system().positions());
    EXPECT_EQ(fast.system().edge_count(), ref.system().edge_count());
    EXPECT_EQ(fast.system().hetero_edge_count(),
              ref.system().hetero_edge_count());

    // The kernel's delta-updates must match a from-scratch recount.
    ParticleSystem recounted = fast.system();
    const auto edges = recounted.edge_count();
    const auto hetero = recounted.hetero_edge_count();
    recounted.recount_edges();
    EXPECT_EQ(recounted.edge_count(), edges);
    EXPECT_EQ(recounted.hetero_edge_count(), hetero);

    // Pre-sized occupancy: no rehash may land mid-trajectory.
    EXPECT_EQ(fast.system().occupancy_capacity(), cap_before);
    EXPECT_EQ(ref.system().occupancy_capacity(), cap_before);
  }
}

}  // namespace
}  // namespace sops::core
