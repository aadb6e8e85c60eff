#include "src/core/locality.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/neighborhood.hpp"
#include "src/lattice/shapes.hpp"
#include "src/sops/invariants.hpp"
#include "src/util/rng.hpp"

namespace sops::core {
namespace {

using lattice::Node;
using system::ParticleSystem;

// Builds a system containing `extra` plus a particle at l = (0,0); the
// move under test sends it toward direction 0, i.e. to (1,0).
ParticleSystem with_mover(std::vector<Node> extra) {
  extra.insert(extra.begin(), Node{0, 0});
  return ParticleSystem(extra);
}

TEST(RingOccupancyTest, ReadsCorrectNodes) {
  // Occupy both common neighbors of the edge (0,0)-(1,0): (0,1) and (1,-1).
  const ParticleSystem sys = with_mover({{0, 1}, {1, -1}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_TRUE(ring.occupied[0]);
  EXPECT_TRUE(ring.occupied[4]);
  EXPECT_EQ(ring.common_count(), 2);
  for (int i : {1, 2, 3, 5, 6, 7}) EXPECT_FALSE(ring.occupied[i]);
}

TEST(Property4Test, SingleCommonNeighborHolds) {
  const ParticleSystem sys = with_mover({{0, 1}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_TRUE(property4(ring));
}

TEST(Property4Test, TwoSeparatedCommonsEachWithOwnRunHolds) {
  // Commons (0,1) and (1,-1) occupied, no other ring nodes: two runs,
  // each containing exactly one common.
  const ParticleSystem sys = with_mover({{0, 1}, {1, -1}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_TRUE(property4(ring));
}

TEST(Property4Test, RunWithNoCommonFails) {
  // Common (0,1) occupied, plus an isolated ring particle at (-1,0)
  // (ring position 2) whose run contains no common neighbor.
  const ParticleSystem sys = with_mover({{0, 1}, {-1, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property4(ring));
}

TEST(Property4Test, RunContainingBothCommonsFails) {
  // Occupy the entire l-side arc: commons plus (−1,1),(−1,0),(0,−1) form
  // one run through both commons → moving could create a hole.
  const ParticleSystem sys =
      with_mover({{0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property4(ring));
}

TEST(Property4Test, NoCommonNeighborFails) {
  const ParticleSystem sys = with_mover({{-1, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property4(ring));
}

TEST(Property4Test, FullRingFails) {
  std::vector<Node> all;
  const lattice::EdgeRing ring_nodes = lattice::EdgeRing::around(Node{0, 0}, 0);
  for (const Node& v : ring_nodes.nodes) all.push_back(v);
  const ParticleSystem sys = with_mover(std::move(all));
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property4(ring));
}

TEST(Property5Test, BothArcsOccupiedHolds) {
  // No commons; l-side neighbor (-1,0) (pos 2) and l'-side neighbor (2,0)
  // (pos 6) — both arcs nonempty and trivially contiguous.
  const ParticleSystem sys = with_mover({{-1, 0}, {2, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_TRUE(property5(ring));
}

TEST(Property5Test, EmptyArcFails) {
  const ParticleSystem sys = with_mover({{-1, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property5(ring));  // l'-side arc empty
}

TEST(Property5Test, SplitArcFails) {
  // l-side arc positions 1 and 3 occupied but not 2: disconnected.
  const ParticleSystem sys = with_mover({{-1, 1}, {0, -1}, {2, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property5(ring));
}

TEST(Property5Test, OccupiedCommonFails) {
  const ParticleSystem sys = with_mover({{0, 1}, {-1, 0}, {2, 0}});
  const RingOccupancy ring = RingOccupancy::read(sys, Node{0, 0}, 0);
  EXPECT_FALSE(property5(ring));
}

// The paper's guarantee: moves satisfying Property 4 or 5 preserve
// connectivity and hole-freeness. Exhaustively verify on random systems:
// every (particle, direction) with an empty target either fails the
// check, or performing it keeps the system connected and hole-free.
TEST(MovePreservesInvariants, ExhaustiveOnRandomBlobs) {
  util::Rng rng(5150);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.below(40));
    const std::vector<Node> nodes = lattice::random_blob(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      for (int dir = 0; dir < lattice::kDegree; ++dir) {
        ParticleSystem sys(nodes);
        const auto pi = static_cast<system::ParticleIndex>(i);
        const Node l = sys.position(pi);
        const Node lp = lattice::neighbor(l, dir);
        if (sys.occupied(lp)) continue;
        if (!move_preserves_invariants_reference(sys, l, dir)) continue;
        sys.apply_move(pi, lp);
        EXPECT_TRUE(system::is_connected(sys))
            << "trial " << trial << " particle " << i << " dir " << dir;
        EXPECT_FALSE(system::has_hole(sys))
            << "trial " << trial << " particle " << i << " dir " << dir;
      }
    }
  }
}

// Completeness-flavored check: on a straight line, every end particle
// can pivot around its single neighbor (Property 4 with |S|=1).
TEST(MovePreservesInvariants, LineEndPivotsAllowed) {
  const ParticleSystem sys(lattice::line(5));
  // End particle at (4,0); its only neighbor is (3,0). Moving toward
  // (4,1)? direction from (4,0): d1=(0,1) gives (4,1), whose common
  // neighbors with (4,0) are (5,0)... compute: commons of edge
  // ((4,0),(4,1)) are (5,0)+? d1 from (4,0): commons = (4,0)+d2=(3,1) and
  // (4,0)+d0=(5,0). (3,1) is adjacent to (3,0)? no — but Property 4 needs
  // a common *occupied*: neither (3,1) nor (5,0) is occupied, and the
  // arcs are {(3,0)} and {} → Property 5 fails too. The allowed pivot is
  // direction d2=(−1,1) to (3,1): commons (3,0)... check it is allowed.
  EXPECT_TRUE(move_preserves_invariants_reference(sys, Node{4, 0}, 2));
  // Moving straight up (d1) would disconnect: must be disallowed.
  EXPECT_FALSE(move_preserves_invariants_reference(sys, Node{4, 0}, 1));
}

// The view run()'s arena walk gathers at (l, dir), read here from the
// system's index: each occupied node's color ^ 0xF folded into the
// all-0xF default nibbles, ring nodes 0..7, then l and l'.
NeighborhoodView view_at(const ParticleSystem& sys, Node l, int dir) {
  const lattice::EdgeRing ring = lattice::EdgeRing::around(l, dir);
  NeighborhoodView nb;
  for (int i = 0; i < 10; ++i) {
    const Node v = i < 8 ? ring.nodes[static_cast<std::size_t>(i)]
                   : i == NeighborhoodView::kNodeL ? l
                                                   : lattice::neighbor(l, dir);
    const system::ParticleIndex p = sys.particle_at(v);
    if (p == system::kNoParticle) continue;
    nb.color_nibbles ^= static_cast<std::uint64_t>(sys.color(p) ^ 0xFu)
                        << (4 * i);
  }
  return nb;
}

// The arena walk's table-driven ring-mask lookup and the per-call
// reference must agree on every (particle, direction) proposal of
// random systems, occupied targets included.
TEST(MovePreservesInvariants, FastPathMatchesReference) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.below(40));
    const ParticleSystem sys(lattice::random_blob(n, rng));
    for (std::size_t i = 0; i < n; ++i) {
      for (int dir = 0; dir < lattice::kDegree; ++dir) {
        const Node l = sys.position(static_cast<system::ParticleIndex>(i));
        EXPECT_EQ(view_at(sys, l, dir).move_locality_ok(),
                  move_preserves_invariants_reference(sys, l, dir))
            << "trial " << trial << " particle " << i << " dir " << dir;
      }
    }
  }
}

// Reversibility (Lemma 7): if a move l→l' passes the locality check, the
// reverse move l'→l must also pass after the move is applied.
TEST(MovePreservesInvariants, LocalChecksAreReversible) {
  util::Rng rng(8472);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.below(30));
    const std::vector<Node> nodes = lattice::random_blob(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      for (int dir = 0; dir < lattice::kDegree; ++dir) {
        ParticleSystem sys(nodes);
        const auto pi = static_cast<system::ParticleIndex>(i);
        const Node l = sys.position(pi);
        const Node lp = lattice::neighbor(l, dir);
        if (sys.occupied(lp)) continue;
        if (!move_preserves_invariants_reference(sys, l, dir)) continue;
        sys.apply_move(pi, lp);
        EXPECT_TRUE(move_preserves_invariants_reference(
            sys, lp, lattice::opposite(dir)))
            << "trial " << trial << " particle " << i << " dir " << dir;
      }
    }
  }
}

}  // namespace
}  // namespace sops::core
