#include "src/core/markov_chain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/runner.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/compression.hpp"
#include "src/sops/invariants.hpp"

namespace sops::core {
namespace {

using lattice::Node;
using system::Color;
using system::ParticleSystem;

ParticleSystem random_start(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(n, rng);
  const auto colors = balanced_random_colors(n, 2, rng);
  return ParticleSystem(nodes, colors);
}

TEST(ParamsTest, RejectsNonpositive) {
  const ParticleSystem sys(lattice::line(3));
  EXPECT_THROW(SeparationChain(sys, Params{0.0, 4.0, true}, 1),
               std::invalid_argument);
  EXPECT_THROW(SeparationChain(sys, Params{4.0, -1.0, true}, 1),
               std::invalid_argument);
}

TEST(MoveWeight, MatchesLemma9StationaryRatio) {
  // Detailed balance requires move weight = π(τ)/π(σ)
  //   = λ^{e(τ)−e(σ)} γ^{a(τ)−a(σ)}.
  util::Rng rng(2718);
  const Params params{3.0, 2.0, true};
  for (int trial = 0; trial < 200; ++trial) {
    ParticleSystem sys = random_start(30, 1000 + trial);
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node l = sys.position(i);
    const Node lp = lattice::neighbor(l, dir);
    if (sys.occupied(lp)) continue;

    const double w = move_weight_reference(sys, params, l, dir);

    const std::int64_t e_before = sys.edge_count();
    const std::int64_t a_before = sys.homo_edge_count();
    sys.apply_move(i, lp);
    const std::int64_t e_after = sys.edge_count();
    const std::int64_t a_after = sys.homo_edge_count();

    const double expected =
        std::pow(params.lambda, static_cast<double>(e_after - e_before)) *
        std::pow(params.gamma, static_cast<double>(a_after - a_before));
    EXPECT_NEAR(w, expected, 1e-9 * expected) << "trial " << trial;
  }
}

TEST(MoveWeight, ForwardTimesReverseIsOne) {
  util::Rng rng(99);
  const Params params{4.0, 4.0, true};
  for (int trial = 0; trial < 100; ++trial) {
    ParticleSystem sys = random_start(25, 2000 + trial);
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node l = sys.position(i);
    const Node lp = lattice::neighbor(l, dir);
    if (sys.occupied(lp)) continue;
    const double forward = move_weight_reference(sys, params, l, dir);
    sys.apply_move(i, lp);
    const double reverse =
        move_weight_reference(sys, params, lp, lattice::opposite(dir));
    EXPECT_NEAR(forward * reverse, 1.0, 1e-9);
  }
}

TEST(SwapWeight, MatchesHomoEdgeDelta) {
  // Swap weight must equal γ^{a(τ)−a(σ)} (A.2).
  util::Rng rng(14142);
  const Params params{2.0, 3.5, true};
  int checked = 0;
  for (int trial = 0; trial < 300 && checked < 100; ++trial) {
    ParticleSystem sys = random_start(30, 3000 + trial);
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node l = sys.position(i);
    const Node lp = lattice::neighbor(l, dir);
    const auto j = sys.particle_at(lp);
    if (j == system::kNoParticle || sys.color(i) == sys.color(j)) continue;
    ++checked;

    const double w = swap_weight_reference(sys, params, l, dir);
    const std::int64_t a_before = sys.homo_edge_count();
    sys.apply_swap(i, j);
    const std::int64_t a_after = sys.homo_edge_count();
    const double expected =
        std::pow(params.gamma, static_cast<double>(a_after - a_before));
    EXPECT_NEAR(w, expected, 1e-9 * std::max(1.0, expected));
  }
  EXPECT_GE(checked, 50);
}

TEST(SwapWeight, ForwardTimesReverseIsOne) {
  util::Rng rng(5);
  const Params params{2.0, 5.0, true};
  for (int trial = 0; trial < 200; ++trial) {
    ParticleSystem sys = random_start(20, 4000 + trial);
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    const Node l = sys.position(i);
    const Node lp = lattice::neighbor(l, dir);
    const auto j = sys.particle_at(lp);
    if (j == system::kNoParticle || sys.color(i) == sys.color(j)) continue;
    const double forward = swap_weight_reference(sys, params, l, dir);
    sys.apply_swap(i, j);
    // After the swap, particle j sits at l; the reverse proposal is the
    // same edge considered from l again.
    const double reverse = swap_weight_reference(sys, params, l, dir);
    EXPECT_NEAR(forward * reverse, 1.0, 1e-9);
  }
}

TEST(SeparationChainTest, PreservesInvariantsOverLongRun) {
  SeparationChain chain(random_start(50, 42), Params{4.0, 4.0, true}, 7);
  for (int block = 0; block < 20; ++block) {
    chain.run(5000);
    ASSERT_TRUE(system::is_connected(chain.system())) << block;
    ASSERT_FALSE(system::has_hole(chain.system())) << block;
  }
  const auto& c = chain.counters();
  EXPECT_EQ(c.steps, 100000u);
  EXPECT_GT(c.moves_accepted, 0u);
  EXPECT_GT(c.swap_proposals, 0u);
}

// Reproduction note (documented in DESIGN.md): under the literal move
// set of Algorithm 1 — Properties 4/5 plus the e ≠ 5 condition — the
// number of holes is *conserved*, not merely non-increasing. Filling the
// last node of a hole always fails Property 4 (the run through the
// target's far side contains both common neighbors), and merging a hole
// with the exterior is the exact reverse of a hole-creating move, which
// the symmetric properties forbid. The paper's Lemma 6 therefore
// effectively requires hole-free initial configurations (as in the
// compression paper [6]); all our generators produce such starts. This
// test pins the conservation behavior in both directions.
TEST(SeparationChainTest, HolesAreConservedByTheLiteralMoveSet) {
  // Hole-free start stays hole-free (the direction the proofs need).
  {
    util::Rng rng(1);
    SeparationChain chain(ParticleSystem(lattice::random_blob(30, rng)),
                          Params{3.0, 1.0, false}, 11);
    for (int block = 0; block < 10; ++block) {
      chain.run(5000);
      ASSERT_FALSE(system::has_hole(chain.system()));
      ASSERT_TRUE(system::is_connected(chain.system()));
    }
  }
  // A start with one hole keeps exactly one hole.
  {
    std::vector<Node> nodes;
    for (const Node& v : lattice::hexagon(3)) {
      if (!(v == Node{0, 0})) nodes.push_back(v);
    }
    SeparationChain chain(ParticleSystem(nodes), Params{3.0, 1.0, false}, 13);
    for (int block = 0; block < 10; ++block) {
      chain.run(5000);
      ASSERT_EQ(system::hole_stats(chain.system()).hole_count, 1u);
      ASSERT_TRUE(system::is_connected(chain.system()));
    }
  }
}

TEST(SeparationChainTest, OccupancyCapacityStableAcrossLongRun) {
  // The constructor pre-sizes the occupancy table to >= 2x the particle
  // count, so no rehash — and no latency spike or pointer invalidation —
  // can ever land mid-trajectory.
  SeparationChain chain(random_start(50, 12), Params{4.0, 4.0, true}, 31);
  const std::size_t cap = chain.system().occupancy_capacity();
  EXPECT_GE(cap, 2 * chain.system().size());
  for (int block = 0; block < 10; ++block) {
    chain.run(20000);
    ASSERT_EQ(chain.system().occupancy_capacity(), cap) << block;
  }
}

TEST(SeparationChainTest, DeterministicGivenSeed) {
  SeparationChain a(random_start(40, 8), Params{4.0, 4.0, true}, 99);
  SeparationChain b(random_start(40, 8), Params{4.0, 4.0, true}, 99);
  a.run(20000);
  b.run(20000);
  EXPECT_EQ(a.system().positions(), b.system().positions());
  EXPECT_EQ(a.counters().moves_accepted, b.counters().moves_accepted);
}

TEST(SeparationChainTest, SwapsDisabledMeansNoSwaps) {
  SeparationChain chain(random_start(40, 3), Params{4.0, 4.0, false}, 13);
  chain.run(50000);
  EXPECT_EQ(chain.counters().swap_proposals, 0u);
  EXPECT_EQ(chain.counters().swaps_accepted, 0u);
}

TEST(SeparationChainTest, CompressionBaselineCompresses) {
  // The PODC'16 chain at λ=4 should compress a line of 30 well below its
  // initial perimeter ratio.
  const auto nodes = lattice::line(30);
  SeparationChain chain = make_compression_chain(nodes, 4.0, 17);
  const double initial_ratio = metrics::perimeter_ratio(chain.system());
  chain.run(400000);
  const double final_ratio = metrics::perimeter_ratio(chain.system());
  EXPECT_GT(initial_ratio, 3.5);
  EXPECT_LT(final_ratio, 2.0);
}

TEST(SeparationChainTest, LargeGammaReducesHeteroEdges) {
  SeparationChain chain(random_start(60, 21), Params{4.0, 4.0, true}, 23);
  const auto before = measure(chain);
  chain.run(2000000);
  const auto after = measure(chain);
  EXPECT_LT(after.hetero_fraction, before.hetero_fraction * 0.7);
}

TEST(RunnerTest, MeasurementFieldsConsistent) {
  SeparationChain chain(random_start(45, 77), Params{4.0, 4.0, true}, 6);
  chain.run(10000);
  const Measurement m = measure(chain);
  EXPECT_EQ(m.perimeter,
            3 * static_cast<std::int64_t>(chain.system().size()) - 3 - m.edges);
  EXPECT_GE(m.hetero_edges, 0);
  EXPECT_LE(m.hetero_edges, m.edges);
  EXPECT_GT(m.perimeter_ratio, 0.9);
  EXPECT_GE(m.hetero_fraction, 0.0);
  EXPECT_LE(m.hetero_fraction, 1.0);
}

TEST(ColoringTest, BalancedRandomCountsExact) {
  util::Rng rng(1);
  const auto colors = balanced_random_colors(103, 2, rng);
  std::size_t ones = 0;
  for (Color c : colors) ones += (c == 1);
  EXPECT_EQ(ones, 51u);  // 103 = 52 + 51
}

TEST(ColoringTest, BlockAndAlternating) {
  const auto block = block_colors(10, 3);  // sizes 4,3,3
  EXPECT_EQ(std::count(block.begin(), block.end(), Color{0}), 4);
  EXPECT_EQ(std::count(block.begin(), block.end(), Color{1}), 3);
  EXPECT_EQ(std::count(block.begin(), block.end(), Color{2}), 3);

  const auto alt = alternating_colors(6, 2);
  const std::vector<Color> expected{0, 1, 0, 1, 0, 1};
  EXPECT_EQ(alt, expected);
}

TEST(ColoringTest, StripeSeparatesByMedian) {
  const auto nodes = lattice::parallelogram(10, 2);
  const auto colors = stripe_colors(nodes);
  std::size_t zeros = 0;
  for (Color c : colors) zeros += (c == 0);
  EXPECT_GT(zeros, 5u);
  EXPECT_LT(zeros, 15u);
}

TEST(ColoringTest, RejectsBadK) {
  util::Rng rng(1);
  EXPECT_THROW(balanced_random_colors(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(block_colors(10, 9), std::invalid_argument);
}

}  // namespace
}  // namespace sops::core
