#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/core/markov_chain.hpp"
#include "src/exact/chain_matrix.hpp"
#include "src/exact/enumerate.hpp"
#include "src/sops/invariants.hpp"
#include "src/util/stats.hpp"

namespace sops::exact {
namespace {

using core::Params;
using lattice::Node;
using system::Color;

TEST(Canonicalize, TranslationInvariance) {
  const std::vector<Node> a{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<Node> b{{5, -2}, {6, -2}, {5, -1}};
  const std::vector<Color> colors{0, 1, 0};
  EXPECT_EQ(canonicalize(a, colors).key(), canonicalize(b, colors).key());
}

TEST(Canonicalize, ColorPermutationChangesKey) {
  const std::vector<Node> nodes{{0, 0}, {1, 0}};
  EXPECT_NE(canonicalize(nodes, {0, 1}).key(),
            canonicalize(nodes, {1, 0}).key());
}

TEST(Canonicalize, OrderOfInputIrrelevant) {
  const std::vector<Node> a{{0, 0}, {1, 0}, {0, 1}};
  const std::vector<Node> a_shuffled{{0, 1}, {0, 0}, {1, 0}};
  const std::vector<Color> ca{0, 0, 1};
  const std::vector<Color> ca_shuffled{1, 0, 0};
  EXPECT_EQ(canonicalize(a, ca).key(),
            canonicalize(a_shuffled, ca_shuffled).key());
}

TEST(EnumerateShapes, KnownSmallCounts) {
  // Up to translation only: 1 monomer; 3 dominoes (edge orientations);
  // trominoes: 11 (2 triangles + 9 paths: 3+6... verified by the
  // generator and pinned here as a regression).
  EXPECT_EQ(enumerate_shapes(1).size(), 1u);
  EXPECT_EQ(enumerate_shapes(2).size(), 3u);
  const auto three = enumerate_shapes(3);
  // Cross-check count via brute validity.
  for (const auto& shape : three) {
    EXPECT_EQ(shape.size(), 3u);
    EXPECT_TRUE(system::nodes_connected(shape));
  }
  EXPECT_EQ(three.size(), 11u);
}

TEST(EnumerateShapes, AllDistinctAndConnected) {
  const auto shapes = enumerate_shapes(5);
  std::set<std::string> keys;
  for (const auto& shape : shapes) {
    EXPECT_TRUE(system::nodes_connected(shape));
    State s;
    s.nodes = shape;
    s.colors.assign(shape.size(), 0);
    EXPECT_TRUE(keys.insert(s.key()).second);
  }
  EXPECT_GT(shapes.size(), 50u);
}

TEST(EnumerateStates, CountsAreShapesTimesColorings) {
  // 2 particles, one of each color: 3 shapes × 2 colorings = 6.
  EXPECT_EQ(enumerate_states({1, 1}).size(), 6u);
  // 3 particles (2+1): 11 shapes × 3 colorings = 33.
  EXPECT_EQ(enumerate_states({2, 1}).size(), 33u);
}

TEST(EnumerateStates, RejectsBadInput) {
  EXPECT_THROW(enumerate_states({}), std::invalid_argument);
  EXPECT_THROW(enumerate_states({0, 0}), std::invalid_argument);
}

class ChainMatrixTest : public testing::TestWithParam<Params> {};

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, ChainMatrixTest,
    testing::Values(Params{4.0, 4.0, true}, Params{4.0, 4.0, false},
                    Params{2.0, 0.5, true}, Params{6.0, 1.0, true},
                    Params{1.5, 8.0, true}),
    [](const testing::TestParamInfo<Params>& info) {
      const auto& p = info.param;
      std::string name = "lambda" + std::to_string(int(p.lambda * 10)) +
                         "_gamma" + std::to_string(int(p.gamma * 10)) +
                         (p.swaps_enabled ? "_swaps" : "_noswaps");
      return name;
    });

// The heart of Lemma 9, verified exactly on the full state space of a
// 4-particle bichromatic system.
TEST_P(ChainMatrixTest, RowsSumToOne) {
  const ChainMatrix m({2, 2}, GetParam());
  EXPECT_LT(m.max_row_sum_error(), 1e-12);
}

TEST_P(ChainMatrixTest, DetailedBalanceHoldsForLemma9Pi) {
  const ChainMatrix m({2, 2}, GetParam());
  EXPECT_LT(m.max_detailed_balance_violation(), 1e-14);
}

TEST_P(ChainMatrixTest, Lemma9PiIsStationary) {
  const ChainMatrix m({2, 2}, GetParam());
  EXPECT_LT(m.max_stationarity_violation(), 1e-13);
}

TEST_P(ChainMatrixTest, ChainIsErgodic) {
  const ChainMatrix m({2, 2}, GetParam());
  EXPECT_TRUE(m.irreducible());
  EXPECT_TRUE(m.aperiodic());
}

TEST(ChainMatrixBasics, StateSpaceSizeMatchesEnumeration) {
  const ChainMatrix m({2, 2}, Params{4.0, 4.0, true});
  EXPECT_EQ(m.num_states(), enumerate_states({2, 2}).size());
  EXPECT_GE(m.index_of(m.states()[0].key()), 0);
  EXPECT_EQ(m.index_of("bogus"), -1);
}

TEST(ChainMatrixBasics, ThrowsWhenStateSpaceTooLarge) {
  EXPECT_THROW(ChainMatrix({3, 3}, Params{4.0, 4.0, true}, 10),
               std::invalid_argument);
}

// With γ = 1 and one color the distribution must reduce to the
// compression chain's λ^{-p(σ)}-equivalent form: states with equal
// perimeter get equal probability.
TEST(ChainMatrixBasics, HomogeneousGammaOneMatchesCompression) {
  const ChainMatrix m({4}, Params{3.0, 1.0, false});
  const auto pi = m.lemma9_distribution();
  std::map<std::int64_t, double> by_perimeter;
  for (std::size_t i = 0; i < m.num_states(); ++i) {
    const system::ParticleSystem sys(m.states()[i].nodes,
                                     m.states()[i].colors);
    const std::int64_t p = sys.perimeter_by_identity();
    const auto it = by_perimeter.find(p);
    if (it == by_perimeter.end()) {
      by_perimeter[p] = pi[i];
    } else {
      EXPECT_NEAR(it->second, pi[i], 1e-15);
    }
  }
  EXPECT_GE(by_perimeter.size(), 2u);
}

// Long-run empirical visit frequencies of the real simulator must match
// the exact Lemma 9 distribution (TV < 2%).
TEST(EmpiricalConvergence, SimulatorMatchesExactDistribution) {
  const Params params{3.0, 2.0, true};
  const ChainMatrix m({2, 2}, params);
  const auto exact_pi = m.lemma9_distribution_by_key();

  // Start from the first enumerated state.
  const State& start = m.states()[0];
  core::SeparationChain chain(
      system::ParticleSystem(start.nodes, start.colors), params, 321);

  std::map<std::string, std::size_t> visits;
  constexpr std::size_t kBurnIn = 50000;
  constexpr std::size_t kSamples = 3000000;
  chain.run(kBurnIn);
  for (std::size_t i = 0; i < kSamples; ++i) {
    chain.run(1);
    ++visits[state_of(chain.system()).key()];
  }
  const double tv = util::total_variation(util::normalize(visits), exact_pi);
  EXPECT_LT(tv, 0.02) << "TV distance " << tv;
}

// Swaps must not change the stationary distribution — only the dynamics.
TEST(SwapInvariance, StationaryDistributionUnchangedBySwaps) {
  const ChainMatrix with_swaps({2, 2}, Params{3.0, 2.0, true});
  const ChainMatrix without({2, 2}, Params{3.0, 2.0, false});
  // Both are detailed-balanced w.r.t. the same π by construction; verify
  // the no-swap chain is still irreducible (swaps are an accelerator,
  // not a correctness requirement — Section 2.3).
  EXPECT_LT(without.max_detailed_balance_violation(), 1e-14);
  EXPECT_TRUE(without.irreducible());
  EXPECT_TRUE(with_swaps.irreducible());
}

}  // namespace
}  // namespace sops::exact
