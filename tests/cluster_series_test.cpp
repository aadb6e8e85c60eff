// Direct machine verification of Theorem 10 / Equation 2: truncations of
// the cluster-expansion series converge to the independently-computed
// exact ln Ξ.

#include "src/polymer/cluster_series.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/lattice/shapes.hpp"
#include "src/polymer/loops.hpp"
#include "src/polymer/partition.hpp"

namespace sops::polymer {
namespace {

using lattice::Node;

std::vector<std::vector<bool>> graph(std::size_t m,
                                     std::initializer_list<std::pair<int, int>>
                                         edges) {
  std::vector<std::vector<bool>> h(m, std::vector<bool>(m, false));
  for (const auto& [a, b] : edges) h[static_cast<std::size_t>(a)]
                                    [static_cast<std::size_t>(b)] =
      h[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = true;
  return h;
}

TEST(UrsellFactor, KnownSmallGraphs) {
  // Single vertex: 1 (the empty spanning subgraph).
  EXPECT_DOUBLE_EQ(ursell_factor(graph(1, {})), 1.0);
  // Single edge K2: only the full edge is connected-spanning → −1.
  EXPECT_DOUBLE_EQ(ursell_factor(graph(2, {{0, 1}})), -1.0);
  // Path P3 (0-1-2): one connected spanning subgraph (both edges) → +1.
  EXPECT_DOUBLE_EQ(ursell_factor(graph(3, {{0, 1}, {1, 2}})), 1.0);
  // Triangle K3: three 2-edge trees (+1 each) and the 3-edge cycle (−1)
  // → 3·(+1) + (−1)·... signs: (−1)^2 = +1 per tree, (−1)^3 = −1 → 2.
  EXPECT_DOUBLE_EQ(ursell_factor(graph(3, {{0, 1}, {1, 2}, {0, 2}})), 2.0);
  // Disconnected pair: not a cluster → 0.
  EXPECT_DOUBLE_EQ(ursell_factor(graph(2, {})), 0.0);
}

TEST(UrsellFactor, ValidatesInput) {
  EXPECT_THROW((void)ursell_factor({}), std::invalid_argument);
  std::vector<std::vector<bool>> ragged{{false, true}, {true}};
  EXPECT_THROW((void)ursell_factor(ragged), std::invalid_argument);
}

// Analytic cross-check: two mutually incompatible polymers have
// Ξ = 1 + w1 + w2, and the series must reproduce the Taylor expansion
// of ln(1 + w1 + w2) order by order.
TEST(ClusterSeries, MatchesLogExpansionForTwoIncompatiblePolymers) {
  const Polymer p1{Edge::make({0, 0}, {1, 0})};
  const Polymer p2{Edge::make({0, 0}, {0, 1})};
  const std::vector<Polymer> polymers{p1, p2};
  const std::vector<double> weights{0.08, 0.05};
  const auto always = [](const Polymer&, const Polymer&) { return true; };

  const auto partial =
      cluster_expansion_partial_sums(polymers, weights, always, 6);
  const double exact = std::log(1.0 + weights[0] + weights[1]);
  // Successive truncations approach ln Ξ with shrinking error.
  double prev_err = std::abs(partial[0] - exact);
  for (std::size_t k = 1; k < partial.size(); ++k) {
    const double err = std::abs(partial[k] - exact);
    EXPECT_LT(err, prev_err) << "order " << k + 1;
    prev_err = err;
  }
  EXPECT_NEAR(partial.back(), exact, 1e-7);
}

TEST(ClusterSeries, CompatiblePolymersFactorize) {
  // Two compatible polymers: ln Ξ = ln(1+w1) + ln(1+w2); mixed clusters
  // contribute nothing.
  const Polymer p1{Edge::make({0, 0}, {1, 0})};
  const Polymer p2{Edge::make({5, 5}, {6, 5})};
  const std::vector<Polymer> polymers{p1, p2};
  const std::vector<double> weights{0.1, 0.2};
  const auto never = [](const Polymer& a, const Polymer& b) {
    return share_edge(a, b);  // distinct disjoint polymers: false
  };
  const auto partial =
      cluster_expansion_partial_sums(polymers, weights, never, 6);
  const double exact = std::log(1.1) + std::log(1.2);
  // Order-6 truncation of ln(1+w) at w = 0.2 leaves a tail ≈ w^7/7.
  EXPECT_NEAR(partial.back(), exact, 5e-6);
}

// The real thing: loop polymers in a small region with weights γ^{−|ξ|}.
// The truncated Equation 2 must converge to ln Ξ computed by exhaustive
// compatible-subset enumeration.
TEST(ClusterSeries, ConvergesToExactXiForLoopModel) {
  const auto region_nodes = lattice::hexagon(1);
  const std::vector<Edge> region = edges_within(region_nodes);
  const std::vector<Polymer> loops = loops_in_region(region, 6);
  ASSERT_GE(loops.size(), 7u);  // 6 triangles + hexagon

  const double gamma = 8.0;
  std::vector<double> weights;
  for (const Polymer& loop : loops) {
    weights.push_back(std::pow(gamma, -static_cast<double>(loop.size())));
  }
  const auto incompatible = [](const Polymer& a, const Polymer& b) {
    return share_edge(a, b);
  };

  const double exact = std::log(exact_xi(loops, weights, incompatible));
  const auto partial =
      cluster_expansion_partial_sums(loops, weights, incompatible, 4);

  EXPECT_NEAR(partial[0], exact, 5e-3);   // first order: Σw
  EXPECT_NEAR(partial[1], exact, 5e-4);
  EXPECT_NEAR(partial[3], exact, 5e-6);
  // Errors shrink monotonically.
  EXPECT_LT(std::abs(partial[3] - exact), std::abs(partial[0] - exact));
}

TEST(ClusterSeries, ValidatesArguments) {
  const Polymer p{Edge::make({0, 0}, {1, 0})};
  const std::vector<Polymer> polymers{p};
  const std::vector<double> bad_weights{0.1, 0.2};
  const auto never = [](const Polymer&, const Polymer&) { return false; };
  EXPECT_THROW(
      cluster_expansion_partial_sums(polymers, bad_weights, never, 2),
      std::invalid_argument);
  const std::vector<double> weights{0.1};
  EXPECT_THROW(cluster_expansion_partial_sums(polymers, weights, never, 0),
               std::invalid_argument);
  EXPECT_THROW(cluster_expansion_partial_sums(polymers, weights, never, 7),
               std::invalid_argument);
}

}  // namespace
}  // namespace sops::polymer
