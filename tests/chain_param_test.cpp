// Parameterized sweep: the chain's structural invariants must hold for
// every combination of bias parameters, swap setting, and initial shape
// — including extreme and adversarial corners of the parameter space.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/lattice/shapes.hpp"
#include "src/sops/invariants.hpp"

namespace sops::core {
namespace {

using lattice::Node;
using system::ParticleSystem;

enum class StartShape { kLine, kBlob, kDumbbell, kHexagon };

std::vector<Node> make_shape(StartShape shape, std::size_t n,
                             util::Rng& rng) {
  switch (shape) {
    case StartShape::kLine: return lattice::line(n);
    case StartShape::kBlob: return lattice::random_blob(n, rng);
    case StartShape::kDumbbell: return lattice::dumbbell(n / 2, n - n / 2 - 2, 2);
    case StartShape::kHexagon: return lattice::compact_blob(n);
  }
  return {};
}

const char* shape_name(StartShape s) {
  switch (s) {
    case StartShape::kLine: return "line";
    case StartShape::kBlob: return "blob";
    case StartShape::kDumbbell: return "dumbbell";
    case StartShape::kHexagon: return "hexagon";
  }
  return "unknown";
}

using Param = std::tuple<double, double, bool, StartShape>;

class ChainInvariantSweep : public testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainInvariantSweep,
    testing::Combine(testing::Values(0.5, 1.0, 4.0, 10.0),   // lambda
                     testing::Values(0.25, 1.0, 4.0, 12.0),  // gamma
                     testing::Bool(),                        // swaps
                     testing::Values(StartShape::kLine, StartShape::kBlob,
                                     StartShape::kDumbbell)),
    [](const testing::TestParamInfo<Param>& info) {
      const double lambda = std::get<0>(info.param);
      const double gamma = std::get<1>(info.param);
      const bool swaps = std::get<2>(info.param);
      const StartShape shape = std::get<3>(info.param);
      std::string name = "l";
      name += std::to_string(static_cast<int>(lambda * 4));
      name += "_g";
      name += std::to_string(static_cast<int>(gamma * 4));
      name += swaps ? "_swaps_" : "_noswaps_";
      name += shape_name(shape);
      return name;
    });

TEST_P(ChainInvariantSweep, ConnectedHoleFreeAndConsistent) {
  const auto& [lambda, gamma, swaps, shape] = GetParam();
  constexpr std::size_t kN = 26;
  util::Rng rng(20240704);
  const auto nodes = make_shape(shape, kN, rng);
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  SeparationChain chain(ParticleSystem(nodes, colors),
                        Params{lambda, gamma, swaps}, 90210);
  chain.run(60000);

  const auto& sys = chain.system();
  EXPECT_TRUE(system::is_connected(sys));
  EXPECT_FALSE(system::has_hole(sys));
  // Incremental counts consistent with a recount and with the walk.
  ParticleSystem copy = sys;
  const std::int64_t e = copy.edge_count();
  const std::int64_t h = copy.hetero_edge_count();
  copy.recount_edges();
  EXPECT_EQ(copy.edge_count(), e);
  EXPECT_EQ(copy.hetero_edge_count(), h);
  EXPECT_EQ(system::perimeter_walk(sys), sys.perimeter_by_identity());
  // Colors are conserved.
  const auto hist = sys.color_histogram();
  std::size_t total = 0;
  for (const auto c : hist) total += c;
  EXPECT_EQ(total, sys.size());
}

TEST(SingleParticle, NeverMoves) {
  // n = 1: no common neighbors, no side-arc occupancy — both properties
  // fail for every direction, so the lone particle is frozen.
  const std::vector<Node> one{{3, -2}};
  SeparationChain chain(ParticleSystem(one), Params{4.0, 4.0, true}, 1);
  chain.run(10000);
  EXPECT_EQ(chain.system().position(0), (Node{3, -2}));
  EXPECT_EQ(chain.counters().moves_accepted, 0u);
}

TEST(TwoParticles, StayAdjacentForever) {
  const std::vector<Node> two{{0, 0}, {1, 0}};
  SeparationChain chain(ParticleSystem(two, std::vector<system::Color>{0, 1}),
                        Params{1.0, 1.0, true}, 2);
  for (int block = 0; block < 50; ++block) {
    chain.run(1000);
    ASSERT_TRUE(lattice::adjacent(chain.system().position(0),
                                  chain.system().position(1)));
  }
  // And they do move (pivoting around each other).
  EXPECT_GT(chain.counters().moves_accepted, 100u);
}

}  // namespace
}  // namespace sops::core
