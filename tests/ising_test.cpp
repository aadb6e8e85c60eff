#include "src/ising/ising.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/lattice/shapes.hpp"
#include "src/polymer/even_sets.hpp"
#include "src/util/stats.hpp"

namespace sops::ising {
namespace {

TEST(IsingBasics, ConstructionAndStructure) {
  const auto region = lattice::hexagon(1);
  IsingModel model(region, 0.3, 1);
  EXPECT_EQ(model.size(), 7u);
  EXPECT_EQ(model.edge_count(), 12u);
  EXPECT_THROW(IsingModel({}, 0.3, 1), std::invalid_argument);
}

TEST(IsingBasics, SetAllAndObservables) {
  const auto region = lattice::hexagon(2);
  IsingModel model(region, 0.3, 2);
  model.set_all(1);
  EXPECT_DOUBLE_EQ(model.magnetization(), 1.0);
  EXPECT_EQ(model.edge_correlation(),
            static_cast<std::int64_t>(model.edge_count()));
  model.set_all(-1);
  EXPECT_DOUBLE_EQ(model.magnetization(), 1.0);  // absolute value
}

// The high-temperature expansion identity, the exact tool of [12] §3.7.3
// the paper builds Theorem 15 on: Z = 2^N (cosh K)^E Ξ^{even}(tanh K).
TEST(IsingExact, HighTemperatureExpansionMatchesDirectSum) {
  for (const double coupling : {0.05, 0.2, 0.5, 1.0, -0.3}) {
    const auto region = lattice::hexagon(1);
    const double direct = IsingModel::log_partition_exact(region, coupling);
    const double ht =
        IsingModel::log_partition_high_temperature(region, coupling);
    EXPECT_NEAR(direct, ht, 1e-10) << "K=" << coupling;
  }
}

TEST(IsingExact, HighTemperatureExpansionOnIrregularRegion) {
  // A non-convex region: a line plus a bump.
  std::vector<lattice::Node> region = lattice::line(6);
  region.push_back(lattice::Node{2, 1});
  region.push_back(lattice::Node{3, 1});
  const double k = 0.35;
  EXPECT_NEAR(IsingModel::log_partition_exact(region, k),
              IsingModel::log_partition_high_temperature(region, k), 1e-10);
}

TEST(IsingExact, ZeroCouplingGivesFreeSpins) {
  const auto region = lattice::hexagon(1);
  EXPECT_NEAR(IsingModel::log_partition_exact(region, 0.0),
              7.0 * std::log(2.0), 1e-12);
}

TEST(IsingExact, RegionSizeGuard) {
  const auto big = lattice::hexagon(3);  // 37 sites
  EXPECT_THROW((void)IsingModel::log_partition_exact(big, 0.3),
               std::invalid_argument);
}

TEST(IsingDynamics, HighCouplingOrdersLowCouplingDisorders) {
  const auto region = lattice::hexagon(5);  // 91 sites
  // Well above K_c: strong magnetization.
  IsingModel hot(region, 0.05, 7);
  IsingModel cold(region, 0.8, 7);
  hot.glauber_sweeps(2000);
  cold.glauber_sweeps(2000);

  util::Accumulator m_hot, m_cold;
  for (int s = 0; s < 200; ++s) {
    hot.glauber_sweeps(5);
    cold.glauber_sweeps(5);
    m_hot.add(hot.magnetization());
    m_cold.add(cold.magnetization());
  }
  EXPECT_GT(m_cold.mean(), 0.9);
  EXPECT_LT(m_hot.mean(), 0.4);
}

TEST(IsingDynamics, CriticalCouplingValue) {
  EXPECT_NEAR(IsingModel::critical_coupling(), 0.27465307, 1e-7);
}

// The γ ↔ K dictionary: tanh(ln(γ)/2) = (γ−1)/(γ+1), so the paper's
// integration window maps exactly to |tanh K| < 1/80.
TEST(IsingMapping, GammaToCouplingDictionary) {
  for (const double gamma : {79.0 / 81.0, 1.0, 81.0 / 79.0, 4.0}) {
    const double k = std::log(gamma) / 2.0;
    EXPECT_NEAR(std::tanh(k), polymer::ht_weight(gamma), 1e-12);
  }
  EXPECT_NEAR(std::tanh(std::log(81.0 / 79.0) / 2.0), 1.0 / 80.0, 1e-12);
}

// The paper's γ = 4 separation regime corresponds to K = ln(4)/2 ≈ 0.69,
// deep in the ordered phase (K_c ≈ 0.27): separation at γ = 4 is the
// particle-system analogue of spontaneous magnetization.
TEST(IsingMapping, SeparationRegimeIsOrderedPhase) {
  EXPECT_GT(std::log(4.0) / 2.0, IsingModel::critical_coupling());
  // And the integration window is far inside the disordered phase.
  EXPECT_LT(std::log(81.0 / 79.0) / 2.0, IsingModel::critical_coupling());
}

TEST(IsingDynamics, DeterministicBySeed) {
  const auto region = lattice::hexagon(3);
  IsingModel a(region, 0.4, 99);
  IsingModel b(region, 0.4, 99);
  a.glauber_steps(10000);
  b.glauber_steps(10000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.spin(i), b.spin(i));
  }
}

}  // namespace
}  // namespace sops::ising
