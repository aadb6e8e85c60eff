#include "src/exact/exact_observables.hpp"

#include <gtest/gtest.h>

#include "src/core/runner.hpp"
#include "src/util/stats.hpp"

namespace sops::exact {
namespace {

using core::Params;

TEST(ExactObservables, GammaMonotonicity) {
  // Exact: E[h] decreases and P[separated] increases with γ.
  double prev_h = 1e18;
  double prev_sep = -1.0;
  for (const double gamma : {1.0, 2.0, 4.0, 8.0}) {
    const auto obs = compute_exact_observables(
        {2, 2}, Params{4.0, gamma, true}, 3.0, 0.2, 1.8);
    EXPECT_LT(obs.mean_hetero_edges, prev_h) << gamma;
    EXPECT_GE(obs.prob_separated, prev_sep - 1e-12) << gamma;
    prev_h = obs.mean_hetero_edges;
    prev_sep = obs.prob_separated;
  }
}

TEST(ExactObservables, LambdaMonotonicity) {
  double prev_p = 1e18;
  for (const double lambda : {1.0, 2.0, 4.0, 8.0}) {
    const auto obs = compute_exact_observables(
        {2, 2}, Params{lambda, 1.0, true}, 3.0, 0.2, 1.8);
    EXPECT_LT(obs.mean_perimeter, prev_p) << lambda;
    prev_p = obs.mean_perimeter;
  }
}

TEST(ExactObservables, ProbabilitiesAreProbabilities) {
  const auto obs = compute_exact_observables({2, 2}, Params{3.0, 2.0, true},
                                             3.0, 0.2, 1.8);
  EXPECT_GE(obs.prob_separated, 0.0);
  EXPECT_LE(obs.prob_separated, 1.0);
  EXPECT_GE(obs.prob_alpha_compressed, 0.0);
  EXPECT_LE(obs.prob_alpha_compressed, 1.0);
  EXPECT_GE(obs.mean_hetero_fraction, 0.0);
  EXPECT_LE(obs.mean_hetero_fraction, 1.0);
}

// Exact expectations must agree with long-run simulator averages — a
// second, independent confirmation of Lemma 9 beyond the TV test.
TEST(ExactObservables, MatchesSimulatorTimeAverages) {
  const Params params{3.0, 2.0, true};
  const auto obs =
      compute_exact_observables({2, 2}, params, 3.0, 0.2, 1.8);

  const auto states = enumerate_states({2, 2});
  core::SeparationChain chain(
      system::ParticleSystem(states[0].nodes, states[0].colors), params, 55);
  chain.run(50000);
  util::Accumulator p_acc, h_acc;
  for (int s = 0; s < 1500000; ++s) {
    chain.run(1);
    if (s % 10 == 0) {
      const auto m = core::measure(chain);
      p_acc.add(static_cast<double>(m.perimeter));
      h_acc.add(static_cast<double>(m.hetero_edges));
    }
  }
  EXPECT_NEAR(p_acc.mean(), obs.mean_perimeter, 0.02);
  EXPECT_NEAR(h_acc.mean(), obs.mean_hetero_edges, 0.02);
}

}  // namespace
}  // namespace sops::exact
