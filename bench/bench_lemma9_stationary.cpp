// E7 — Lemma 9: the stationary distribution of M is
// π(σ) ∝ (λγ)^{−p(σ)} · γ^{−h(σ)}. Verified three ways on the full
// 2+2-particle state space: (a) detailed balance and stationarity of the
// explicit transition matrix to machine precision, (b) ergodicity, and
// (c) total-variation convergence of the live simulator's empirical
// visit frequencies to the exact π.
//
// A `single` harness: one serial verification pass, not a task grid.

#include <iostream>
#include <map>

#include "src/core/markov_chain.hpp"
#include "src/exact/chain_matrix.hpp"
#include "src/harness/harness.hpp"
#include "src/util/csv.hpp"
#include "src/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  harness::Spec spec;
  spec.name = "bench_lemma9_stationary";
  spec.experiment = "E7";
  spec.paper_artifact = "Lemma 9 (stationary distribution of M)";
  spec.claim =
      "π(σ) = (λγ)^{−p(σ)} γ^{−h(σ)} / Z over connected hole-free "
      "configurations; verified by detailed balance (Appendix A.2)";

  spec.single = [](const harness::Options& opt) {
    const core::Params params{3.0, 2.0, true};
    const exact::ChainMatrix matrix({2, 2}, params);
    std::printf("state space: %zu colored configurations of 2+2 particles\n",
                matrix.num_states());
    std::printf("max row-sum error:            %.3e\n",
                matrix.max_row_sum_error());
    std::printf("max detailed-balance gap:     %.3e\n",
                matrix.max_detailed_balance_violation());
    std::printf("max stationarity gap (πM−π):  %.3e\n",
                matrix.max_stationarity_violation());
    std::printf("irreducible: %s   aperiodic: %s\n\n",
                matrix.irreducible() ? "yes" : "NO",
                matrix.aperiodic() ? "yes" : "NO");

    // Empirical convergence of the real simulator.
    const auto exact_pi = matrix.lemma9_distribution_by_key();
    const exact::State& start = matrix.states()[0];
    core::SeparationChain chain(
        system::ParticleSystem(start.nodes, start.colors), params, opt.seed);
    chain.run(50000);  // burn-in

    util::Table table({"samples", "TV(empirical, exact)"});
    std::map<std::string, std::size_t> visits;
    std::size_t taken = 0;
    const std::size_t target = opt.full ? 20000000 : 3000000;
    for (std::size_t next = 30000; next <= target; next *= 10) {
      while (taken < next) {
        chain.run(1);
        ++visits[exact::state_of(chain.system()).key()];
        ++taken;
      }
      table.row()
          .add(taken)
          .add(util::total_variation(util::normalize(visits), exact_pi), 5);
    }
    table.write_pretty(std::cout);
    std::printf(
        "\nexpected shape: TV distance decays toward 0 as samples grow — "
        "the live simulator converges to exactly the Lemma 9 "
        "distribution.\n");
    return 0;
  };
  return harness::run(spec, argc, argv);
}
