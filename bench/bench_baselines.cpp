// E11 — reference models: the PODC'16 compression chain (M at γ = 1),
// the Ising model under the γ ↔ K dictionary, and the Schelling
// segregation model. These ground the paper's Section 1 positioning.
//
// Part (a) — the λ-sweep of the compression chain — is an ensemble grid:
// the five λ-rows fan out over --threads N and shard across hosts
// (--shard/--shard-out, then --merge or --merge-dir), with the
// equilibrium series travelling on the wire. Parts (b) and (c) are
// cheap deterministic single-thread runs that execute inside the report
// step, so workers skip them and the merged report recomputes them
// locally — byte-identical either way.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/markov_chain.hpp"
#include "src/harness/harness.hpp"
#include "src/ising/ising.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/registry.hpp"
#include "src/model/separation.hpp"
#include "src/util/csv.hpp"
#include "src/util/stats.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  harness::Spec spec;
  spec.name = "bench_baselines";
  spec.experiment = "E11";
  spec.paper_artifact = "baselines (PODC'16 compression, Ising, Schelling)";
  spec.claim =
      "compression occurs for λ > 2+√2 ≈ 3.42 and fails for "
      "λ < 2.17 [PODC'16]; Ising orders above K_c = ln(3)/4; "
      "Schelling segregates at mild tolerance";

  spec.sweep = [](const harness::Options& opt) {
    engine::GridSpec grid;
    grid.lambdas = {1.5, 2.0, 3.0, 4.0, 6.0};
    grid.gammas = {1.0};  // the PODC'16 chain M: no color bias
    grid.base_seed = opt.seed;
    grid.derive_seeds = false;  // every λ-row reruns from the same seed
    const std::size_t samples = opt.full ? 300 : 120;

    harness::Sweep sw;
    sw.job.grid = grid;
    sw.job.tasks = engine::grid_tasks(grid);
    sw.job.samples = samples;
    sw.job.params = {"model=compression-line-100",
                     "iters=" + std::to_string(opt.scaled(4000000))};

    sw.fn = [samples, opt](const engine::Task& t) {
      const auto sep = model::make_separation(core::make_compression_chain(
          lattice::line(100), t.lambda, t.seed));
      sep->run(opt.scaled(4000000));
      return model::sample_equilibrium(*sep, 0, 20000, samples);
    };

    sw.report = [](const harness::Options& opt,
                   std::span<const engine::TaskResult> results) {
      // (a) Compression chain: equilibrium p/p_min across λ.
      {
        util::Table table({"lambda", "regime [PODC'16]", "mean p/p_min",
                           "sem"});
        const std::vector<const char*> regimes{
            "proven expanded (λ < 2.17)",
            "proven expanded (λ < 2.17)",
            "gap (no proof either way)",
            "proven compressed (λ > 3.42)",
            "proven compressed (λ > 3.42)",
        };
        for (const auto& r : results) {
          util::Accumulator ratio;
          for (const auto& m : r.series) ratio.add(m.perimeter_ratio);
          table.row()
              .add(r.task.lambda, 3)
              .add(regimes[r.task.lambda_index])
              .add(ratio.mean(), 4)
              .add(ratio.sem(), 3);
        }
        table.write_pretty(std::cout);
        std::printf("\n");
      }

      // (b) Ising magnetization across the γ ↔ K dictionary, driven
      // through the "ising" registry factory (K = ln(γ)/2 comes from
      // the task's γ coordinate). The equilibrium protocol restates the
      // original sweep counts in single-spin steps — 169 spins per
      // hexagon(7) sweep — so the RNG stream, and the report bytes, are
      // unchanged.
      {
        util::Table table(
            {"gamma", "K = ln(gamma)/2", "phase vs K_c", "mean |m|", "sem"});
        const std::vector<std::string> params{"radius=7"};
        const std::uint64_t spins = 169;  // hexagon(7)
        for (const double gamma : {81.0 / 79.0, 1.5, std::exp(2 * 0.2747),
                                   2.5, 4.0}) {
          const double coupling = std::log(gamma) / 2.0;
          const auto m = model::build_from_spec(
              "ising", params, model::TaskPoint{0, 0, 0.0, gamma, opt.seed});
          const auto series = model::sample_equilibrium(
              *m, (opt.scaled(3000, 3) + 5) * spins, 5 * spins, 200);
          util::Accumulator mag;
          for (const auto& sample : series) mag.add(sample.perimeter_ratio);
          table.row()
              .add(gamma, 4)
              .add(coupling, 4)
              .add(coupling > ising::IsingModel::critical_coupling()
                       ? "ordered"
                       : "disordered")
              .add(mag.mean(), 4)
              .add(mag.sem(), 3);
        }
        table.write_pretty(std::cout);
        std::printf("\n");
      }

      // (c) Schelling segregation index vs tolerance, through the
      // "schelling" registry factory (tolerance rides the γ coordinate).
      {
        util::Table table({"tolerance", "segregation index", "unhappy frac"});
        const std::vector<std::string> params{"radius=9", "vacancy=0.15"};
        for (const double tolerance : {0.0, 0.2, 0.35, 0.5, 0.65}) {
          const auto m = model::build_from_spec(
              "schelling", params,
              model::TaskPoint{0, 0, 0.0, tolerance, opt.seed});
          const auto series =
              model::sample_equilibrium(*m, opt.scaled(400000, 3), 0, 1);
          table.row()
              .add(tolerance, 3)
              .add(series.back().perimeter_ratio, 4)
              .add(series.back().hetero_fraction, 4);
        }
        table.write_pretty(std::cout);
      }

      std::printf(
          "\nexpected shape: compression ratio falls sharply across λ ≈ 2-4; "
          "Ising |m| jumps across K_c; Schelling segregation rises with "
          "tolerance — the three reference behaviors the paper unifies.\n");
      return 0;
    };
    return sw;
  };
  return harness::run(spec, argc, argv);
}
