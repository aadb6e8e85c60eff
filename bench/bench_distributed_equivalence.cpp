// E10 — Section 2.1: the fully local distributed algorithm A achieves
// the same long-run behavior as the centralized chain M, under multiple
// asynchronous activation schedulers. We compare equilibrium means of
// the two gauges and verify the invariants at settled snapshots.
//
// Each executor (centralized M plus three amoebot schedulers) is one
// ensemble task, so the scheduler grid fans out over --threads N with
// bit-identical output for every N; the equilibrium means, sems, and the
// invariant verdict travel as aux scalars, so the sweep also shards
// across hosts (--shard/--shard-out, then --merge or --merge-dir).

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/amoebot/simulator.hpp"
#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/harness/harness.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/separation.hpp"
#include "src/sops/invariants.hpp"
#include "src/util/csv.hpp"
#include "src/util/stats.hpp"

namespace {

constexpr struct {
  sops::amoebot::Scheduler scheduler;
  const char* name;
} kSchedulers[] = {
    {sops::amoebot::Scheduler::kUniformRandom, "amoebot uniform"},
    {sops::amoebot::Scheduler::kRoundRobin, "amoebot round-robin"},
    {sops::amoebot::Scheduler::kRandomPermutation, "amoebot permutation"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sops;
  harness::Spec spec;
  spec.name = "bench_distributed_equivalence";
  spec.experiment = "E10";
  spec.paper_artifact = "Section 2.1 (distributed = centralized)";
  spec.claim =
      "the local asynchronous translation A of M yields the same "
      "emergent behavior under any fair activation schedule";

  spec.sweep = [](const harness::Options& opt) {
    constexpr std::size_t kN = 60;
    const core::Params params{4.0, 4.0, true};
    util::Rng rng(opt.seed);
    const auto nodes = lattice::random_blob(kN, rng);
    const auto colors = core::balanced_random_colors(kN, 2, rng);
    const std::size_t samples = opt.full ? 500 : 200;

    harness::Sweep sw;
    sw.job.grid.lambdas = {4.0};
    sw.job.grid.gammas = {4.0};
    sw.job.grid.base_seed = opt.seed;
    sw.job.grid.derive_seeds = false;  // executor seeds are fixed per task
    sw.job.samples = samples;
    sw.job.params = {
        "n=60", "executors=M,uniform,round-robin,permutation",
        "chain_iters=" + std::to_string(opt.scaled(2000000)),
        "sim_iters=" + std::to_string(opt.scaled(4000000))};
    // Task 0 is the centralized reference; tasks 1..3 the schedulers in
    // kSchedulers order (the table's row order).
    sw.job.tasks.resize(1 + std::size(kSchedulers));
    for (std::size_t i = 0; i < sw.job.tasks.size(); ++i) {
      sw.job.tasks[i].index = i;
      sw.job.tasks[i].replica = i;
      sw.job.tasks[i].lambda = 4.0;
      sw.job.tasks[i].gamma = 4.0;
      sw.job.tasks[i].seed = opt.seed + (i == 0 ? 1 : 2);
    }

    struct Row {
      double p_mean = 0, p_sem = 0, h_mean = 0, h_sem = 0;
      bool invariants_ok = true;
    };
    auto rows = std::make_shared<std::vector<Row>>(sw.job.tasks.size());
    sw.fn = [params, nodes, colors, samples, opt,
             rows](const engine::Task& t) {
      util::Accumulator p_ratio, hetero;
      Row& row = (*rows)[t.index];
      if (t.index == 0) {
        // Centralized reference.
        const auto sep = model::make_separation(core::SeparationChain(
            system::ParticleSystem(nodes, colors), params, t.seed));
        sep->run(opt.scaled(2000000));
        model::sample_equilibrium(*sep, 0, 20000, samples,
                                  [&](const model::ChainModel& c) {
                                    const auto m = c.measure();
                                    p_ratio.add(m.perimeter_ratio);
                                    hetero.add(m.hetero_fraction);
                                  });
      } else {
        amoebot::Simulator sim(amoebot::World(nodes, colors), params, t.seed,
                               kSchedulers[t.index - 1].scheduler);
        sim.run(opt.scaled(4000000));  // ~2 activations per M step
        for (std::size_t s = 0; s < samples; ++s) {
          sim.run(40000);
          sim.settle();
          const system::ParticleSystem snap = sim.world().snapshot();
          p_ratio.add(static_cast<double>(snap.perimeter_by_identity()) /
                      static_cast<double>(system::p_min(kN)));
          hetero.add(static_cast<double>(snap.hetero_edge_count()) /
                     static_cast<double>(snap.edge_count()));
          row.invariants_ok = row.invariants_ok &&
                              system::is_connected(snap) &&
                              !system::has_hole(snap);
        }
      }
      row.p_mean = p_ratio.mean();
      row.p_sem = p_ratio.sem();
      row.h_mean = hetero.mean();
      row.h_sem = hetero.sem();
      return std::vector<core::Measurement>{};
    };
    sw.aux = [rows](const engine::TaskResult& r) {
      const Row& row = (*rows)[r.task.index];
      return std::vector<double>{row.p_mean, row.p_sem, row.h_mean,
                                 row.h_sem, row.invariants_ok ? 1.0 : 0.0};
    };

    sw.report = [](const harness::Options&,
                   std::span<const engine::TaskResult> results) {
      util::Table table({"executor", "mean p/p_min", "sem",
                         "mean hetero_frac", "sem", "invariants"});
      for (const auto& r : results) {
        const char* name = r.task.index == 0
                               ? "centralized M"
                               : kSchedulers[r.task.index - 1].name;
        const char* verdict =
            r.task.index == 0
                ? "n/a"
                : (harness::aux_value(r, 4) != 0.0 ? "held" : "VIOLATED");
        table.row()
            .add(name)
            .add(harness::aux_value(r, 0), 4)
            .add(harness::aux_value(r, 1), 3)
            .add(harness::aux_value(r, 2), 4)
            .add(harness::aux_value(r, 3), 3)
            .add(verdict);
      }
      table.write_pretty(std::cout);
      std::printf(
          "\nexpected shape: all three distributed executions match the "
          "centralized equilibrium means within sampling error, with "
          "connectivity and hole-freeness intact throughout.\n");
      return 0;
    };
    return sw;
  };
  return harness::run(spec, argc, argv);
}
