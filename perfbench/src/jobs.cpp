// The job definitions the benchmark runs. The two batch jobs restate
// the sweep factories of bench_fig3_phase_diagram and
// bench_thm13_compression line for line (those live inside the
// harnesses' main()), with only make_model wrapped for observation; the
// fidelity check in batch.cpp proves on every run that they still
// produce the harnesses' wire bytes.

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/engine/seed_stream.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/phase.hpp"
#include "src/model/separation.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

BatchJob fig3_job(std::uint64_t seed, bool full, RunProbe& probe) {
  const std::uint64_t iters = full ? 50000000 : 2000000;

  engine::GridSpec grid;
  grid.lambdas = {1.1, 2.0, 4.0, 6.0};
  grid.gammas = {0.5, 1.0, 2.0, 4.0};
  grid.base_seed = seed;
  grid.derive_seeds = false;  // Figure 3 protocol: one shared start per cell

  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(100, rng);
  const auto colors = core::balanced_random_colors(100, 2, rng);

  BatchJob job;
  job.final_step = [iters](const engine::Task&) { return iters; };
  auto chain = std::make_shared<engine::ChainJob>();
  chain->make_model = observed_factory(
      [nodes, colors](const engine::Task& t) {
        return model::make_separation(
            core::SeparationChain(system::ParticleSystem(nodes, colors),
                                  core::Params{t.lambda, t.gamma, true},
                                  t.seed));
      },
      probe);
  chain->checkpoints = {iters};

  job.spec = shard::grid_job("bench_fig3_phase_diagram", grid, *chain);
  auto phases =
      std::make_shared<std::vector<metrics::Phase>>(job.spec.tasks.size());
  chain->on_sample = [phases](const engine::Task& t,
                              const model::ChainModel& m) {
    const std::int64_t start = now_ns();
    (*phases)[t.index] =
        metrics::classify(model::separation_chain(unwrap(m)).system());
    record_hook(m, start);
  };
  job.aux = [phases](const engine::TaskResult& r) {
    return std::vector<double>{
        static_cast<double>(static_cast<int>((*phases)[r.task.index]))};
  };
  job.chain = chain;
  return job;
}

BatchJob thm13_job(std::uint64_t seed, bool full, RunProbe& probe) {
  const double lambda = 4.0, gamma = 6.0;
  const std::vector<std::size_t> ns{25, 50, 100, 200};
  const std::size_t samples = full ? 500 : 200;
  const std::uint64_t burn_base = full ? 200000 : 20000;  // opt.scaled(20000)

  BatchJob job;
  job.spec.name = "bench_thm13_compression";
  job.spec.grid.lambdas = {lambda};
  job.spec.grid.gammas = {gamma};
  job.spec.grid.base_seed = seed;
  job.spec.grid.derive_seeds = false;  // seeds are seed + n, set per task
  job.spec.samples = samples;
  job.spec.params = {"sweep=n", "ns=25,50,100,200",
                     "burn_base=" + std::to_string(burn_base),
                     "spacing_base=200"};
  job.spec.tasks.resize(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) {
    job.spec.tasks[i].index = i;
    job.spec.tasks[i].lambda = lambda;
    job.spec.tasks[i].gamma = gamma;
    job.spec.tasks[i].seed = seed + ns[i];
  }

  auto chain = std::make_shared<engine::ChainJob>();
  chain->protocol = [ns, samples, burn_base](const engine::Task& t) {
    const std::size_t n = ns[t.index];
    engine::ChainProtocol proto;
    proto.burn_in = burn_base * n;
    proto.interval = 200 * n;
    proto.samples = samples;
    return proto;
  };
  job.final_step = [ns, samples, burn_base](const engine::Task& t) {
    const std::uint64_t n = ns[t.index];
    return burn_base * n + (samples - 1) * 200 * n;
  };
  chain->make_model = observed_factory(
      [ns](const engine::Task& t) {
        const std::size_t n = ns[t.index];
        util::Rng rng(t.seed);
        const auto nodes = lattice::random_blob(n, rng);
        const auto colors = core::balanced_random_colors(n, 2, rng);
        return model::make_separation(
            core::SeparationChain(system::ParticleSystem(nodes, colors),
                                  core::Params{t.lambda, t.gamma, true},
                                  t.seed));
      },
      probe);
  job.spec.model = chain->model;
  job.chain = chain;
  return job;
}

shard::JobSpec service_job(std::uint64_t seed, std::uint64_t index) {
  engine::GridSpec grid;
  grid.lambdas = {2.5};
  grid.gammas = {3.0};
  grid.replicas = 4;
  grid.base_seed = engine::SeedStream(seed).at(index);
  engine::ChainJob protocol;
  protocol.checkpoints = {2000};
  return shard::grid_job("service_sweep", grid, protocol,
                         {"blob=24", "colors=2", "swaps=1"});
}

}  // namespace perfbench
