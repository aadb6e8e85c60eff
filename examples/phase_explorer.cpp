// Phase explorer: sweep (λ, γ) and print the four-phase grid of
// Figure 3 — compressed/expanded × separated/integrated — from the same
// initial configuration. The cells run in parallel on the ensemble
// engine; the printed grid is bit-identical for every --threads value.
//
// Usage: phase_explorer [--n 100] [--iters 3000000] [--seed 2]
//                       [--lambdas 1.1,2,4,6] [--gammas 0.5,1,2,4]
//                       [--threads 0] [--telemetry FILE]

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/engine/ensemble.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/phase.hpp"
#include "src/model/separation.hpp"
#include "src/sops/render.hpp"
#include "src/util/cli.hpp"
#include "src/util/csv.hpp"

namespace {

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("empty list");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sops;

  util::Cli cli;
  cli.add_option("n", "number of particles", "100");
  cli.add_option("iters", "iterations per cell", "3000000");
  cli.add_option("seed", "random seed", "2");
  cli.add_option("lambdas", "comma-separated λ values", "1.1,2,4,6");
  cli.add_option("gammas", "comma-separated γ values", "0.5,1,2,4");
  cli.add_option("threads", "tasks at once (0 = hardware concurrency)", "0");
  cli.add_option("telemetry", "append per-task JSONL records to this file",
                 "");
  cli.add_flag("render", "print the final configuration of each cell");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text(argv[0]);
    return 0;
  }

  std::size_t n = 0;
  std::uint64_t iters = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;
  engine::GridSpec spec;
  try {
    n = static_cast<std::size_t>(cli.integer("n"));
    iters = static_cast<std::uint64_t>(cli.integer("iters"));
    seed = cli.unsigned_integer("seed");
    threads = static_cast<unsigned>(cli.unsigned_integer("threads"));
    spec.lambdas = parse_list(cli.str("lambdas"));
    spec.gammas = parse_list(cli.str("gammas"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    return 1;
  }
  const std::string telemetry = cli.str("telemetry");
  if (!telemetry.empty()) {
    std::FILE* probe = std::fopen(telemetry.c_str(), "a");
    if (probe == nullptr) {
      std::cerr << "cli: cannot open telemetry file '" << telemetry
                << "' for append\n";
      return 1;
    }
    std::fclose(probe);
  }
  const bool render = cli.flag("render");

  spec.base_seed = seed;
  spec.derive_seeds = false;  // Figure 3 protocol: shared start, shared seed
  const auto tasks = engine::grid_tasks(spec);

  // One shared initial configuration, as in Figure 3.
  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(n, rng);
  const auto colors = core::balanced_random_colors(n, 2, rng);

  std::vector<metrics::Phase> phases(tasks.size());
  std::vector<std::string> renders(render ? tasks.size() : 0);
  engine::ChainJob job;
  job.make_model = [&](const engine::Task& t) {
    return model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true}, seed));
  };
  job.checkpoints = {iters};
  job.on_sample = [&](const engine::Task& t, const model::ChainModel& m) {
    const core::SeparationChain& c = model::separation_chain(m);
    phases[t.index] = metrics::classify(c.system());
    if (render) renders[t.index] = system::render_ascii(c.system());
  };

  engine::ThreadPool pool(threads);
  engine::ProgressSink sink(telemetry);
  const auto results = engine::run_chain_ensemble(pool, tasks, job, &sink);

  util::Table table({"lambda", "gamma", "p_ratio", "hetero_frac", "phase"});
  std::cout << "phase codes: CS=compressed-separated CI=compressed-integrated "
               "ES=expanded-separated EI=expanded-integrated\n\n";

  // Grid header.
  std::cout << "        ";
  for (const double g : spec.gammas) std::cout << "γ=" << g << "\t";
  std::cout << "\n";

  for (const auto& r : results) {
    if (r.task.gamma_index == 0) std::cout << "λ=" << r.task.lambda << "\t";
    std::cout << metrics::phase_code(phases[r.task.index]) << "\t";
    table.row()
        .add(r.task.lambda, 3)
        .add(r.task.gamma, 3)
        .add(r.series.back().perimeter_ratio, 4)
        .add(r.series.back().hetero_fraction, 4)
        .add(metrics::phase_name(phases[r.task.index]));
    if (render) std::cout << "\n" << renders[r.task.index] << "\n";
    if (r.task.gamma_index + 1 == spec.gammas.size()) std::cout << "\n";
  }

  std::cout << "\n";
  table.write_pretty(std::cout);
  return 0;
}
