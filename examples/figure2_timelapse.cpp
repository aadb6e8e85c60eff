// Figure 2 as images: snapshots of a 100-particle run at λ = γ = 4,
// rendered to PPM files at the paper's checkpoint iterations (scaled by
// default; --full runs the paper's 68.25M iterations).
//
// Usage: figure2_timelapse [--outdir .] [--full] [--seed 5]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/lattice/shapes.hpp"
#include "src/model/separation.hpp"
#include "src/sops/render.hpp"
#include "src/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace sops;

  util::Cli cli;
  cli.add_option("outdir", "directory for PPM snapshots", ".");
  cli.add_option("seed", "random seed", "5");
  cli.add_flag("full", "use the paper's full iteration counts (68.25M)");
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

  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const std::string outdir = cli.str("outdir");

  // Figure 2's checkpoints; scaled 1:10 by default.
  std::vector<std::uint64_t> checkpoints{0, 50000, 1050000, 17050000,
                                         68250000};
  if (!cli.flag("full")) {
    for (auto& c : checkpoints) c /= 10;
  }

  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(100, rng);
  const auto colors = core::balanced_random_colors(100, 2, rng);
  const auto sep = model::make_separation(
      core::SeparationChain(system::ParticleSystem(nodes, colors),
                            core::Params{4.0, 4.0, true}, seed));

  const auto history = model::run_with_checkpoints(
      *sep, checkpoints,
      [&](const model::ChainModel& m, std::uint64_t iteration) {
        const std::string path =
            outdir + "/fig2_" + std::to_string(iteration) + ".ppm";
        system::render_image(model::separation_chain(m).system())
            .save_ppm(path);
        std::printf("wrote %s\n", path.c_str());
      });

  std::printf("\n%12s %10s %12s\n", "iteration", "p/p_min", "hetero_frac");
  for (const auto& m : history) {
    std::printf("%12llu %10.3f %12.3f\n",
                static_cast<unsigned long long>(m.iteration),
                m.perimeter_ratio, m.hetero_fraction);
  }
  return 0;
}
