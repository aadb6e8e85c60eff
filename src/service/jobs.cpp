#include "src/service/jobs.hpp"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/phase.hpp"
#include "src/model/registry.hpp"
#include "src/model/separation.hpp"
#include "src/service/protocol.hpp"
#include "src/util/record.hpp"
#include "src/util/rng.hpp"

namespace sops::service {

namespace {

[[noreturn]] void bad(const shard::JobSpec& job, const std::string& field,
                      const std::string& detail) {
  throw JobError(kRefusedBadJob,
                 "service: job '" + job.name + "': " + field + ": " + detail);
}

/// Mirrors an engine::Task into the engine-free coordinates a model
/// factory builds from.
model::TaskPoint point_of(const engine::Task& t) {
  return model::TaskPoint{t.index, t.replica, t.lambda, t.gamma, t.seed};
}

/// Separation-only recipes refuse jobs whose wire spec names another
/// model: the recipe's initial configuration and metrics are specific
/// to the separation chain.
void require_separation(const shard::JobSpec& job) {
  if (job.model != "separation") {
    bad(job, "model",
        "recipe runs the separation chain, got '" + job.model + "'");
  }
}

std::uint64_t parse_u64_field(const shard::JobSpec& job,
                              const std::string& field,
                              std::string_view token) {
  const std::optional<std::uint64_t> value = util::record::parse_u64(token);
  if (!value) {
    bad(job, field,
        "expected unsigned integer, got '" + std::string(token) + "'");
  }
  return *value;
}

/// Finds the "key=value" param and returns its value. Every recipe
/// reads its identity out of the params the matching harness writes, so
/// a missing key is a refused submission, not a default.
std::string param_value(const shard::JobSpec& job, const std::string& key) {
  for (const std::string& p : job.params) {
    if (p.size() > key.size() + 1 && p.compare(0, key.size(), key) == 0 &&
        p[key.size()] == '=') {
      return p.substr(key.size() + 1);
    }
  }
  bad(job, "params", "missing required '" + key + "=' entry");
}

std::vector<std::uint64_t> parse_u64_csv(const shard::JobSpec& job,
                                         const std::string& field,
                                         const std::string& csv) {
  std::vector<std::uint64_t> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? comma : comma - start);
    values.push_back(parse_u64_field(job, field, item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

/// E2 recipe: the inverse of bench_fig3_phase_diagram's sweep factory.
/// One shared 100-particle two-color start built from grid.base_seed,
/// checkpoint protocol, phase code packed as aux[0].
JobProgram build_fig3(const shard::JobSpec& job) {
  require_separation(job);
  if (job.checkpoints.empty()) {
    bad(job, "proto.checkpoints",
        "checkpoint protocol required (the Figure 3 sweep records at "
        "absolute iterations)");
  }
  struct State {
    engine::ChainJob chain;
    std::vector<metrics::Phase> phases;
  };
  auto state = std::make_shared<State>();
  state->phases.resize(job.tasks.size());

  util::Rng rng(job.grid.base_seed);
  const auto nodes = lattice::random_blob(100, rng);
  const auto colors = core::balanced_random_colors(100, 2, rng);
  state->chain.make_model = [nodes, colors](const engine::Task& t) {
    return model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true},
                              t.seed));
  };
  state->chain.checkpoints = job.checkpoints;
  State* raw = state.get();
  state->chain.on_sample = [raw](const engine::Task& t,
                                 const model::ChainModel& m) {
    raw->phases[t.index] = metrics::classify(model::separation_chain(m).system());
  };

  JobProgram program;
  program.fn = engine::make_task_fn(state->chain);
  program.aux = [state](const engine::TaskResult& r) {
    return std::vector<double>{
        static_cast<double>(static_cast<int>(state->phases[r.task.index]))};
  };
  program.keepalive = state;
  return program;
}

/// E3 recipe: the inverse of bench_thm13_compression's sweep factory.
/// The n-sweep identity rides in params (sweep=n, ns=…, burn_base=…,
/// spacing_base=…); each task equilibrium-samples an n-particle system.
JobProgram build_thm13(const shard::JobSpec& job) {
  require_separation(job);
  if (param_value(job, "sweep") != "n") {
    bad(job, "params", "expected 'sweep=n', got 'sweep=" +
                           param_value(job, "sweep") + "'");
  }
  const std::vector<std::uint64_t> ns =
      parse_u64_csv(job, "params: ns", param_value(job, "ns"));
  if (ns.size() != job.tasks.size()) {
    bad(job, "params: ns",
        "lists " + std::to_string(ns.size()) + " sizes for " +
            std::to_string(job.tasks.size()) + " tasks");
  }
  for (const std::uint64_t n : ns) {
    if (n == 0 || n > 100000) {
      bad(job, "params: ns", "n=" + std::to_string(n) +
                                 " outside the supported range [1, 100000]");
    }
  }
  const std::uint64_t burn_base =
      parse_u64_field(job, "params: burn_base", param_value(job, "burn_base"));
  const std::uint64_t spacing_base = parse_u64_field(
      job, "params: spacing_base", param_value(job, "spacing_base"));
  if (job.samples == 0) {
    bad(job, "proto.samples", "equilibrium protocol requires samples > 0");
  }
  const std::size_t samples = static_cast<std::size_t>(job.samples);

  JobProgram program;
  program.fn = [ns, burn_base, spacing_base, samples](const engine::Task& t) {
    const std::size_t n = static_cast<std::size_t>(ns[t.index]);
    util::Rng rng(t.seed);
    const auto nodes = lattice::random_blob(n, rng);
    const auto colors = core::balanced_random_colors(n, 2, rng);
    auto chain = model::make_separation(
        core::SeparationChain(system::ParticleSystem(nodes, colors),
                              core::Params{t.lambda, t.gamma, true},
                              t.seed));
    return model::sample_equilibrium(*chain, burn_base * n, spacing_base * n,
                                     samples);
  };
  return program;
}

/// Generic registry-backed job for load generation, ad-hoc sweeps, and
/// any model family's phase-diagram harness: the wire spec's model tag
/// picks the factory, the factory interprets the params, and every task
/// builds its own system from its seed and runs the job's protocol
/// verbatim. A tag nobody registered is a named synchronous refusal
/// (kRefusedUnknownModel); bad params are kRefusedBadJob with the
/// factory's own field-naming message.
JobProgram build_registry_sweep(const shard::JobSpec& job) {
  const model::Factory* factory = model::find_model(job.model);
  if (factory == nullptr) {
    std::string names;
    for (const std::string& n : model::registered_models()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    throw JobError(kRefusedUnknownModel,
                   "service: job '" + job.name + "': model '" + job.model +
                       "' not registered (registered: " + names + ")");
  }
  // Validate the params eagerly against the first task so a bad
  // submission is refused at submit time, not failed mid-run.
  try {
    (void)factory->build(job.params, point_of(job.tasks.front()));
  } catch (const model::ModelError& e) {
    throw JobError(kRefusedBadJob,
                   "service: job '" + job.name + "': " + e.what());
  }
  if (job.checkpoints.empty() && job.samples == 0) {
    bad(job, "proto",
        "job sets neither checkpoints nor equilibrium samples; nothing to "
        "run");
  }

  auto chain = std::make_shared<engine::ChainJob>();
  chain->model = job.model;
  chain->make_model = [factory, params = job.params](const engine::Task& t) {
    return factory->build(params, point_of(t));
  };
  chain->checkpoints = job.checkpoints;
  chain->burn_in = job.burn_in;
  chain->interval = job.interval;
  chain->samples = static_cast<std::size_t>(job.samples);

  JobProgram program;
  program.fn = engine::make_task_fn(*chain);
  program.keepalive = chain;
  return program;
}

}  // namespace

JobProgram build_program(const shard::JobSpec& job) {
  if (job.tasks.empty()) {
    throw JobError(kRefusedBadJob,
                   "service: job '" + job.name + "': tasks: table is empty");
  }
  if (job.name == "bench_alignment_phase_diagram")
    return build_registry_sweep(job);
  if (job.name == "bench_fig3_phase_diagram") return build_fig3(job);
  if (job.name == "bench_thm13_compression") return build_thm13(job);
  if (job.name == "service_sweep") return build_registry_sweep(job);
  std::string names;
  for (const std::string& n : registered_jobs()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  throw JobError(kRefusedUnknownJob, "service: job name '" + job.name +
                                         "' not registered (registered: " +
                                         names + ")");
}

std::vector<std::string> registered_jobs() {
  return {"bench_alignment_phase_diagram", "bench_fig3_phase_diagram",
          "bench_thm13_compression", "service_sweep"};
}

}  // namespace sops::service
