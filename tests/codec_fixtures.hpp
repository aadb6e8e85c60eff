// Fixed inputs for the text codecs (shard wire, checkpoint snapshot,
// model state blocks, service frames), shared by the unit tests, the
// pinned-bytes test and the mutation fuzz test. Every fixture is a pure
// function of the constants below, so its encoding is stable bytes.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/checkpoint/snapshot.hpp"
#include "src/model/builtin.hpp"
#include "src/model/registry.hpp"
#include "src/model/separation.hpp"
#include "src/service/protocol.hpp"
#include "src/shard/wire.hpp"

namespace sops::fixtures {

/// A job whose header exercises every wire field: a non-default model
/// tag, two axes, derived seeds, a checkpoint list and free params.
inline shard::JobSpec tricky_job() {
  shard::JobSpec job;
  job.name = "shard_test_job";
  job.model = "alignment";  // non-default tag must survive the wire
  job.grid.lambdas = {1.5, 4.0};
  job.grid.gammas = {0.5};
  job.grid.replicas = 2;
  job.grid.base_seed = 42;
  job.grid.derive_seeds = true;
  job.checkpoints = {0, 10000};
  job.params = {"n=30", "alpha=3"};
  job.tasks = engine::grid_tasks(job.grid);
  return job;
}

/// Two results for tricky_job(): one with adversarial doubles in every
/// float slot, one empty.
inline std::vector<engine::TaskResult> tricky_results(
    const shard::JobSpec& job) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<engine::TaskResult> results;

  engine::TaskResult a;
  a.task = job.tasks[0];
  a.steps = 10000;
  core::Measurement m;
  m.iteration = 10000;
  m.perimeter = -3;  // signed fields stay signed on the wire
  m.edges = 77;
  m.hetero_edges = 0;
  m.perimeter_ratio = kNan;
  m.hetero_fraction = -kInf;
  a.series = {m};
  a.aux = {kNan, kInf, -0.0, 5e-324 /* smallest denormal */, -1.0 / 3.0};
  a.wall_seconds = 123.0;  // telemetry: must NOT survive the wire
  results.push_back(a);

  engine::TaskResult b;  // empty series, no aux
  b.task = job.tasks[2];
  b.steps = 0;
  results.push_back(b);
  return results;
}

/// A partial separation snapshot: three particles, RNG words with
/// all-ones and small values, every counter nonzero, a signed-zero
/// measurement and a γ whose hexfloat uses every mantissa digit.
inline checkpoint::Snapshot sample_snapshot() {
  checkpoint::Snapshot snap;
  snap.job = "ckpt_test";
  snap.model = "separation";
  snap.spec_hash = 0xdeadbeefcafef00dULL;
  snap.task_index = 3;
  snap.task_seed = 991;
  snap.complete = false;
  core::Measurement m;
  m.iteration = 1000;
  m.perimeter = 18;
  m.edges = 33;
  m.hetero_edges = 7;
  m.perimeter_ratio = 1.125;
  m.hetero_fraction = -0.0;  // signed zero must survive
  snap.series = {m};
  core::SeparationChain::Counters counters;
  counters.steps = 1234;
  counters.move_proposals = 600;
  counters.moves_accepted = 271;
  counters.rejected_five = 31;
  counters.rejected_locality = 12;
  counters.rejected_metropolis = 286;
  counters.swap_proposals = 634;
  counters.swaps_accepted = 100;
  const std::vector<lattice::Node> positions = {{0, 0}, {1, 0}, {-3, 2}};
  const std::vector<system::Color> colors = {0, 1, 1};
  core::SeparationChain chain(system::ParticleSystem(positions, colors),
                              core::Params{4.0, 0x1.5555555555555p-2, true},
                              1);
  chain.set_rng_state({1, 0xffffffffffffffffULL, 42, 7});
  chain.set_counters(counters);
  snap.state = model::make_separation(std::move(chain))->save_state();
  return snap;
}

/// The built-in model tags, in the order the pinned files list them.
inline const std::vector<std::string>& model_tags() {
  static const std::vector<std::string> tags{"separation", "alignment",
                                             "ising", "schelling"};
  return tags;
}

/// One save_state() block per built-in model: built by its registry
/// factory from a fixed seed, then run a fixed number of steps.
inline std::vector<std::string> model_state(std::string_view tag) {
  model::ensure_builtin_models();
  std::vector<std::string> params;
  double gamma = 2.0;
  if (tag == "separation" || tag == "alignment") {
    params = {"blob=12"};
  } else if (tag == "ising") {
    params = {"radius=2"};
  } else {
    params = {"radius=2", "vacancy=0.2"};
    gamma = 0.5;  // schelling reads its tolerance off γ
  }
  auto m = model::require_model(tag).build(
      params, model::TaskPoint{0, 0, 3.0, gamma, 2024});
  m->run(700);
  return m->save_state();
}

/// One frame of each of the 14 service frame types.
inline std::vector<service::Frame> sample_frames() {
  using service::FrameType;
  return {
      {FrameType::kSubmit, {}, "payload bytes\nwith newline"},
      {FrameType::kStatus, {"j42"}, ""},
      {FrameType::kResult, {"j42"}, ""},
      {FrameType::kCancel, {"j42"}, ""},
      {FrameType::kPing, {}, ""},
      {FrameType::kShutdown, {}, ""},
      {FrameType::kAccepted, {"j42", "3"}, ""},
      {FrameType::kRefused, {"queue-full"}, "queue holds 64 jobs"},
      {FrameType::kStatusOk, {"j42", "running", "2", "16"}, ""},
      {FrameType::kResultOk, {"j42"}, "doc"},
      {FrameType::kCancelOk, {"j42", "cancelled"}, ""},
      {FrameType::kPong, {}, ""},
      {FrameType::kShutdownOk, {}, ""},
      {FrameType::kError, {"magic"}, "detail text"},
  };
}

/// Lines joined with '\n', each terminated: the pinned spelling of a
/// model state block.
inline std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace sops::fixtures
