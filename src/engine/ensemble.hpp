// Declarative ensemble execution: a parameter grid × replicas job spec
// fanned out over the thread pool, with results collected in task order.
//
// Determinism contract (the whole point of this module): a task's output
// depends only on its Task record — seed included — never on which
// worker ran it or when. Results land in a pre-sized vector slot indexed
// by Task::index, and aggregation walks that vector in index order, so
// the same job spec produces byte-identical output at --threads 1, 8, or
// 128. Wall-clock timings are reported only through the ProgressSink
// side channel.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/markov_chain.hpp"
#include "src/core/runner.hpp"
#include "src/engine/progress.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/model/model.hpp"

namespace sops::engine {

/// One unit of ensemble work, fully determined before execution.
struct Task {
  std::size_t index = 0;         ///< dense ordinal; also the result slot
  std::size_t lambda_index = 0;  ///< position in GridSpec::lambdas
  std::size_t gamma_index = 0;   ///< position in GridSpec::gammas
  std::size_t replica = 0;       ///< replica ordinal at this grid cell
  double lambda = 0.0;
  double gamma = 0.0;
  std::uint64_t seed = 0;        ///< RNG seed this task must use
};

/// A λ×γ parameter grid with independent replicas per cell.
struct GridSpec {
  std::vector<double> lambdas{1.0};
  std::vector<double> gammas{1.0};
  std::size_t replicas = 1;
  std::uint64_t base_seed = 1;
  /// true: per-task seeds via seed_stream (replicas differ). false:
  /// every task runs from base_seed verbatim — the paper's "one shared
  /// start per cell" protocol (Figure 3), and what keeps the retrofitted
  /// harnesses byte-compatible with their serial predecessors.
  bool derive_seeds = true;
};

/// Enumerates the grid λ-major (λ, then γ, then replica), assigning
/// dense indices and seeds. The enumeration order fixes the result and
/// aggregation order for good.
[[nodiscard]] std::vector<Task> grid_tasks(const GridSpec& spec);

struct TaskResult {
  Task task;
  std::vector<core::Measurement> series;  ///< checkpoint/sample history
  std::uint64_t steps = 0;                ///< chain iterations executed
  double wall_seconds = 0.0;              ///< telemetry only; not output
  /// Harness-defined derived scalars (e.g. phase codes, certificate
  /// tallies) computed on the worker. Part of the scientific result:
  /// src/shard serializes aux verbatim so a merged run reports exactly
  /// what a single-host run would.
  std::vector<double> aux;
};

/// Arbitrary task body: receives the task, returns its measurement
/// series. Must touch no shared mutable state except slots keyed by
/// Task::index.
using TaskFn = std::function<std::vector<core::Measurement>(const Task&)>;

/// Thrown out of run_ensemble when its cancel token is set: tasks not
/// yet started raise this instead of running, and parallel_for's
/// lowest-index-wins rule propagates it to the caller. Tasks already
/// executing run to completion — cancellation is a between-task
/// lifecycle hook, never a mid-trajectory abort, so a cancelled job
/// leaves no partially-stepped chain anywhere.
class Cancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fans `tasks` out over `pool`, returns results ordered by Task::index.
/// `fn` receives the span's own element, so `&task - tasks.data()` is
/// its result slot. Exceptions propagate per ThreadPool::parallel_for
/// (lowest task index wins). `sink` (optional) receives one telemetry
/// record per task. `cancel` (optional) is polled before each task
/// body: once it reads true, every not-yet-started task throws
/// Cancelled, which propagates after in-flight tasks drain.
std::vector<TaskResult> run_ensemble(ThreadPool& pool,
                                     std::span<const Task> tasks,
                                     const TaskFn& fn,
                                     ProgressSink* sink = nullptr,
                                     const std::atomic<bool>* cancel = nullptr);

/// One task's measurement protocol: checkpoint mode when `checkpoints`
/// is nonempty (run to each absolute iteration, measuring at each),
/// equilibrium mode otherwise (burn in, then `samples` measurements
/// `interval` steps apart).
struct ChainProtocol {
  std::vector<std::uint64_t> checkpoints;
  std::uint64_t burn_in = 0;
  std::uint64_t interval = 0;
  std::size_t samples = 0;
};

/// Declarative trajectory job: which model family it runs, how to build
/// each task's trajectory, and which of the two measurement protocols
/// to walk it through (model::walk).
struct ChainJob {
  /// Registry tag of the model family every task runs ("separation",
  /// "alignment", …). Rides the wire (JobSpec::model) and the snapshot
  /// header, so shards, resumes, and service submissions refuse to mix
  /// model families. Must agree with what make_model builds.
  std::string model = "separation";

  /// Builds the trajectory for one task (typically from t.lambda,
  /// t.gamma, t.seed — or via model::build_from_spec for registry-built
  /// jobs), at step 0: the protocol's targets are absolute. Called on
  /// the worker; must not touch shared mutable state.
  std::function<std::unique_ptr<model::ChainModel>(const Task&)> make_model;

  /// Checkpoint mode (used when non-empty): run to each absolute
  /// iteration, recording a Measurement at each.
  std::vector<std::uint64_t> checkpoints;

  /// Equilibrium mode (used when checkpoints is empty): burn in, then
  /// record `samples` measurements `interval` steps apart.
  std::uint64_t burn_in = 0;
  std::uint64_t interval = 0;
  std::size_t samples = 0;

  /// Optional per-task protocol override for sweeps whose iteration
  /// budget is an axis of the sweep itself (bench_thm13 scales burn-in
  /// and spacing with n). When set, it replaces the four fixed fields
  /// above for every task; the sweep's identity must then ride in
  /// JobSpec::params, since the wire carries only the fixed fields.
  /// Must be a pure function of the Task (workers resolve it
  /// independently).
  std::function<ChainProtocol(const Task&)> protocol;

  /// Optional per-checkpoint/per-sample hook with the live model, for
  /// derived observables (separation certificates, renders, …) —
  /// downcast via model::separation_chain() etc. Runs on the worker:
  /// write only to slots keyed by Task::index.
  std::function<void(const Task&, const model::ChainModel&)> on_sample;
};

/// The protocol `job` prescribes for `task`: the per-task override when
/// set, the fixed fields otherwise.
[[nodiscard]] ChainProtocol resolve_protocol(const ChainJob& job,
                                             const Task& task);

/// That protocol lowered to the absolute targets model::walk runs
/// (never empty). Exposed so the checkpointed runner (src/checkpoint)
/// walks exactly the targets make_task_fn would.
[[nodiscard]] std::vector<model::Target> protocol_targets(const ChainJob& job,
                                                          const Task& task);

/// job.on_sample bound to `task`; empty when the job sets none.
[[nodiscard]] std::function<void(const model::ChainModel&)> sample_hook(
    const ChainJob& job, const Task& task);

/// The TaskFn a ChainJob describes: build the model, walk it through
/// the protocol's targets, fire on_sample at each. The returned
/// closure captures `job` by reference — keep the job alive while it
/// runs. Exposed so sharded harnesses can run a sub-range of tasks
/// through the identical protocol path.
[[nodiscard]] TaskFn make_task_fn(const ChainJob& job);

/// run_ensemble specialized to model-backed runs via src/model drivers.
std::vector<TaskResult> run_chain_ensemble(ThreadPool& pool,
                                           std::span<const Task> tasks,
                                           const ChainJob& job,
                                           ProgressSink* sink = nullptr);

}  // namespace sops::engine
