// Checkpointed ensemble execution: run_ensemble's contract (results
// slot-indexed by Task::index, byte-identical at any thread count) plus
// durable per-task snapshots and resume.
//
// Tasks fan out through engine::run_ensemble. For model-backed tasks
// (ChainJob::make_model) each one walks the same targets make_task_fn
// walks (engine::protocol_targets, model::walk), pausing at multiples of
// `Policy::every` to capture a partial snapshot, which one writer thread
// per run_tasks call makes durable (SnapshotWriter). Segmentation is
// invisible to the trajectory — ChainModel::run consumes no RNG draw
// beyond the steps asked of it — so a run that snapshots every 10k
// steps is byte-identical to one that never pauses, and a resumed run
// is byte-identical to an uninterrupted one. That identity is the
// subsystem's acceptance bar, pinned by tests/checkpoint_test.cpp and
// scripts/check_checkpoint_kill9.sh.
// Resume dispatches through the model registry (snapshot.model tag), so
// the runner itself carries no model-specific code.
//
// fn-backed tasks (no ChainJob) are opaque to the runner, so they
// snapshot only at completion: resume skips finished tasks and reruns
// interrupted ones from scratch. The same completion-only rule applies
// to model jobs with an on_sample hook, whose side-channel state (the
// input to aux packing) lives outside the snapshot and would not replay
// across a mid-task resume.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/checkpoint/snapshot.hpp"
#include "src/engine/ensemble.hpp"
#include "src/shard/harness.hpp"

namespace sops::checkpoint {

/// Where and how often to snapshot, and whether to resume.
struct Policy {
  std::string dir;          ///< snapshot directory (must already exist)
  /// Steps between partial snapshots of a chain-backed task. 0 =
  /// completion-only (tasks snapshot when they finish; resume skips
  /// them but reruns any task that was mid-flight). A background thread
  /// writes the partial snapshots, and one still queued when the task
  /// takes its next is replaced by it.
  std::uint64_t every = 0;
  /// Adopt matching snapshots found in `dir`: complete ones preload the
  /// task's result, partial ones restart the chain mid-trajectory. A
  /// snapshot whose identity does not match the job is an error, never
  /// silently ignored.
  bool resume = false;
};

/// A snapshot that cannot be resumed under this job: wrong job name,
/// spec hash, task identity, or internally inconsistent state. The
/// message names the offending field and the snapshot path.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How the tasks of one run were satisfied and how their snapshots
/// fared (reported to stderr so stdout report bytes stay identical to
/// an uncheckpointed run). A fresh run takes one snapshot per pause and
/// one per task, and each is either written or superseded.
struct RunStats {
  std::size_t skipped = 0;  ///< complete snapshot adopted, task not run
  std::size_t resumed = 0;  ///< partial snapshot continued mid-trajectory
  std::size_t fresh = 0;    ///< ran from the start
  std::size_t written = 0;  ///< durable writes, completion snapshots included
  /// Partial snapshots replaced, or dropped by the task's completion
  /// snapshot, before their write began.
  std::size_t superseded = 0;
};

/// Drop-in for engine::run_ensemble with snapshot/resume around each
/// task. `job` provides the snapshot identity (name + spec hash);
/// `chain` enables mid-task snapshots when non-null (pass the ChainJob
/// behind `fn`), else `fn` runs opaque with completion-only snapshots.
/// `aux` is applied to each completed task's result before its
/// completion snapshot is written, so adopted results carry aux verbatim.
/// Throws CheckpointError/SnapshotError on unusable snapshots and
/// std::runtime_error on snapshot I/O failure (a failed background write
/// surfaces through the task that posted it). `stats` (optional)
/// receives the skip/resume/fresh and written/superseded tallies.
std::vector<engine::TaskResult> run_tasks(
    engine::ThreadPool& pool, std::span<const engine::Task> tasks,
    const shard::JobSpec& job, const engine::ChainJob* chain,
    const engine::TaskFn& fn, const Policy& policy,
    engine::ProgressSink* sink = nullptr, const shard::AuxFn& aux = {},
    RunStats* stats = nullptr);

}  // namespace sops::checkpoint
