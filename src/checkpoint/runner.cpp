#include "src/checkpoint/runner.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "src/model/model.hpp"

namespace sops::checkpoint {

namespace {

[[noreturn]] void reject(const std::string& path, const std::string& msg) {
  throw CheckpointError("checkpoint: " + path + ": " + msg);
}

// A snapshot that does not belong to this job's task is refused by
// name. Model identity outranks the spec hash: a snapshot from another
// model family is a category error worth naming, not just a drifted
// spec.
void check_identity(const Snapshot& snap, const std::string& path,
                    const shard::JobSpec& job, std::uint64_t hash,
                    const engine::Task& task) {
  if (snap.job != job.name) {
    reject(path, "job name mismatch (snapshot '" + snap.job + "', running '" +
                     job.name + "')");
  }
  if (snap.model != job.model) {
    reject(path, "model mismatch (snapshot '" + snap.model + "', running '" +
                     job.model + "')");
  }
  if (snap.spec_hash != hash) {
    reject(path,
           "spec hash mismatch — the job's grid/protocol/params/tasks "
           "changed since this snapshot was written");
  }
  if (snap.task_index != task.index) {
    reject(path, "task index mismatch (snapshot " +
                     std::to_string(snap.task_index) + ", expected " +
                     std::to_string(task.index) + ")");
  }
  if (snap.task_seed != task.seed) {
    reject(path, "task seed mismatch (snapshot " +
                     std::to_string(snap.task_seed) + ", expected " +
                     std::to_string(task.seed) + ")");
  }
}

// A partial snapshot's series must hold exactly the measurements due at
// or before its step count, else the file and the protocol disagree
// about history.
void check_partial(const Snapshot& snap, const model::ChainModel& m,
                   std::span<const model::Target> targets,
                   const std::string& path) {
  const std::uint64_t steps = m.steps();
  std::size_t due = 0;
  for (const model::Target& t : targets) {
    if (t.at > steps) break;
    if (t.record) ++due;
  }
  if (snap.series.size() != due) {
    reject(path, "series length " + std::to_string(snap.series.size()) +
                     " inconsistent with step count " + std::to_string(steps) +
                     " (protocol expects " + std::to_string(due) +
                     " measurements)");
  }
  if (steps > targets.back().at) {
    reject(path, "step count " + std::to_string(steps) +
                     " past the protocol's end " +
                     std::to_string(targets.back().at));
  }
}

}  // namespace

std::vector<engine::TaskResult> run_tasks(
    engine::ThreadPool& pool, std::span<const engine::Task> tasks,
    const shard::JobSpec& job, const engine::ChainJob* chain,
    const engine::TaskFn& fn, const Policy& policy, engine::ProgressSink* sink,
    const shard::AuxFn& aux, RunStats* stats) {
  if (policy.dir.empty()) {
    throw std::invalid_argument("checkpoint: Policy::dir must be set");
  }
  const std::uint64_t hash = spec_hash(job);
  std::atomic<std::size_t> n_skipped{0}, n_resumed{0}, n_fresh{0};
  // Mid-task resume needs replayable state; an on_sample hook's
  // side-channel (what aux packs) is not in the snapshot, so such jobs —
  // like fn-backed ones — only ever skip completed tasks.
  const bool resumable = chain != nullptr && !chain->on_sample;
  // Each task's aux, computed on its worker so the completion snapshot
  // carries it; indexed by result slot.
  std::vector<std::vector<double>> auxes(tasks.size());
  // Partial snapshots go to one writer thread; a task's completion
  // snapshot is written on its own thread before it returns. On a
  // throw the writer still writes what is queued before it joins.
  SnapshotWriter writer;

  const engine::TaskFn body = [&](const engine::Task& task) {
    const std::string path =
        policy.dir + "/" + task_filename(job.name, task.index);
    std::vector<double>& task_aux =
        auxes[static_cast<std::size_t>(&task - tasks.data())];
    std::optional<Snapshot> partial;
    if (policy.resume && std::filesystem::exists(path)) {
      Snapshot snap = read_snapshot(path);
      check_identity(snap, path, job, hash, task);
      if (snap.complete) {
        n_skipped.fetch_add(1, std::memory_order_relaxed);
        task_aux = std::move(snap.aux);
        return std::move(snap.series);
      }
      // A partial one that cannot resume reruns from scratch —
      // byte-identical by construction, just pays the lost steps again.
      if (resumable) partial = std::move(snap);
    }
    (partial ? n_resumed : n_fresh).fetch_add(1, std::memory_order_relaxed);

    engine::TaskResult done;
    done.task = task;
    if (chain != nullptr) {
      const std::vector<model::Target> targets =
          engine::protocol_targets(*chain, task);
      std::unique_ptr<model::ChainModel> m =
          partial ? restore_model(*partial) : chain->make_model(task);
      if (partial) {
        check_partial(*partial, *m, targets, path);
        done.series = std::move(partial->series);
      }
      done.series = model::walk(
          *m, targets, engine::sample_hook(*chain, task),
          std::move(done.series), resumable ? policy.every : 0,
          [&](const model::ChainModel& at,
              const std::vector<core::Measurement>& so_far) {
            writer.post(path, capture(at, job.name, hash, task,
                                      /*complete=*/false, so_far));
          });
    } else {
      done.series = fn(task);
    }
    done.steps = done.series.empty() ? 0 : done.series.back().iteration;
    if (aux) task_aux = aux(done);
    // Completion snapshots are stateless regardless of task kind: a
    // finished task is only ever skipped, never restored, so the
    // (series, aux) payload is the entire useful content.
    writer.write(path, capture_stateless(job.name, job.model, hash, task,
                                         done.series, task_aux));
    return std::move(done.series);
  };

  std::vector<engine::TaskResult> results =
      engine::run_ensemble(pool, tasks, body, sink);
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].aux = std::move(auxes[i]);
  }

  const SnapshotWriter::Counts writes = writer.counts();
  const RunStats tally{n_skipped.load(), n_resumed.load(), n_fresh.load(),
                       writes.written, writes.superseded};
  if (stats) *stats = tally;
  std::fprintf(stderr,
               "checkpoint: dir %s: %zu skipped (complete), %zu resumed, "
               "%zu fresh; %zu written, %zu superseded\n",
               policy.dir.c_str(), tally.skipped, tally.resumed, tally.fresh,
               tally.written, tally.superseded);
  return results;
}

}  // namespace sops::checkpoint
