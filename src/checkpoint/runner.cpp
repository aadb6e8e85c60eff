#include "src/checkpoint/runner.hpp"

#include <atomic>
#include <chrono>
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

// The absolute iterations a protocol measures at, in order. Checkpoint
// mode measures at each listed iteration (duplicates legal, matching
// model::run_with_checkpoints); equilibrium mode at burn_in + i·interval.
std::vector<std::uint64_t> measurement_targets(
    const engine::ChainProtocol& proto) {
  if (!proto.checkpoints.empty()) {
    for (std::size_t i = 1; i < proto.checkpoints.size(); ++i) {
      if (proto.checkpoints[i] < proto.checkpoints[i - 1]) {
        throw std::invalid_argument(
            "checkpoint: protocol checkpoints must be nondecreasing");
      }
    }
    return proto.checkpoints;
  }
  std::vector<std::uint64_t> targets;
  targets.reserve(proto.samples);
  for (std::size_t i = 0; i < proto.samples; ++i) {
    targets.push_back(proto.burn_in + i * proto.interval);
  }
  return targets;
}

// Total steps the protocol runs: through the last measurement, or the
// bare burn-in when it measures nothing (samples == 0).
std::uint64_t final_step(const engine::ChainProtocol& proto,
                         std::span<const std::uint64_t> targets) {
  if (!targets.empty()) return targets.back();
  return proto.checkpoints.empty() ? proto.burn_in : 0;
}

// Drives `m` from its current step count to the end of the protocol,
// measuring at each remaining target and writing a partial snapshot at
// every multiple of `every` that falls strictly inside a segment.
// Snapshot points never coincide with a measurement point, so a partial
// snapshot's invariant is exact: its series holds precisely the
// measurements at targets <= its step count (what resume validates).
std::vector<core::Measurement> drive_model(
    model::ChainModel& m, const engine::ChainJob& job,
    const engine::Task& task, std::span<const std::uint64_t> targets,
    std::uint64_t end, const Policy& policy, const std::string& path,
    const std::string& job_name, std::uint64_t hash, bool allow_partial,
    std::vector<core::Measurement> series) {
  const std::uint64_t every =
      (allow_partial && !policy.dir.empty()) ? policy.every : 0;

  const auto run_to = [&](std::uint64_t target) {
    std::uint64_t now = m.steps();
    if (target < now) {
      throw std::invalid_argument(
          "checkpoint: protocol checkpoints must be nondecreasing");
    }
    while (now < target) {
      std::uint64_t stop = target;
      if (every != 0) {
        const std::uint64_t next_multiple = (now / every + 1) * every;
        if (next_multiple < stop) stop = next_multiple;
      }
      m.run(stop - now);
      now = stop;
      if (now < target) {
        write_snapshot(path, capture(m, job_name, hash, task,
                                     /*complete=*/false, series));
      }
    }
  };

  for (std::size_t idx = series.size(); idx < targets.size(); ++idx) {
    run_to(targets[idx]);
    series.push_back(m.measure());
    if (job.on_sample) job.on_sample(task, m);
  }
  run_to(end);  // samples == 0: the bare burn-in still runs (and resumes)
  return series;
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

  std::vector<engine::TaskResult> results(tasks.size());
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    const engine::Task& task = tasks[i];
    const std::string path =
        policy.dir + "/" + task_filename(job.name, task.index);
    const auto start = std::chrono::steady_clock::now();
    engine::TaskResult& slot = results[i];
    slot.task = task;

    // Mid-task resume needs replayable state; an on_sample hook's
    // side-channel (what aux packs) is not in the snapshot, so such
    // jobs — like fn-backed ones — only ever skip completed tasks.
    const bool resumable = chain != nullptr && !chain->on_sample;

    std::vector<core::Measurement> series;
    bool satisfied = false;   // adopted a complete snapshot
    bool resumed_here = false;
    std::optional<Snapshot> partial;

    if (policy.resume && std::filesystem::exists(path)) {
      Snapshot snap = read_snapshot(path);
      if (snap.job != job.name) {
        reject(path, "job name mismatch (snapshot '" + snap.job +
                         "', running '" + job.name + "')");
      }
      // Model identity outranks the spec hash: a snapshot from another
      // model family is a category error worth naming, not just a
      // drifted spec.
      if (snap.model != job.model) {
        reject(path, "model mismatch (snapshot '" + snap.model +
                         "', running '" + job.model + "')");
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
      if (snap.complete) {
        slot.series = std::move(snap.series);
        slot.aux = std::move(snap.aux);
        slot.steps = slot.series.empty() ? 0 : slot.series.back().iteration;
        satisfied = true;
      } else if (resumable) {
        partial = std::move(snap);
      }
      // partial + !resumable: rerun from scratch — byte-identical by
      // construction, just pays the lost steps again.
    }

    if (!satisfied) {
      if (chain != nullptr) {
        const engine::ChainProtocol proto =
            engine::resolve_protocol(*chain, task);
        const std::vector<std::uint64_t> targets = measurement_targets(proto);
        const std::uint64_t end = final_step(proto, targets);
        std::unique_ptr<model::ChainModel> m =
            partial ? restore_model(*partial) : chain->make_model(task);
        if (partial) {
          // The snapshot's series must hold exactly the measurements
          // due at or before its step count, else the file and the
          // protocol disagree about history.
          const std::uint64_t steps = m->steps();
          std::size_t due = 0;
          while (due < targets.size() && targets[due] <= steps) ++due;
          if (partial->series.size() != due) {
            reject(path, "series length " +
                             std::to_string(partial->series.size()) +
                             " inconsistent with step count " +
                             std::to_string(steps) + " (protocol expects " +
                             std::to_string(due) + " measurements)");
          }
          if (steps > end) {
            reject(path, "step count " + std::to_string(steps) +
                             " past the protocol's end " +
                             std::to_string(end));
          }
          series = std::move(partial->series);
          resumed_here = true;
        }
        series = drive_model(*m, *chain, task, targets, end, policy, path,
                             job.name, hash, resumable, std::move(series));
      } else {
        series = fn(task);
      }
      slot.steps = series.empty() ? 0 : series.back().iteration;
      slot.series = std::move(series);
      if (aux) slot.aux = aux(slot);
      // Completion snapshots are stateless regardless of task kind: a
      // finished task is only ever skipped, never restored, so the
      // (series, aux) payload is the entire useful content.
      write_snapshot(path, capture_stateless(job.name, job.model, hash, task,
                                             slot.series, slot.aux));
    }

    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    slot.wall_seconds = elapsed.count();
    (satisfied ? n_skipped : resumed_here ? n_resumed : n_fresh)
        .fetch_add(1, std::memory_order_relaxed);
    if (sink) {
      engine::ProgressSink::Record rec;
      rec.task_index = task.index;
      rec.lambda = task.lambda;
      rec.gamma = task.gamma;
      rec.replica = task.replica;
      rec.seed = task.seed;
      rec.steps = slot.steps;
      rec.wall_seconds = slot.wall_seconds;
      sink->record(rec);
    }
  });

  const RunStats tally{n_skipped.load(), n_resumed.load(), n_fresh.load()};
  if (stats) *stats = tally;
  std::fprintf(stderr,
               "checkpoint: dir %s: %zu skipped (complete), %zu resumed, "
               "%zu fresh\n",
               policy.dir.c_str(), tally.skipped, tally.resumed, tally.fresh);
  return results;
}

}  // namespace sops::checkpoint
