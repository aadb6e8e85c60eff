#include "src/engine/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/replica_band.hpp"
#include "src/engine/seed_stream.hpp"

namespace sops::engine {

std::vector<Task> grid_tasks(const GridSpec& spec) {
  if (spec.lambdas.empty() || spec.gammas.empty() || spec.replicas == 0) {
    throw std::invalid_argument(
        "grid_tasks: lambdas, gammas, and replicas must be nonempty");
  }
  const SeedStream seeds(spec.base_seed);
  std::vector<Task> tasks;
  tasks.reserve(spec.lambdas.size() * spec.gammas.size() * spec.replicas);
  for (std::size_t li = 0; li < spec.lambdas.size(); ++li) {
    for (std::size_t gi = 0; gi < spec.gammas.size(); ++gi) {
      for (std::size_t r = 0; r < spec.replicas; ++r) {
        Task t;
        t.index = tasks.size();
        t.lambda_index = li;
        t.gamma_index = gi;
        t.replica = r;
        t.lambda = spec.lambdas[li];
        t.gamma = spec.gammas[gi];
        t.seed = spec.derive_seeds ? seeds.at(t.index) : spec.base_seed;
        tasks.push_back(t);
      }
    }
  }
  return tasks;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Fills one result slot and reports it to `sink`: the one place both
// fan-outs write a task's result and its telemetry record.
void fill_slot(TaskResult& slot, const Task& task,
               std::vector<core::Measurement> series, double wall_seconds,
               ProgressSink* sink) {
  slot.task = task;
  slot.steps = series.empty() ? 0 : series.back().iteration;
  slot.series = std::move(series);
  slot.wall_seconds = wall_seconds;
  if (sink) {
    sink->record({task.index, task.lambda, task.gamma, task.replica,
                  task.seed, slot.steps, slot.wall_seconds, /*job=*/{}});
  }
}

}  // namespace

std::vector<TaskResult> run_ensemble(ThreadPool& pool,
                                     std::span<const Task> tasks,
                                     const TaskFn& fn, ProgressSink* sink,
                                     const std::atomic<bool>* cancel) {
  std::vector<TaskResult> results(tasks.size());
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw Cancelled("ensemble: cancelled before task " +
                      std::to_string(tasks[i].index));
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::Measurement> series = fn(tasks[i]);
    fill_slot(results[i], tasks[i], std::move(series), seconds_since(start),
              sink);
  });
  return results;
}

ChainProtocol resolve_protocol(const ChainJob& job, const Task& task) {
  if (job.protocol) return job.protocol(task);
  return {job.checkpoints, job.burn_in, job.interval, job.samples};
}

std::vector<model::Target> protocol_targets(const ChainJob& job,
                                            const Task& task) {
  const ChainProtocol p = resolve_protocol(job, task);
  if (!p.checkpoints.empty()) return model::checkpoint_targets(p.checkpoints);
  return model::equilibrium_targets(0, p.burn_in, p.interval, p.samples);
}

std::function<void(const model::ChainModel&)> sample_hook(const ChainJob& job,
                                                          const Task& task) {
  if (!job.on_sample) return {};
  return [&job, &task](const model::ChainModel& m) { job.on_sample(task, m); };
}

namespace {

// One lane of a band: its model and its walk through its own targets.
struct Lane {
  std::unique_ptr<model::ChainModel> model;
  std::vector<model::Target> targets;
  std::size_t next = 0;
  std::vector<core::Measurement> series;
  std::function<void(const model::ChainModel&)> on_sample;
};

// Bandable only when every lane exposes a chain and they agree on what
// ReplicaBand requires; single-lane groups (ragged tails, 1×1 cells)
// just run alone.
bool bandable(std::span<Lane> lanes) {
  const core::SeparationChain* head = lanes[0].model->band_chain();
  if (lanes.size() < 2 || head == nullptr) return false;
  for (Lane& lane : lanes) {
    const core::SeparationChain* c = lane.model->band_chain();
    if (c == nullptr || c->system().size() != head->system().size() ||
        c->params().lambda != head->params().lambda ||
        c->params().gamma != head->params().gamma ||
        c->params().swaps_enabled != head->params().swaps_enabled) {
      return false;
    }
  }
  return true;
}

// Lock-step walk of one band: every pass takes each lane's walk step —
// it measures what the lane reached and returns the quota to its next
// target (0 once finished) — and the band advances all lanes by their
// quotas; ragged quotas are its problem, not ours. Per lane this is
// model::walk exactly, and the band's byte-identity contract makes the
// trajectory between targets identical too, so the recorded series
// cannot differ from an unbanded run's.
void run_band_lockstep(std::span<Lane> lanes) {
  std::vector<core::SeparationChain*> chains;
  chains.reserve(lanes.size());
  for (Lane& lane : lanes) chains.push_back(lane.model->band_chain());
  core::ReplicaBand band(chains);
  std::vector<std::uint64_t> quotas(lanes.size(), 0);
  for (;;) {
    bool any = false;
    for (std::size_t r = 0; r < lanes.size(); ++r) {
      Lane& lane = lanes[r];
      quotas[r] = model::walk_step(*lane.model, lane.targets, lane.next,
                                   lane.series, lane.on_sample);
      any = any || quotas[r] != 0;
    }
    if (!any) return;
    band.run(std::span<const std::uint64_t>(quotas.data(), quotas.size()));
  }
}

std::vector<TaskResult> run_banded_ensemble(ThreadPool& pool,
                                            std::span<const Task> tasks,
                                            const ChainJob& job,
                                            ProgressSink* sink) {
  const std::size_t band_max =
      std::min(job.replica_band, core::ReplicaBand::kMaxWidth);
  // Runs of consecutive replica ordinals at one grid cell, chopped to
  // the band width. grid_tasks enumerates replica-innermost, so a
  // cell's replicas are adjacent; a hand-built list whose tasks share a
  // cell but not a replica axis forms no band.
  struct Group {
    std::size_t begin = 0, count = 0;
  };
  std::vector<Group> groups;
  std::size_t at = 0;
  while (at < tasks.size()) {
    std::size_t end = at + 1;
    while (end < tasks.size() && end - at < band_max &&
           tasks[end].lambda_index == tasks[at].lambda_index &&
           tasks[end].gamma_index == tasks[at].gamma_index &&
           tasks[end].replica == tasks[end - 1].replica + 1) {
      ++end;
    }
    groups.push_back({at, end - at});
    at = end;
  }

  std::vector<TaskResult> results(tasks.size());
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const std::span<const Task> gtasks =
        tasks.subspan(groups[g].begin, groups[g].count);
    const auto start = std::chrono::steady_clock::now();
    std::vector<Lane> lanes(gtasks.size());
    for (std::size_t r = 0; r < gtasks.size(); ++r) {
      lanes[r].model = job.make_model(gtasks[r]);
      lanes[r].targets = protocol_targets(job, gtasks[r]);
      lanes[r].on_sample = sample_hook(job, gtasks[r]);
    }
    if (bandable(lanes)) {
      run_band_lockstep(lanes);
    } else {
      for (Lane& lane : lanes) {
        lane.series = model::walk(*lane.model, lane.targets, lane.on_sample);
      }
    }
    // The whole band's wall time, attributed to each lane: lock-step
    // lanes have no meaningful per-lane clock. Telemetry only.
    const double wall = seconds_since(start);
    for (std::size_t r = 0; r < gtasks.size(); ++r) {
      fill_slot(results[groups[g].begin + r], gtasks[r],
                std::move(lanes[r].series), wall, sink);
    }
  });
  return results;
}

}  // namespace

TaskFn make_task_fn(const ChainJob& job) {
  if (!job.make_model) {
    throw std::invalid_argument("make_task_fn: ChainJob::make_model is required");
  }
  return [&job](const Task& task) {
    std::unique_ptr<model::ChainModel> m = job.make_model(task);
    return model::walk(*m, protocol_targets(job, task), sample_hook(job, task));
  };
}

std::vector<TaskResult> run_chain_ensemble(ThreadPool& pool,
                                           std::span<const Task> tasks,
                                           const ChainJob& job,
                                           ProgressSink* sink) {
  const TaskFn fn = make_task_fn(job);  // refuses a job without make_model
  if (job.replica_band >= 2) return run_banded_ensemble(pool, tasks, job, sink);
  return run_ensemble(pool, tasks, fn, sink);
}

}  // namespace sops::engine
