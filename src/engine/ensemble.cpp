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

std::vector<TaskResult> run_ensemble(ThreadPool& pool,
                                     std::span<const Task> tasks,
                                     const TaskFn& fn, ProgressSink* sink,
                                     const std::atomic<bool>* cancel) {
  std::vector<TaskResult> results(tasks.size());
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    const Task& task = tasks[i];
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw Cancelled("ensemble: cancelled before task " +
                      std::to_string(tasks[i].index));
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<core::Measurement> series = fn(task);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    TaskResult& slot = results[i];
    slot.task = task;
    slot.steps = series.empty() ? 0 : series.back().iteration;
    slot.series = std::move(series);
    slot.wall_seconds = elapsed.count();
    if (sink) {
      sink->record({task.index, task.lambda, task.gamma, task.replica,
                    task.seed, slot.steps, slot.wall_seconds});
    }
  });
  return results;
}

ChainProtocol resolve_protocol(const ChainJob& job, const Task& task) {
  if (job.protocol) return job.protocol(task);
  return {job.checkpoints, job.burn_in, job.interval, job.samples};
}

namespace {

// The per-task protocol walk make_task_fn wraps, on an already-built
// model — shared with the banded executor's single-lane fallback so both
// paths drive the exact same sequence of run/measure/on_sample calls.
std::vector<core::Measurement> drive_protocol(model::ChainModel& m,
                                              const ChainJob& job,
                                              const Task& task) {
  const ChainProtocol proto = resolve_protocol(job, task);
  std::vector<core::Measurement> series;
  if (!proto.checkpoints.empty()) {
    std::function<void(const model::ChainModel&, std::uint64_t)> cb;
    if (job.on_sample) {
      cb = [&job, &task](const model::ChainModel& c, std::uint64_t) {
        job.on_sample(task, c);
      };
    }
    series = model::run_with_checkpoints(m, proto.checkpoints, cb);
  } else {
    std::function<void(const model::ChainModel&)> cb;
    if (job.on_sample) {
      cb = [&job, &task](const model::ChainModel& c) {
        job.on_sample(task, c);
      };
    }
    series = model::sample_equilibrium(m, proto.burn_in, proto.interval,
                                       proto.samples, cb);
  }
  return series;
}

// One lane of a band: its model, chain, measurement schedule as
// absolute (iteration, record?) points, and the series so far.
struct Lane {
  std::unique_ptr<model::ChainModel> model;
  core::SeparationChain* chain = nullptr;
  std::vector<std::pair<std::uint64_t, bool>> points;
  std::size_t next = 0;
  std::vector<core::Measurement> series;
};

// Lowers a protocol to the lane schedule: checkpoint targets verbatim,
// equilibrium targets at burn_in + k·interval. samples == 0 degenerates
// to an unrecorded advance to burn_in — exactly sample_equilibrium.
std::vector<std::pair<std::uint64_t, bool>> schedule_points(
    const ChainProtocol& proto) {
  std::vector<std::pair<std::uint64_t, bool>> pts;
  if (!proto.checkpoints.empty()) {
    for (const std::uint64_t cp : proto.checkpoints) {
      pts.emplace_back(cp, true);
    }
  } else if (proto.samples == 0) {
    pts.emplace_back(proto.burn_in, false);
  } else {
    for (std::size_t s = 0; s < proto.samples; ++s) {
      pts.emplace_back(proto.burn_in + s * proto.interval, true);
    }
  }
  return pts;
}

// Lock-step walk of one band: every pass gives each lane the quota to
// its next measurement point (0 once finished), the band advances all
// lanes — ragged quotas are its problem, not ours — and lanes that
// arrived measure and move their cursor. Per lane this interleaves
// run/measure exactly as drive_protocol would, and the band's
// byte-identity contract makes the trajectory between those points
// identical too, so the recorded series cannot differ from an unbanded
// run's.
void run_band_lockstep(std::span<Lane> lanes, const ChainJob& job,
                       std::span<const Task> tasks) {
  std::vector<core::SeparationChain*> chains;
  chains.reserve(lanes.size());
  for (Lane& lane : lanes) chains.push_back(lane.chain);
  core::ReplicaBand band(chains);
  std::vector<std::uint64_t> quotas(lanes.size(), 0);
  while (true) {
    bool any = false;
    for (std::size_t r = 0; r < lanes.size(); ++r) {
      Lane& lane = lanes[r];
      // Record every point already reached (repeated checkpoints at one
      // iteration record repeatedly, as run_with_checkpoints does).
      while (lane.next < lane.points.size() &&
             lane.points[lane.next].first == lane.model->steps()) {
        if (lane.points[lane.next].second) {
          lane.series.push_back(lane.model->measure());
          if (job.on_sample) job.on_sample(tasks[r], *lane.model);
        }
        ++lane.next;
      }
      if (lane.next == lane.points.size()) {
        quotas[r] = 0;
        continue;
      }
      const std::uint64_t target = lane.points[lane.next].first;
      if (target < lane.model->steps()) {
        throw std::invalid_argument(
            "run_with_checkpoints: checkpoints must be nondecreasing");
      }
      quotas[r] = target - lane.model->steps();
      any = true;
    }
    if (!any) break;
    band.run(std::span<const std::uint64_t>(quotas.data(), quotas.size()));
  }
}

std::vector<TaskResult> run_banded_ensemble(ThreadPool& pool,
                                            std::span<const Task> tasks,
                                            const ChainJob& job,
                                            ProgressSink* sink) {
  const std::size_t band_max =
      std::min(job.replica_band, core::ReplicaBand::kMaxWidth);
  // Contiguous runs of tasks at the same grid cell, chopped to the band
  // width. grid_tasks enumerates replica-innermost, so a cell's
  // replicas are adjacent; any other order still groups correctly, just
  // into smaller bands.
  struct Group {
    std::size_t begin = 0, count = 0;
  };
  std::vector<Group> groups;
  std::size_t at = 0;
  while (at < tasks.size()) {
    std::size_t end = at + 1;
    while (end < tasks.size() && end - at < band_max &&
           tasks[end].lambda_index == tasks[at].lambda_index &&
           tasks[end].gamma_index == tasks[at].gamma_index) {
      ++end;
    }
    groups.push_back({at, end - at});
    at = end;
  }

  std::vector<TaskResult> results(tasks.size());
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const Group& group = groups[g];
    const std::span<const Task> gtasks =
        tasks.subspan(group.begin, group.count);
    const auto start = std::chrono::steady_clock::now();

    std::vector<Lane> lanes(group.count);
    for (std::size_t r = 0; r < group.count; ++r) {
      lanes[r].model = job.make_model(gtasks[r]);
      lanes[r].chain = lanes[r].model->band_chain();
      lanes[r].points = schedule_points(resolve_protocol(job, gtasks[r]));
    }
    // Bandable only when every lane exposes a chain and they agree on
    // what ReplicaBand requires; single-lane groups (ragged tails, 1×1
    // cells) just run alone.
    bool bandable = group.count >= 2;
    for (std::size_t r = 0; bandable && r < group.count; ++r) {
      const core::SeparationChain* head = lanes[0].chain;
      const core::SeparationChain* c = lanes[r].chain;
      bandable = c != nullptr && head != nullptr &&
                 c->system().size() == head->system().size() &&
                 c->params().lambda == head->params().lambda &&
                 c->params().gamma == head->params().gamma &&
                 c->params().swaps_enabled == head->params().swaps_enabled;
    }
    if (bandable) {
      run_band_lockstep(lanes, job, gtasks);
    } else {
      for (std::size_t r = 0; r < group.count; ++r) {
        lanes[r].series = drive_protocol(*lanes[r].model, job, gtasks[r]);
      }
    }

    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    for (std::size_t r = 0; r < group.count; ++r) {
      TaskResult& slot = results[group.begin + r];
      slot.task = gtasks[r];
      slot.steps =
          lanes[r].series.empty() ? 0 : lanes[r].series.back().iteration;
      slot.series = std::move(lanes[r].series);
      // The whole band's wall time, attributed to each lane: lock-step
      // lanes have no meaningful per-lane clock. Telemetry only.
      slot.wall_seconds = elapsed.count();
      if (sink) {
        sink->record({slot.task.index, slot.task.lambda, slot.task.gamma,
                      slot.task.replica, slot.task.seed, slot.steps,
                      slot.wall_seconds});
      }
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
    return drive_protocol(*m, job, task);
  };
}

std::vector<TaskResult> run_chain_ensemble(ThreadPool& pool,
                                           std::span<const Task> tasks,
                                           const ChainJob& job,
                                           ProgressSink* sink) {
  if (job.replica_band >= 2) {
    if (!job.make_model) {
      throw std::invalid_argument(
          "make_task_fn: ChainJob::make_model is required");
    }
    return run_banded_ensemble(pool, tasks, job, sink);
  }
  return run_ensemble(pool, tasks, make_task_fn(job), sink);
}

std::vector<CellAggregate> aggregate_final(
    const GridSpec& spec, std::span<const TaskResult> results) {
  const std::size_t cells = spec.lambdas.size() * spec.gammas.size();
  std::vector<CellAggregate> out(cells);
  for (std::size_t li = 0; li < spec.lambdas.size(); ++li) {
    for (std::size_t gi = 0; gi < spec.gammas.size(); ++gi) {
      CellAggregate& cell = out[li * spec.gammas.size() + gi];
      cell.lambda_index = li;
      cell.gamma_index = gi;
      cell.lambda = spec.lambdas[li];
      cell.gamma = spec.gammas[gi];
    }
  }
  // Results arrive ordered by Task::index (replica innermost), so this
  // single pass accumulates every cell in replica order — the fixed
  // order that makes the floating-point sums reproducible.
  for (const TaskResult& r : results) {
    if (r.series.empty()) continue;
    const std::size_t cell_index =
        r.task.lambda_index * spec.gammas.size() + r.task.gamma_index;
    if (cell_index >= out.size()) {
      throw std::out_of_range("aggregate_final: task outside the grid");
    }
    const core::Measurement& final = r.series.back();
    out[cell_index].perimeter_ratio.add(final.perimeter_ratio);
    out[cell_index].hetero_fraction.add(final.hetero_fraction);
  }
  return out;
}

double ci95_halfwidth(const util::Accumulator& acc) {
  return 1.96 * acc.sem();
}

}  // namespace sops::engine
