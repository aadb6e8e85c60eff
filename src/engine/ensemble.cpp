#include "src/engine/ensemble.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

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
                      std::to_string(task.index));
    }
    const auto start = std::chrono::steady_clock::now();
    TaskResult& slot = results[i];
    slot.series = fn(task);
    slot.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    slot.task = task;
    slot.steps = slot.series.empty() ? 0 : slot.series.back().iteration;
    if (sink) {
      sink->record({task.index, task.lambda, task.gamma, task.replica,
                    task.seed, slot.steps, slot.wall_seconds, /*job=*/{}});
    }
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
  return run_ensemble(pool, tasks, make_task_fn(job), sink);
}

}  // namespace sops::engine
