#include "src/shard/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/shard/merge.hpp"
#include "src/shard/plan.hpp"

namespace sops::shard {

JobSpec grid_job(std::string name, const engine::GridSpec& grid,
                 const engine::ChainJob& protocol,
                 std::vector<std::string> params) {
  JobSpec job;
  job.name = std::move(name);
  job.model = protocol.model;
  job.grid = grid;
  job.checkpoints = protocol.checkpoints;
  job.burn_in = protocol.burn_in;
  job.interval = protocol.interval;
  job.samples = protocol.samples;
  job.params = std::move(params);
  job.tasks = engine::grid_tasks(grid);
  return job;
}

std::optional<std::vector<engine::TaskResult>> run_or_merge(
    const JobSpec& job, const Modes& modes, const ExecFn& exec) {
  if (!modes.merge_inputs.empty()) {
    std::vector<ShardFile> files;
    files.reserve(modes.merge_inputs.size());
    for (const std::string& path : modes.merge_inputs) {
      files.push_back(read_shard_file(path));
    }
    return merge_results(job, files);
  }

  const std::uint64_t total = job.tasks.size();
  TaskRange range{0, total};
  if (modes.shard_set && modes.range_set) {
    throw std::invalid_argument(
        "shard: --shard and --task-range are mutually exclusive");
  }
  if (modes.shard_set) {
    range = shard_range(total, modes.shard_k, modes.shard_n);
  } else if (modes.range_set) {
    range = checked_range(total, modes.range_begin, modes.range_end);
  }
  const bool worker = !modes.out.empty();
  if (!worker && (modes.shard_set || modes.range_set)) {
    throw std::invalid_argument(
        "shard: a partial run needs --shard-out (a sub-range report would "
        "not be comparable to the full job)");
  }

  const std::span<const engine::Task> sub(
      job.tasks.data() + range.begin, static_cast<std::size_t>(range.size()));
  std::vector<engine::TaskResult> results = exec(sub);

  if (worker) {
    // --task-range workers make no claim about how many sibling files
    // exist (n_shards 0); --shard k/n workers declare the full plan.
    Manifest manifest{1, range.begin, range.end};
    if (modes.shard_set) {
      manifest.n_shards = modes.shard_n;
    } else if (modes.range_set) {
      manifest.n_shards = 0;
    }
    write_shard_file(modes.out, job, results, manifest);
    std::printf(
        "shard: job %s: wrote %llu task results (range %llu:%llu of %llu) "
        "to %s\n",
        job.name.c_str(), static_cast<unsigned long long>(range.size()),
        static_cast<unsigned long long>(range.begin),
        static_cast<unsigned long long>(range.end),
        static_cast<unsigned long long>(total), modes.out.c_str());
    return std::nullopt;
  }
  return results;
}

std::optional<std::vector<engine::TaskResult>> run_or_merge(
    const JobSpec& job, const Modes& modes, engine::ThreadPool& pool,
    const engine::TaskFn& fn, engine::ProgressSink* sink, const AuxFn& aux) {
  return run_or_merge(
      job, modes,
      [&pool, &fn, sink, &aux](std::span<const engine::Task> tasks) {
        std::vector<engine::TaskResult> results =
            engine::run_ensemble(pool, tasks, fn, sink);
        if (aux) {
          for (engine::TaskResult& r : results) r.aux = aux(r);
        }
        return results;
      });
}

std::optional<std::vector<engine::TaskResult>> run_or_merge(
    const JobSpec& job, const Modes& modes, engine::ThreadPool& pool,
    const engine::ChainJob& protocol, engine::ProgressSink* sink,
    const AuxFn& aux) {
  return run_or_merge(job, modes, pool, engine::make_task_fn(protocol), sink,
                      aux);
}

std::vector<std::string> list_shard_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("shard: '" + dir + "' is not a directory");
  }
  // Keyed by (filename, full path): directory_iterator's order is
  // whatever the filesystem hands back, so the sort — not enumeration
  // luck — is what makes repeated runs see the same input order. The
  // filename leads so the order is stable under `dir` spellings too
  // ("out/" vs "./out"); the full path breaks ties that filenames alone
  // cannot have within one directory but keep the comparator a strict
  // weak order regardless.
  std::vector<std::pair<std::string, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".shard") || name.ends_with(".sopsshard")) {
      found.emplace_back(name, entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error("shard: cannot read directory '" + dir + "'");
  }
  if (found.empty()) {
    throw std::runtime_error("shard: no *.shard or *.sopsshard files in '" +
                             dir + "'");
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (std::pair<std::string, std::string>& f : found) {
    out.push_back(std::move(f.second));
  }
  return out;
}

}  // namespace sops::shard
