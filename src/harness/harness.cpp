#include "src/harness/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/checkpoint/runner.hpp"
#include "src/model/builtin.hpp"
#include "src/service/client.hpp"
#include "src/service/jobs.hpp"

namespace sops::harness {

namespace {

void banner(const char* experiment, const char* paper_artifact,
            const char* claim) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", experiment, paper_artifact);
  std::printf("paper: %s\n", claim);
  std::printf("=============================================================\n");
}

}  // namespace

double aux_value(const engine::TaskResult& r, std::size_t i) {
  if (i >= r.aux.size()) {
    throw std::runtime_error(
        "shard: result for task " + std::to_string(r.task.index) +
        " lacks aux value " + std::to_string(i) +
        " (shard file from an older harness version?)");
  }
  return r.aux[i];
}

int run(const Spec& spec, int argc, char** argv) {
  // Every harness binary speaks every first-class model: --resume must
  // be able to restore whatever tag a snapshot carries, and --merge
  // whatever tag a shard file names.
  model::ensure_builtin_models();
  if (static_cast<bool>(spec.sweep) == static_cast<bool>(spec.single)) {
    throw std::logic_error("harness: spec '" + spec.name +
                           "' must set exactly one of sweep/single");
  }
  const bool with_shard = static_cast<bool>(spec.sweep) && spec.shardable;
  const std::vector<std::string> served = service::registered_jobs();
  const bool with_submit =
      with_shard && std::find(served.begin(), served.end(), spec.name) !=
                        served.end();
  const Options opt = parse_options(argc, argv, with_shard, with_submit,
                                    spec.passthrough_prefix);

  banner(spec.experiment, spec.paper_artifact, spec.claim);
  if (spec.single) return spec.single(opt);

  Sweep sweep = spec.sweep(opt);
  sweep.job.name = spec.name;
  if (sweep.chain) {
    sweep.job.model = sweep.chain->model;
  }
  engine::TaskFn fn = sweep.fn;
  if (!fn) {
    if (!sweep.chain) {
      throw std::logic_error("harness: sweep of '" + spec.name +
                             "' must set fn or chain");
    }
    fn = engine::make_task_fn(*sweep.chain);
  }

  if (!opt.submit.empty()) {
    // Remote execution: the sweep server runs the identical engine +
    // aux + wire path, so reporting its results here is byte-identical
    // to the in-process run. Refusals and transport failures are
    // operator-facing data errors, same as a refused merge.
    try {
      const std::vector<engine::TaskResult> results =
          service::run_job(opt.submit, sweep.job);
      return sweep.report ? sweep.report(opt, results) : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      return kDataError;
    }
  }

  shard::Modes modes;
  modes.shard_set = opt.shard_set;
  modes.shard_k = opt.shard_k;
  modes.shard_n = opt.shard_n;
  modes.range_set = opt.range_set;
  modes.range_begin = opt.range_begin;
  modes.range_end = opt.range_end;
  modes.out = opt.shard_out;
  modes.merge_inputs = opt.merge_inputs;

  engine::ThreadPool pool(opt.threads);
  engine::ProgressSink sink(opt.telemetry);
  std::optional<std::vector<engine::TaskResult>> results;
  try {
    // A refused merge (incomplete tiling, foreign shard file, parse
    // failure, empty --merge-dir), like an unusable snapshot under
    // --resume, is an expected operator-facing data error: report it
    // and exit kDataError instead of std::terminate.
    if (!opt.merge_dir.empty()) {
      modes.merge_inputs = shard::list_shard_files(opt.merge_dir);
    }
    if (!opt.checkpoint_dir.empty()) {
      // Checkpointed execution slots in under the shard dispatch: the
      // slice a worker runs and the wire file it writes are unchanged,
      // only how the slice's tasks get satisfied differs (and a resumed
      // run's results are byte-identical, so the wire bytes are too).
      const checkpoint::Policy policy{opt.checkpoint_dir,
                                      opt.checkpoint_every, opt.resume};
      // Mid-task snapshots only when the chain protocol is what actually
      // runs; a sweep with its own fn stays opaque even if it also
      // carries a ChainJob.
      const engine::ChainJob* chain = sweep.fn ? nullptr : sweep.chain.get();
      results = shard::run_or_merge(
          sweep.job, modes,
          [&](std::span<const engine::Task> tasks) {
            return checkpoint::run_tasks(pool, tasks, sweep.job, chain, fn,
                                         policy, &sink, sweep.aux);
          });
    } else {
      results = shard::run_or_merge(sweep.job, modes, pool, fn, &sink,
                                    sweep.aux);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return kDataError;
  }
  if (!results) return 0;  // worker mode: shard file written
  return sweep.report ? sweep.report(opt, *results) : 0;
}

}  // namespace sops::harness
