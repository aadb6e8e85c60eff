// The batch workloads: fig3_full (bench_fig3_phase_diagram --full
// --threads 4) and thm13_ckpt (bench_thm13_compression --full --threads 1
// --checkpoint-dir D --checkpoint-every 50000, then a --resume pass over
// D). Both call the entry points harness::run uses — shard::run_or_merge
// over engine::run_chain_ensemble, or over checkpoint::run_tasks — with
// the harnesses' job definitions at default execution settings.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/checkpoint/runner.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/util/stats.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Set-up is a few milliseconds, so it is repeated and its median
/// reported.
constexpr int kSetupRepeats = 11;
constexpr std::uint64_t kCheckpointEvery = 50000;

struct Batch {
  const char* workload;
  const char* harness;  ///< binary the fidelity check compares against
  unsigned threads;
  bool checkpointed;
  BatchJob (*make)(std::uint64_t, bool, RunProbe&);
};

// The benchmark's job definition at default scale must write the same
// wire document as the harness it is named after, for the same seed.
void check_fidelity(const Options& opt, const Batch& b, Result& out) {
  const std::string theirs = "fidelity-harness.shard";
  const std::string ours = "fidelity-bench.shard";
  const int rc = run_program(
      {opt.bin_dir + "/" + b.harness, "--seed", std::to_string(opt.seed),
       "--threads", std::to_string(b.threads), "--shard", "0/1",
       "--shard-out", theirs},
      "fidelity.log");
  if (rc != 0) {
    out.fail(std::string("fidelity: ") + b.harness + " exited with status " +
             std::to_string(rc));
    return;
  }
  RunProbe probe;
  BatchJob job = b.make(opt.seed, /*full=*/false, probe);
  probe.reset(job.spec.tasks.size());
  engine::ThreadPool pool(b.threads);
  shard::Modes modes;
  modes.shard_set = true;
  modes.shard_k = 0;
  modes.shard_n = 1;
  modes.out = ours;
  (void)shard::run_or_merge(job.spec, modes, pool, *job.chain, nullptr,
                            job.aux);
  if (read_file(theirs) != read_file(ours)) {
    out.fail(std::string("fidelity: ") + b.workload +
             " job definition writes different wire bytes than " + b.harness);
  }
}

// Per-task checks the wrapper recorded, plus the step count each result
// reports. A task failing any check counts once.
void check_tasks(const Batch& b, const BatchJob& job, const RunProbe& probe,
                 const std::vector<engine::TaskResult>& results,
                 Result& out) {
  const std::string w = b.workload;
  if (results.size() != job.spec.tasks.size()) {
    out.fail(w + ": result count differs from the task table",
             job.spec.tasks.size());
    return;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TaskCheck& c = probe.checks[i];
    const std::uint64_t budget = job.final_step(job.spec.tasks[i]);
    if (!c.seen) {
      out.fail(w + ": task model was never finished");
    } else if (!c.error.empty()) {
      out.fail(w + ": " + c.error);
    } else if (c.steps != budget || results[i].steps != budget) {
      out.fail(w + ": task did not run exactly its step budget");
    } else if (!c.connected) {
      out.fail(w + ": final configuration is disconnected");
    } else if (!c.perimeter_ok) {
      out.fail(w + ": measured perimeter differs from the boundary walk");
    }
  }
}

// Runs this program with --setup-only and returns the seconds from the
// spawn to the moment the child reports its set-up done.
double spawn_setup(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::vector<std::string> argv = {"/proc/self/exe", "--workload", opt.workload,
                                   "--seed", std::to_string(opt.seed),
                                   "--bin", opt.bin_dir, "--work", ".",
                                   "--setup-only", "1"};
  std::vector<char*> args;
  for (std::string& a : argv) args.push_back(a.data());
  args.push_back(nullptr);
  const std::int64_t spawned = monotonic_ns();
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string text;
  char buf[64];
  ssize_t got = 0;
  while (rc == 0 && (got = ::read(fds[0], buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("set-up child failed");
  }
  return seconds(std::stoll(text) - spawned);
}

std::string fresh_dir(const char* prefix) {
  static int next = 0;
  const std::string dir = std::string(prefix) + std::to_string(next++);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  return dir;
}

Result run_batch(const Options& opt, const Batch& b) {
  Result out;
  check_fidelity(opt, b, out);
  tracer().enable(!opt.trace_path.empty());

  // Set-up, measured in fresh processes: from spawn to the job table,
  // initial configuration, pool and checkpoint directory being ready —
  // everything a harness run does before its first chain step.
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) setup.push_back(spawn_setup(opt));

  RunProbe probe;
  BatchJob job = b.make(opt.seed, /*full=*/true, probe);
  auto pool = std::make_unique<engine::ThreadPool>(b.threads);
  std::string dir = b.checkpointed ? fresh_dir("ckpt-") : "";
  const engine::TaskFn fn = engine::make_task_fn(*job.chain);

  // Timed repetitions of the whole workload until the budget is spent;
  // a traced run makes exactly one, so its spans and counts do not depend
  // on how many repetitions fit.
  std::vector<double> walls, cpus, p50s, p99s, rates;
  std::string first_doc;
  const std::int64_t begin = now_ns();
  const auto budget = static_cast<std::int64_t>(opt.seconds * 1e9);
  StealMeter steal;
  steal.start();
  const bool repeat = !tracer().enabled();
  for (int rep = 0; rep == 0 || (repeat && now_ns() - begin < budget);
       ++rep) {
    if (rep > 0 && b.checkpointed) {
      std::filesystem::remove_all(dir);
      dir = fresh_dir("ckpt-");
    }
    probe.reset(job.spec.tasks.size());
    probe.job_name = job.spec.name;
    probe.snapshot_dir = tracer().enabled() && b.checkpointed ? dir : "";
    std::int64_t resume_ns = 0;
    std::string doc;

    ScopedSpan root("run", 0, "rep" + std::to_string(rep));
    const std::int64_t t0 = now_ns();
    const double c0 = process_cpu_seconds();
    std::optional<std::vector<engine::TaskResult>> results;
    {
      ScopedSpan fan("engine.fanout", root.id(), "-");
      probe.fanout_span = fan.id();
      TaskSink sink(probe);
      if (b.checkpointed) {
        const checkpoint::Policy policy{dir, kCheckpointEvery, false};
        results = shard::run_or_merge(
            job.spec, shard::Modes{},
            [&](std::span<const engine::Task> tasks) {
              return checkpoint::run_tasks(*pool, tasks, job.spec,
                                           job.chain.get(), fn, policy, &sink,
                                           job.aux);
            });
      } else {
        results = shard::run_or_merge(job.spec, shard::Modes{}, *pool,
                                      *job.chain, &sink, job.aux);
      }
      probe.fanouts.emplace_back(fan.start_ns(), now_ns());
    }
    {
      ScopedSpan span("shard.encode", root.id(), "-");
      doc = shard::encode(job.spec, *results);
    }
    if (b.checkpointed) {
      ScopedSpan span("checkpoint.resume", root.id(), "-");
      const checkpoint::Policy policy{dir, kCheckpointEvery, true};
      const auto resumed = shard::run_or_merge(
          job.spec, shard::Modes{}, [&](std::span<const engine::Task> tasks) {
            return checkpoint::run_tasks(*pool, tasks, job.spec,
                                         job.chain.get(), fn, policy, nullptr,
                                         job.aux);
          });
      if (shard::encode(job.spec, *resumed) != doc) {
        out.fail(std::string(b.workload) +
                     ": resume pass results differ from the first pass",
                 job.spec.tasks.size());
      }
      resume_ns = now_ns() - span.start_ns();
    }
    check_tasks(b, job, probe, *results, out);
    if (rep == 0) {
      first_doc = doc;
    } else if (doc != first_doc) {
      out.fail(std::string(b.workload) +
                   ": results differ between repetitions of one seed",
               job.spec.tasks.size());
    }
    walls.push_back(seconds(now_ns() - t0));
    cpus.push_back(process_cpu_seconds() - c0);
    out.attempted += job.spec.tasks.size();
    // A batch job is one task of the sweep: its latency is the task's own
    // run time as the engine reports it.
    std::vector<double> task_ms;
    for (const Span& s : probe.task_spans) {
      task_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
    p50s.push_back(util::quantile(task_ms, 0.50));
    p99s.push_back(util::quantile(task_ms, 0.99));
    rates.push_back(static_cast<double>(task_ms.size()) / walls.back());

    if (rep == 0 && tracer().enabled()) {
      add_layer_metrics(probe, b.threads, out);
      out.metrics["checkpoint.snapshots"] =
          b.checkpointed ? static_cast<double>(probe.totals.save_state_calls +
                                               job.spec.tasks.size())
                         : 0.0;
      out.metrics["checkpoint.resume_s"] = seconds(resume_ns);
      out.metrics["shard.doc_bytes"] = static_cast<double>(doc.size());
      for (const char* name :
           {"service.submit_ms", "service.polls_per_job", "service.wait_ms",
            "service.result_ms", "service.task_ms", "service.refusals"}) {
        out.metrics[name] = 0.0;  // no service layer in a batch run
      }
    }
  }
  steal.stop();
  if (!dir.empty()) std::filesystem::remove_all(dir);

  out.metrics["host.steal_frac"] = steal.fraction();
  out.metrics["wall_s"] = util::quantile(walls, 0.5);
  out.metrics["cpu_s"] = util::quantile(cpus, 0.5);
  out.metrics["setup_s"] = util::quantile(setup, 0.5);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.metrics["jobs_per_s"] = util::quantile(rates, 0.5);
  out.metrics["latency_p50_ms"] = util::quantile(p50s, 0.5);
  out.metrics["latency_p99_ms"] = util::quantile(p99s, 0.5);
  std::fprintf(stderr, "%s: wall per repetition:", b.workload);
  for (const double w : walls) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr,
               " s; setup %.6f s (median of %d spawns); host steal %.3f\n",
               util::quantile(setup, 0.5), kSetupRepeats, steal.fraction());
  if (tracer().enabled()) run_probes(opt, first_doc, out);
  return out;
}

const Batch kFig3{"fig3_full", "bench_fig3_phase_diagram", 4, false,
                  &fig3_job};
const Batch kThm13{"thm13_ckpt", "bench_thm13_compression", 1, true,
                   &thm13_job};

}  // namespace

Result run_fig3_full(const Options& opt) { return run_batch(opt, kFig3); }

Result run_thm13_ckpt(const Options& opt) { return run_batch(opt, kThm13); }

void setup_only(const Options& opt) {
  const Batch& b = opt.workload == "thm13_ckpt" ? kThm13 : kFig3;
  RunProbe probe;
  const BatchJob job = b.make(opt.seed, /*full=*/true, probe);
  const engine::ThreadPool pool(b.threads);
  const std::string dir = b.checkpointed ? fresh_dir("ckpt-setup-") : "";
  std::printf("%lld\n", static_cast<long long>(monotonic_ns()));
  std::fflush(stdout);
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

}  // namespace perfbench
