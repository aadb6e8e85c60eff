// Shared declarations of the end-to-end benchmark: the run options, the
// result every workload returns, the span tracer, the forwarding
// ChainModel wrapper through which the batch workloads observe the
// core/metrics/model/checkpoint layers, and the job definitions.
//
// Everything here measures from outside the program under test: spans
// wrap calls into the repository's public functions, never code inside
// them.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/ensemble.hpp"
#include "src/engine/progress.hpp"
#include "src/model/model.hpp"
#include "src/shard/harness.hpp"
#include "src/shard/wire.hpp"

namespace perfbench {

using namespace sops;

// ---------------------------------------------------------------- clock

/// Nanoseconds on the monotonic clock since the first call.
[[nodiscard]] std::int64_t now_ns();
/// Nanoseconds on the system-wide monotonic clock, comparable across
/// processes.
[[nodiscard]] std::int64_t monotonic_ns();
[[nodiscard]] inline double seconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}
/// CPU time (user + system, all threads) of this process.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Share of the machine's busy CPU time the hypervisor stole between
/// start() and stop() (/proc/stat), for reading a run's numbers: host
/// contention slows every workload, most of all the service's tail.
class StealMeter {
 public:
  void start();
  void stop();
  [[nodiscard]] double fraction() const;

 private:
  std::uint64_t busy_ = 0, steal_ = 0;
};

// --------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< JSONL destination; empty = tracing off
  std::string bin_dir;     ///< harness + server binaries
  std::string work_dir;    ///< fresh scratch directory for this run
};

// ---------------------------------------------------------------- result

/// What one workload run reports. `metrics` holds end-to-end and
/// per-layer values by their BENCHMARK.json names; the caller picks the
/// set that the trace mode asks for.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  std::map<std::string, double> metrics;

  /// Records a failed correctness check: names it once and counts
  /// `ops` operations as failed.
  void fail(const std::string& check, std::uint64_t ops = 1);
};

// --------------------------------------------------------------- tracing

/// One timed interval. `parent` 0 is a root; `req` is the request the
/// span belongs to (task index "t3", service job "j17", or "-").
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string req;
  int thread = 0;
};

/// In-memory span store, written out as JSONL once the run ends. When
/// disabled, spans are dropped at record time (ids are still handed
/// out, so callers need no branches).
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id();
  void record(Span span);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes one JSON object per span. Throws std::runtime_error on I/O
  /// failure.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
};

[[nodiscard]] Tracer& tracer();

/// Records a finished span under a pre-reserved id (no-op when tracing
/// is off).
void record_span(const char* name, std::uint64_t id, std::uint64_t parent,
                 std::string req, std::int64_t start_ns, std::int64_t end_ns);
/// Small dense id of the calling thread, for span records.
[[nodiscard]] int thread_ordinal();

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent, std::string req);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return span_.id; }
  [[nodiscard]] std::int64_t start_ns() const { return span_.start_ns; }

 private:
  Span span_;
};

// ------------------------------------------------- model-layer observation

/// Layer totals gathered by the ChainModel wrapper, summed over every
/// model of one job run. Times are nanoseconds.
struct ModelTotals {
  std::uint64_t builds = 0, build_ns = 0;
  std::uint64_t run_calls = 0, run_steps = 0, run_ns = 0;
  std::uint64_t model_steps = 0;     ///< steps the models advanced in all
  std::uint64_t accepted = 0;        ///< accepted moves + swaps
  std::uint64_t measure_calls = 0, measure_ns = 0;
  std::uint64_t hook_calls = 0, hook_ns = 0;
  std::uint64_t save_state_calls = 0, save_state_ns = 0;
  std::uint64_t snapshot_write_ns = 0, snapshot_bytes = 0;
  void add(const ModelTotals& other);
};

/// What the wrapper saw of one task's final configuration.
struct TaskCheck {
  bool seen = false;
  std::uint64_t steps = 0;  ///< model steps at destruction
  bool connected = false;
  bool hole = false;
  bool perimeter_ok = false;         ///< measured == perimeter_walk
  std::string error;
};

/// One job run as the benchmark observes it: per-task checks, model
/// totals, and the span ids that parent each task's spans. Reset before
/// every run of the job.
struct RunProbe {
  std::vector<TaskCheck> checks;
  std::vector<std::uint64_t> task_span;  ///< reserved engine.task ids
  std::uint64_t fanout_span = 0;         ///< parent of engine.task spans
  std::string snapshot_dir;  ///< set when snapshots go to disk (traced)
  std::string job_name;

  std::mutex mutex;
  ModelTotals totals;  ///< guarded by mutex

  /// engine.task spans, appended by TaskSink. Guarded by mutex.
  std::vector<Span> task_spans;
  /// [start, end) of each engine fan-out the probe observed.
  std::vector<std::pair<std::int64_t, std::int64_t>> fanouts;

  /// Clears the per-task slots for a job of `tasks` tasks; with
  /// `totals_too`, also the totals, task spans and fan-outs.
  void reset(std::size_t tasks, bool totals_too = true);
};

using ModelFactory =
    std::function<std::unique_ptr<model::ChainModel>(const engine::Task&)>;

/// Wraps `inner` so every model it builds is a forwarding wrapper that
/// times run/measure/save_state, counts steps and accepts, and on
/// destruction records its final configuration's checks in the probe.
[[nodiscard]] ModelFactory observed_factory(ModelFactory inner,
                                            RunProbe& probe);

/// The model a wrapper forwards to (or `m` itself when unwrapped), for
/// hooks that downcast to the concrete chain.
[[nodiscard]] const model::ChainModel& unwrap(const model::ChainModel& m);

/// Times an on_sample hook call made with a wrapped model.
void record_hook(const model::ChainModel& m, std::int64_t start_ns);

/// ProgressSink that turns each finished task into an engine.task span
/// (start = now − wall, parented to the probe's fan-out span).
class TaskSink : public engine::ProgressSink {
 public:
  explicit TaskSink(RunProbe& probe) : probe_(probe) {}
  void record(const Record& r) override;

 private:
  RunProbe& probe_;
};

// ------------------------------------------------------------------ jobs

/// A harness job definition as the benchmark runs it: the wire spec,
/// the chain protocol (its make_model wrapped for observation), the aux
/// packer, and each task's step budget.
struct BatchJob {
  shard::JobSpec spec;
  std::shared_ptr<engine::ChainJob> chain;
  shard::AuxFn aux;
  std::function<std::uint64_t(const engine::Task&)> final_step;
};

/// bench_fig3_phase_diagram's sweep (full = --full).
[[nodiscard]] BatchJob fig3_job(std::uint64_t seed, bool full,
                                RunProbe& probe);
/// bench_thm13_compression's sweep (full = --full).
[[nodiscard]] BatchJob thm13_job(std::uint64_t seed, bool full,
                                 RunProbe& probe);
/// One service_small job: sops_load_client's default job shape with a
/// per-job seed drawn from the workload seed.
[[nodiscard]] shard::JobSpec service_job(std::uint64_t seed,
                                         std::uint64_t index);

// -------------------------------------------------------------- workloads

[[nodiscard]] Result run_fig3_full(const Options& opt);
[[nodiscard]] Result run_thm13_ckpt(const Options& opt);
[[nodiscard]] Result run_service_small(const Options& opt);
/// Child side of the batch set-up measurement: builds the workload's
/// job, pool and checkpoint directory, then prints monotonic_ns().
void setup_only(const Options& opt);

/// Layer probes for the traced run: measure(), snapshot encode/write/
/// read at thm13_ckpt's sizes, shard encode/decode of `result_doc`, and
/// the service frame codec. Adds probe.<name>.{ops,bytes,ns_per_op}.
void run_probes(const Options& opt, const std::string& result_doc,
                Result& out);

/// Adds the core/engine/metrics/model/checkpoint per-layer metrics from
/// a probe's totals, task spans and fan-outs. `threads` is the pool
/// size.
void add_layer_metrics(const RunProbe& probe, unsigned threads, Result& out);

/// Starts `argv` (argv[0] a path) with stdout and stderr appended to
/// `log_path`; returns its pid, or -1 if it could not start.
[[nodiscard]] pid_t spawn_logged(const std::vector<std::string>& argv,
                                 const std::string& log_path);

/// spawn_logged, then waits: the exit status, or -1 if it could not
/// start.
[[nodiscard]] int run_program(const std::vector<std::string>& argv,
                              const std::string& log_path);

/// Whole file contents; throws std::runtime_error if unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace perfbench
