// The persistent sweep server: accept jobs over a local socket, run
// them on one shared ensemble pool, answer status/result/cancel.
//
// Topology: one I/O thread polls the listener, a stop pipe and every
// open connection, and speaks the v3 frame protocol. It keeps each
// connection's unparsed input and unsent output in buffers and answers
// each complete request in the order it arrived. A connection with
// unsent bytes is not read until they are sent, so a peer that stops
// reading stalls only itself, and an idle peer holds only a descriptor
// and its buffers: no timeout is needed, and shutdown is immediate. One
// executor thread drains a bounded FIFO of accepted jobs and runs each
// through engine::run_ensemble on the shared ThreadPool, whose caller
// it is: the executor runs the job's tasks itself beside the pool's
// pool_threads − 1 workers, so a job of k tasks wakes at most k − 1 of
// them. Exactly one job computes at a time — the pool already
// saturates the machine's cores per job, so job-level concurrency
// would only add nondeterministic contention. Backpressure is therefore explicit and
// early: a submit that would push the queue past its limit is refused
// synchronously ("queue-full"), never buffered into an unbounded
// backlog.
//
// Job lifecycle: queued → running → done | failed, with cancelled
// reachable from queued (immediate) and running (via the engine's
// between-task cancel token — in-flight tasks drain, the job never
// leaves a partially-stepped chain). A job is two parts. Its record is
// what the I/O thread answers from: id, task count, state, done count,
// cancel flag, and once it ends the result document (stored at its own
// size) or the failure text. Its work is what only the executor reads:
// the decoded JobSpec and the compiled JobProgram with its ChainJob
// closures. The queue entry owns the work, so the work is freed however
// the job ends: done, failed, or cancelled while queued, while running
// or at shutdown. Only the record is retained, until the retention cap
// evicts the oldest terminal job.
//
// Determinism: the executor runs the same engine::run_ensemble +
// shard::encode path the batch harness does, so a job's result document
// is byte-identical to `bench_X --threads N` output for every N.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/engine/ensemble.hpp"
#include "src/engine/progress.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/service/jobs.hpp"
#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"

namespace sops::service {

struct ServerConfig {
  std::string socket_path;
  unsigned pool_threads = 0;     ///< tasks at once (0 = hardware)
  std::size_t queue_limit = 64;  ///< max queued (not yet running) jobs
  std::size_t max_job_tasks = 1u << 16;  ///< per-job task-table ceiling
  std::size_t retain_limit = 4096;  ///< terminal jobs kept for result/status
  std::string telemetry;         ///< job-tagged JSONL stream; "" = disabled
};

class SweepServer {
 public:
  explicit SweepServer(ServerConfig config);
  ~SweepServer();
  SweepServer(const SweepServer&) = delete;
  SweepServer& operator=(const SweepServer&) = delete;

  /// Binds the socket and spawns the I/O and executor threads and the
  /// pool's pool_threads − 1 workers. Throws std::runtime_error if the
  /// socket cannot be bound or the telemetry file cannot be opened.
  void start();

  /// Blocks until a shutdown request (frame or request_stop) has been
  /// seen and all threads have drained, then joins them.
  void wait();

  /// Asynchronously requests shutdown: the I/O loop wakes via the stop
  /// pipe and closes every connection, the executor finishes its current
  /// job and exits. Safe to call from any thread, including a signal
  /// handler's forwarding thread.
  void request_stop();

  /// Monotonic counters for the lifetime of the server.
  struct Stats {
    std::uint64_t submitted = 0;  ///< accepted jobs
    std::uint64_t refused = 0;    ///< refused submissions (all reasons)
    std::uint64_t completed = 0;  ///< jobs that reached done
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// What status, result and cancel answer from; retained after the job
  /// ends until the retention cap evicts it.
  struct JobRecord {
    std::string id;
    std::uint64_t tasks = 0;  ///< task count, fixed at submit
    std::atomic<JobState> state{JobState::kQueued};
    std::atomic<std::uint64_t> done_tasks{0};
    std::atomic<bool> cancel{false};
    /// The result document once done, the failure text once failed.
    /// Written by the executor before the release-store to a terminal
    /// state; readers observe it only after an acquire-load sees that
    /// state.
    std::string answer;
  };

  /// A queued job: its record and the work only the executor reads.
  /// Destroying the entry (run to its end, cancelled in the queue,
  /// cleared at shutdown) frees the spec and the program.
  struct QueuedJob {
    std::shared_ptr<JobRecord> record;
    shard::JobSpec spec;
    JobProgram program;
  };

  /// ProgressSink adapter: stamps each record with the owning job id
  /// and forwards to the shared telemetry stream; counts completions
  /// for status-ok either way.
  class JobSink : public engine::ProgressSink {
   public:
    JobSink(SweepServer* server, JobRecord* job)
        : server_(server), job_(job) {}
    void record(const Record& r) override;

   private:
    SweepServer* server_;
    JobRecord* job_;
  };

  struct Connection;  ///< one open connection, as the I/O loop holds it

  void io_loop();
  void executor_loop();
  /// Reads or writes once on a connection poll() found ready, then
  /// answers buffered requests while each answer is sent at once.
  /// Returns false once the connection is done.
  [[nodiscard]] bool serve(Connection& c);
  [[nodiscard]] Frame handle_frame(const Frame& request);
  [[nodiscard]] Frame handle_submit(const Frame& request);
  [[nodiscard]] std::shared_ptr<JobRecord> find_job(const std::string& id);
  void retire_terminal_locked(const JobRecord& job);

  ServerConfig config_;
  Fd listen_fd_;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};

  std::unique_ptr<engine::ThreadPool> pool_;
  std::unique_ptr<engine::ProgressSink> telemetry_;

  mutable std::mutex mutex_;           ///< guards everything below
  std::condition_variable queue_cv_;   ///< executor wakeup
  std::deque<QueuedJob> queue_;
  std::map<std::string, std::shared_ptr<JobRecord>> jobs_;
  std::deque<std::string> terminal_order_;  ///< retention FIFO
  std::uint64_t next_job_ = 1;
  Stats stats_;

  std::thread io_;
  std::thread executor_;
};

}  // namespace sops::service
