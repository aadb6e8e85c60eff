// service_small: sops_sweep_server --threads 2 as a child process with
// its default I/O threads and queue, driven by two closed-loop clients on
// persistent service::Client connections. Each client submits a small
// service_sweep job, polls its status every 2 ms, then fetches the
// result — the way the service's real callers (--submit,
// sops_load_client) each wait for their reply. Two clients, because each
// of the server's two default I/O threads serves one connection until it
// closes: a third persistent client would starve.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/engine/seed_stream.hpp"
#include "src/engine/thread_pool.hpp"
#include "src/model/registry.hpp"
#include "src/service/client.hpp"
#include "src/service/jobs.hpp"
#include "src/util/stats.hpp"

namespace perfbench {

namespace {

constexpr const char* kSocket = "s.sock";  // relative: well under 107 bytes
constexpr unsigned kPoolThreads = 2;
constexpr int kClients = 2;
constexpr int kSetupRepeats = 11;
constexpr std::int64_t kWarmupNs = 1'000'000'000;
constexpr std::int64_t kPollNs = 2'000'000;
/// About one job in 64 is replayed in-process and byte-compared.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kMaxSamples = 16;
/// cpu_s is reported as server CPU per this many jobs.
constexpr double kCpuPerJobs = 10000.0;

/// The server as a child process. The destructor stops it on every exit
/// path: a shutdown frame first, SIGKILL if it has not exited within
/// ten seconds, and always a wait for it to end.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& telemetry) {
    std::vector<std::string> argv = {binary, "--socket", kSocket, "--threads",
                                     std::to_string(kPoolThreads)};
    if (!telemetry.empty()) {
      argv.push_back("--telemetry");
      argv.push_back(telemetry);
    }
    pid_ = spawn_logged(argv, "server.log");
    if (pid_ < 0) throw std::runtime_error("cannot start " + binary);
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the server answers a ping on a fresh connection, which
  /// is closed again so it does not hold one of the I/O threads.
  void wait_ready() {
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    for (;;) {
      try {
        service::Client client(kSocket);
        client.ping();
        return;
      } catch (const std::exception&) {
        if (now_ns() > deadline || exited()) {
          throw std::runtime_error("sops_sweep_server did not answer a ping");
        }
        const timespec pause{0, 50'000};
        ::nanosleep(&pause, nullptr);
      }
    }
  }

  /// CPU time (all threads) the server has used so far.
  [[nodiscard]] double cpu_seconds() const {
    clockid_t clock = 0;
    timespec ts{};
    if (::clock_getcpuclockid(pid_, &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0) {
      throw std::runtime_error("cannot read the server's CPU clock");
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  /// Stops and reaps the server; idempotent. Returns its exit status.
  int stop() {
    if (pid_ < 0) return status_;
    try {
      service::Client client(kSocket);
      client.shutdown_server();
    } catch (const std::exception&) {
      // Not answering: the kill below ends it.
    }
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (!exited() && now_ns() < deadline) {
      const timespec pause{0, 1'000'000};
      ::nanosleep(&pause, nullptr);
    }
    if (pid_ >= 0) {
      ::kill(pid_, SIGKILL);
      reap(0);
    }
    return status_;
  }

  /// Peak resident set of the reaped server, in MiB.
  [[nodiscard]] double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  bool exited() { return pid_ < 0 || reap(WNOHANG); }

  bool reap(int flags) {
    int status = 0;
    rusage ru{};
    pid_t got = 0;
    do {
      got = ::wait4(pid_, &status, flags, &ru);
    } while (got < 0 && errno == EINTR);
    if (got != pid_) return false;
    pid_ = -1;
    status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return true;
  }

  pid_t pid_ = -1;
  int status_ = 0;
  double peak_rss_mb_ = 0.0;
};

bool sampled(std::uint64_t seed, std::uint64_t index) {
  return engine::SeedStream(seed ^ 0x5eedULL).at(index) % kSampleEvery == 0;
}

struct JobRecord {
  std::uint64_t index = 0;
  std::string id;
  std::int64_t start = 0, accepted = 0, terminal = 0, done = 0;
  std::uint64_t polls = 0;
  bool refused = false;
  std::string error;  ///< empty = verified
};

struct ClientTally {
  std::vector<JobRecord> jobs;
  std::map<std::uint64_t, std::string> samples;  ///< job index → served doc
  std::string fatal;  ///< connection-level failure that ended the loop
};

// One closed-loop client: next job only after the previous one's result
// has been fetched and verified. Stops starting jobs at `stop_at`.
void client_loop(std::uint64_t seed, int client, std::int64_t stop_at,
                 std::uint64_t run_span, ClientTally& tally) {
  try {
    service::Client conn(kSocket);
    for (std::uint64_t k = static_cast<std::uint64_t>(client);;
         k += kClients) {
      JobRecord rec;
      rec.index = k;
      rec.start = now_ns();
      if (rec.start >= stop_at) break;
      const shard::JobSpec job = service_job(seed, k);
      const std::uint64_t job_span = tracer().next_id();
      std::string req = "k";
      req += std::to_string(k);
      try {
        const service::Client::Submitted sub = conn.submit(job);
        rec.accepted = now_ns();
        record_span("service.submit", tracer().next_id(), job_span, req,
                    rec.start, rec.accepted);
        if (!sub.accepted) {
          rec.refused = true;
          rec.error = "refused (" + sub.reason + ")";
          tally.jobs.push_back(rec);
          continue;
        }
        rec.id = sub.job_id;
        for (;;) {
          const std::int64_t p0 = now_ns();
          const service::Client::Status st = conn.status(rec.id);
          ++rec.polls;
          record_span("service.status", tracer().next_id(), job_span, req,
                      p0, now_ns());
          if (service::is_terminal(st.state)) break;
          const timespec pause{0, kPollNs};
          ::nanosleep(&pause, nullptr);
        }
        rec.terminal = now_ns();
        const shard::ShardFile file = conn.result(rec.id);
        rec.done = now_ns();
        record_span("service.result", tracer().next_id(), job_span, req,
                    rec.terminal, rec.done);
        // The identity check Client's run_job applies to every result.
        if (service::encode_job_payload(file.job) !=
            service::encode_job_payload(job)) {
          rec.error = "result job header differs from the submitted job";
        } else if (sampled(seed, k) && tally.samples.size() < kMaxSamples) {
          tally.samples[k] =
              service::encode_result_payload(file.job, file.results);
        }
      } catch (const service::Refused& e) {
        rec.done = now_ns();
        rec.error = e.what();
      }
      record_span("service.job", job_span, run_span, req,
                  rec.start, rec.done == 0 ? now_ns() : rec.done);
      tally.jobs.push_back(rec);
    }
  } catch (const std::exception& e) {
    tally.fatal = e.what();
  }
}

struct Telemetry {
  std::uint64_t tasks = 0;
  double wall_s = 0.0;
};

// Server --telemetry records of the given jobs: task count and total
// task wall time.
Telemetry read_telemetry(const std::string& path,
                         const std::set<std::string>& jobs) {
  Telemetry t;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto job_at = line.find("\"job\":\"");
    const auto wall_at = line.find("\"wall_seconds\":");
    if (job_at == std::string::npos || wall_at == std::string::npos) continue;
    const auto job_end = line.find('"', job_at + 7);
    if (!jobs.count(line.substr(job_at + 7, job_end - job_at - 7))) continue;
    ++t.tasks;
    t.wall_s += std::stod(line.substr(wall_at + 15));
  }
  return t;
}

// Re-runs a served job in-process through the path the server itself
// uses — build_program, run_ensemble, shard encode — and compares bytes.
// The same job then goes through the benchmark's own observed ChainJob,
// which checks each task's final configuration and is where this
// workload's core/model/metrics and engine fan-out metrics come from.
void replay(std::uint64_t seed,
            const std::map<std::uint64_t, std::string>& samples,
            RunProbe& probe, Result& out) {
  engine::ThreadPool pool(kPoolThreads);
  for (const auto& [k, served] : samples) {
    const shard::JobSpec job = service_job(seed, k);
    const service::JobProgram program = service::build_program(job);
    std::vector<engine::TaskResult> results =
        engine::run_ensemble(pool, job.tasks, program.fn);
    if (program.aux) {
      for (engine::TaskResult& r : results) r.aux = program.aux(r);
    }
    if (shard::encode(job, results) != served) {
      out.fail("service_small: served result differs from the in-process run");
    }

    probe.reset(job.tasks.size(), /*totals_too=*/false);
    const model::Factory& factory = model::require_model(job.model);
    engine::ChainJob chain;
    chain.model = job.model;
    chain.checkpoints = job.checkpoints;
    chain.make_model = observed_factory(
        [&factory, params = job.params](const engine::Task& t) {
          return factory.build(params, model::TaskPoint{t.index, t.replica,
                                                        t.lambda, t.gamma,
                                                        t.seed});
        },
        probe);
    TaskSink sink(probe);
    const std::int64_t f0 = now_ns();
    const std::vector<engine::TaskResult> observed =
        engine::run_chain_ensemble(pool, job.tasks, chain, &sink);
    probe.fanouts.emplace_back(f0, now_ns());
    if (shard::encode(job, observed) != served) {
      out.fail("service_small: observed replay differs from the served result");
    }
    for (const TaskCheck& c : probe.checks) {
      if (!c.error.empty() || !c.connected || !c.perimeter_ok ||
          c.steps != job.checkpoints.back()) {
        out.fail("service_small: a replayed task failed its "
                 "final-configuration check");
        break;  // the job counts once
      }
    }
  }
}

}  // namespace

Result run_service_small(const Options& opt) {
  Result out;
  const bool traced = !opt.trace_path.empty();
  tracer().enable(traced);
  const std::string server_bin = opt.bin_dir + "/sops_sweep_server";
  const std::string telemetry = traced ? "telemetry.jsonl" : "";

  // Set-up: server spawn to the first answered ping. The last server
  // started is the one under load.
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (server) server->stop();
    server.reset();
    ScopedSpan span("setup", 0, "-");
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(server_bin, telemetry);
    server->wait_ready();
    setup.push_back(seconds(now_ns() - t0));
  }

  const std::int64_t begin = now_ns();
  const std::int64_t window_start = begin + kWarmupNs;
  const std::int64_t stop_at =
      window_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<ClientTally> tallies(kClients);
  double cpu0 = 0.0, cpu1 = 0.0;
  StealMeter steal;
  const std::uint64_t run_span = tracer().next_id();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, opt.seed, c, stop_at, run_span,
                           std::ref(tallies[c]));
    }
    const timespec warmup{kWarmupNs / 1'000'000'000, kWarmupNs % 1'000'000'000};
    ::nanosleep(&warmup, nullptr);
    cpu0 = server->cpu_seconds();
    steal.start();
    for (std::thread& t : clients) t.join();
    cpu1 = server->cpu_seconds();
    steal.stop();
  }
  record_span("run", run_span, 0, "-", begin, now_ns());
  const int server_status = server->stop();
  if (server_status != 0) {
    out.fail("service_small: server exited with status " +
             std::to_string(server_status));
  }

  // Timed jobs are those submitted inside the window; the window runs
  // from the first timed submit to the last verified result.
  std::vector<double> latency_ms;
  std::set<std::string> timed_ids;
  std::map<std::uint64_t, std::string> samples;
  double submit = 0.0, wait = 0.0, result = 0.0, polls = 0.0;
  std::uint64_t refusals = 0;
  std::int64_t first = 0, last = 0;
  for (const ClientTally& t : tallies) {
    if (!t.fatal.empty()) out.fail("service_small: client: " + t.fatal);
    samples.insert(t.samples.begin(), t.samples.end());
    for (const JobRecord& j : t.jobs) {
      ++out.attempted;
      refusals += j.refused ? 1 : 0;
      if (!j.error.empty()) {
        std::fprintf(stderr, "service_small: job %llu: %s\n",
                     static_cast<unsigned long long>(j.index),
                     j.error.c_str());
        out.fail("service_small: a job was refused, failed or returned a "
                 "mismatched result");
        continue;
      }
      if (j.start < window_start) continue;
      first = first == 0 ? j.start : std::min(first, j.start);
      last = std::max(last, j.done);
      latency_ms.push_back(static_cast<double>(j.done - j.start) * 1e-6);
      timed_ids.insert(j.id);
      submit += static_cast<double>(j.accepted - j.start) * 1e-6;
      wait += static_cast<double>(j.terminal - j.accepted) * 1e-6;
      result += static_cast<double>(j.done - j.terminal) * 1e-6;
      polls += static_cast<double>(j.polls);
    }
  }
  if (latency_ms.empty()) {
    throw std::runtime_error("no job completed inside the timed window");
  }
  if (samples.empty()) throw std::runtime_error("no served job was sampled");

  RunProbe probe;
  probe.reset(0);
  replay(opt.seed, samples, probe, out);

  const double n = static_cast<double>(latency_ms.size());
  const double wall = seconds(last - first);
  out.metrics["wall_s"] = wall;
  // In a closed loop the CPU of a fixed window grows with throughput, so
  // it is normalized to a fixed amount of work, as batch cpu_s is.
  out.metrics["cpu_s"] = (cpu1 - cpu0) / n * kCpuPerJobs;
  out.metrics["setup_s"] = util::quantile(setup, 0.5);
  out.metrics["peak_rss_mb"] = server->peak_rss_mb();
  out.metrics["jobs_per_s"] = n / wall;
  out.metrics["latency_p50_ms"] = util::quantile(latency_ms, 0.50);
  out.metrics["latency_p99_ms"] = util::quantile(latency_ms, 0.99);
  out.metrics["host.steal_frac"] = steal.fraction();
  std::fprintf(stderr,
               "service_small: %zu latency samples (%zu beyond p99), %zu jobs "
               "replayed in-process, setup %.6f s (median of %d), host steal "
               "%.3f\n",
               latency_ms.size(), latency_ms.size() / 100, samples.size(),
               util::quantile(setup, 0.5),
               kSetupRepeats, steal.fraction());

  if (traced) {
    add_layer_metrics(probe, kPoolThreads, out);
    const Telemetry tele = read_telemetry(telemetry, timed_ids);
    out.metrics["service.submit_ms"] = submit / n;
    out.metrics["service.polls_per_job"] = polls / n;
    out.metrics["service.wait_ms"] = wait / n;
    out.metrics["service.result_ms"] = result / n;
    out.metrics["service.task_ms"] =
        tele.tasks > 0 ? tele.wall_s * 1e3 / static_cast<double>(tele.tasks)
                       : 0.0;
    out.metrics["service.refusals"] = static_cast<double>(refusals);
    out.metrics["checkpoint.snapshots"] = 0.0;  // the service never snapshots
    out.metrics["checkpoint.resume_s"] = 0.0;
    out.metrics["shard.doc_bytes"] =
        static_cast<double>(samples.begin()->second.size());
    run_probes(opt, samples.begin()->second, out);
  }
  return out;
}

}  // namespace perfbench
