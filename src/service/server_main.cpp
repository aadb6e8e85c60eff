// sops_sweep_server — the persistent simulation-as-a-service daemon.
//
// Binds a local AF_UNIX socket, then accepts v3 service-wire frames
// until a `shutdown` frame arrives: job submissions run on one shared
// ensemble thread pool, status/result/cancel queries answer from the
// in-memory job table, and a full queue refuses new work synchronously
// instead of buffering an unbounded backlog. One I/O thread serves every
// open connection, so an idle client holds no thread and never delays
// another. See src/service/ and DESIGN.md §"Service layer".
//
// Prints one `listening on <socket>` line to stdout once the socket is
// live, so scripts can wait for readiness by watching the log.
//
// Exit status: 0 after a clean shutdown; 2 on usage errors (bad flags,
// out-of-range limits); 1 on startup/data failures (unbindable socket
// path, unwritable telemetry file — the offending path is printed).

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "src/model/builtin.hpp"
#include "src/service/server.hpp"
#include "src/util/cli.hpp"

namespace {

constexpr int kUsageError = 2;
constexpr int kDataError = 1;

}  // namespace

int main(int argc, char** argv) {
  using namespace sops;
  model::ensure_builtin_models();
  util::Cli cli;
  cli.add_option("socket", "AF_UNIX socket path to listen on (required)", "");
  cli.add_option("threads",
                 "ensemble tasks at once (0 = hardware concurrency)", "0");
  cli.add_option("queue", "max queued jobs before submissions are refused",
                 "64");
  cli.add_option("max-tasks", "per-job task-table ceiling", "65536");
  cli.add_option("telemetry",
                 "append job-tagged per-task JSONL records to this file", "");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    return kUsageError;
  }
  if (cli.help_requested()) {
    std::cout << cli.help_text(argv[0]);
    return 0;
  }

  service::ServerConfig config;
  try {
    config.socket_path = cli.str("socket");
    if (config.socket_path.empty()) {
      throw std::invalid_argument("cli: --socket is required");
    }
    const std::uint64_t threads = cli.unsigned_integer("threads");
    if (threads > 4096) {
      throw std::invalid_argument("cli: --threads must be at most 4096");
    }
    config.pool_threads = static_cast<unsigned>(threads);
    config.queue_limit =
        static_cast<std::size_t>(cli.unsigned_integer("queue"));
    if (config.queue_limit == 0) {
      throw std::invalid_argument("cli: --queue must be at least 1");
    }
    config.max_job_tasks =
        static_cast<std::size_t>(cli.unsigned_integer("max-tasks"));
    config.telemetry = cli.str("telemetry");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.help_text(argv[0]);
    return kUsageError;
  }

  try {
    service::SweepServer server(config);
    server.start();
    std::printf("listening on %s (queue limit %zu, tasks at once %u)\n",
                config.socket_path.c_str(), config.queue_limit,
                config.pool_threads);
    std::fflush(stdout);
    server.wait();
    const service::SweepServer::Stats stats = server.stats();
    std::printf(
        "shutdown: %llu submitted, %llu completed, %llu cancelled, "
        "%llu failed, %llu refused\n",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.refused));
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return kDataError;
  }
  return 0;
}
