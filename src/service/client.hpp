// Client side of the sweep service: one connection, typed request/
// response calls, and the submit→poll→fetch convenience loop the
// harness --submit path and the load generator share.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/service/protocol.hpp"
#include "src/service/socket.hpp"
#include "src/shard/wire.hpp"

namespace sops::service {

/// The server answered `refused`. `reason()` is the wire token
/// ("queue-full", "unknown-job", …) and `detail()` the frame's payload;
/// what() reads "service: refused (<reason>): <detail>".
class Refused : public std::runtime_error {
 public:
  Refused(std::string reason, std::string detail)
      : std::runtime_error("service: refused (" + reason + "): " + detail),
        reason_(std::move(reason)),
        detail_(std::move(detail)) {}
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }
  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

 private:
  std::string reason_;
  std::string detail_;
};

class Client {
 public:
  /// Connects to the server at `socket_path`. Throws std::runtime_error
  /// naming the path if no server is listening.
  explicit Client(const std::string& socket_path);

  /// Outcome of one submission. On acceptance `job_id` is set; on
  /// refusal `reason` holds the wire token and `detail` the refused
  /// frame's payload (a refused submission is an expected backpressure
  /// outcome for the load generator, not an exception).
  struct Submitted {
    bool accepted = false;
    std::string job_id;
    std::string reason;
    std::string detail;
    std::uint64_t queue_depth = 0;
  };
  [[nodiscard]] Submitted submit(const shard::JobSpec& job);

  struct Status {
    JobState state = JobState::kQueued;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
  };
  /// Throws Refused on unknown ids.
  [[nodiscard]] Status status(const std::string& job_id);

  /// Fetches and decodes a finished job's result document. Throws
  /// Refused if the job is unknown, unfinished, failed, or cancelled.
  [[nodiscard]] shard::ShardFile result(const std::string& job_id);

  /// Requests cancellation; returns the job's state right after the
  /// request ("cancelled" if it was still queued, "running" if the
  /// engine token was armed and the job is still draining).
  JobState cancel(const std::string& job_id);

  void ping();
  void shutdown_server();

 private:
  /// Sends `request`, receives one frame, unwraps `refused`/`error`
  /// frames into exceptions, and checks the response type.
  Frame roundtrip(const Frame& request, FrameType expect);

  FrameChannel channel_;
};

/// The full synchronous path: submit `job`, poll status until terminal,
/// fetch the result, and verify it is complete and carries the job
/// identity that was submitted (byte-compared on the wire encoding).
/// Throws Refused on refusals and std::runtime_error on failed or
/// cancelled jobs. `poll_interval_ms` paces the status loop.
[[nodiscard]] std::vector<engine::TaskResult> run_job(
    const std::string& socket_path, const shard::JobSpec& job,
    int poll_interval_ms = 20);

}  // namespace sops::service
