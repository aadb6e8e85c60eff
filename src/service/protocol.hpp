// v3 service wire: request/response framing for the sweep server.
//
// The service protocol is a framed extension of the shard wire format
// (src/shard/wire.hpp): a frame is one header line plus an exact
// byte-counted payload, and every payload that carries scientific data
// is a complete shard document (wire v3). The header is one record of
// the shared line grammar (src/util/record.hpp):
//
//   sops-service-wire v3 <type> [<arg>...] <payload_bytes>\n
//   <payload_bytes bytes of payload>
//
// where <type> fixes the argument count exactly (see FrameType). Design
// rules inherited from the shard wire:
//
//  * Parse-or-fail. Wrong magic, unknown version or type, wrong token
//    count, short payload, trailing bytes — each throws ProtocolError
//    naming the offending field. There is no partial decode: a frame
//    either parses completely or leaves no state behind.
//  * Exact bytes. Submissions and results travel as shard documents,
//    hexfloat doubles included, so a socket-submitted job's report is
//    byte-identical to the batch harness's.
//  * Versioned. v3 is the service framing layer; the embedded documents
//    keep their own shard::kWireVersion. A version bump in either layer
//    is a refused frame, never a guessed one.
//
// Request → response pairs (client sends the left, server answers with
// one of the right):
//
//   submit     {payload: job doc, 0 results}  → accepted | refused
//   status id                                 → status-ok | refused
//   result id                                 → result-ok | refused
//   cancel id                                 → cancel-ok | refused
//   ping                                      → pong
//   shutdown                                  → shutdown-ok
//
// Any malformed request is answered with an `error` frame naming the
// offending field before the connection closes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/shard/wire.hpp"

namespace sops::service {

/// Service framing version. Independent of shard::kWireVersion (the
/// embedded document version); either mismatching is a refused frame.
inline constexpr std::uint32_t kServiceWireVersion = 3;

/// Hard ceilings that keep a corrupt or hostile byte count from turning
/// into an allocation: decode refuses headers and payloads beyond these.
inline constexpr std::size_t kMaxHeaderBytes = 4096;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

/// Malformed frame bytes. `what()` names the offending field ("magic",
/// "version", "frame type", "payload byte count", …).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType {
  // Requests.
  kSubmit,      ///< payload: shard job document with zero results
  kStatus,      ///< args: job id
  kResult,      ///< args: job id
  kCancel,      ///< args: job id
  kPing,        ///<
  kShutdown,    ///<
  // Responses.
  kAccepted,    ///< args: job id, queue depth after enqueue
  kRefused,     ///< args: reason token; payload: human-readable detail
  kStatusOk,    ///< args: job id, state token, done tasks, total tasks
  kResultOk,    ///< args: job id; payload: canonical result document
  kCancelOk,    ///< args: job id, state token after the request
  kPong,        ///<
  kShutdownOk,  ///<
  kError,       ///< args: offending field token; payload: detail
};

/// Canonical single-token name of a frame type ("submit", "status-ok", …).
[[nodiscard]] const char* frame_type_name(FrameType type);

/// One decoded frame. `args` are single space-free tokens.
struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<std::string> args;
  std::string payload;
};

/// Serializes one frame (header line + payload bytes). Throws
/// std::invalid_argument on frames that cannot round-trip: wrong arg
/// count for the type, empty or whitespace-carrying args, payload
/// presence violating the type's grammar, payload over the ceiling.
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Parses exactly one complete frame from `text`. Strict: throws
/// ProtocolError on any deviation, including payload bytes missing and
/// trailing content after the declared payload.
[[nodiscard]] Frame decode_frame(std::string_view text);

/// Parses the frame at the front of `bytes`, which a stream reader may
/// hold only part of, or more than one of. Stores the frame in `frame`
/// and returns its length in bytes; returns 0 while `bytes` is a proper
/// beginning of a frame. `at_end` says no more bytes will follow, so an
/// unfinished frame throws "truncated frame" instead. Throws
/// ProtocolError as soon as the bytes present cannot begin a frame: a
/// header line past kMaxHeaderBytes, or any header field decode_frame
/// refuses. decode_frame and every stream reader parse through this.
[[nodiscard]] std::size_t decode_frame_prefix(std::string_view bytes,
                                              bool at_end, Frame& frame);

// --- Job lifecycle state tokens (used in status-ok / cancel-ok args) ---

enum class JobState {
  kQueued,     ///< accepted, waiting for the executor
  kRunning,    ///< on the ensemble pool now
  kDone,       ///< finished; result document available
  kCancelled,  ///< cancelled before completion; no result
  kFailed,     ///< task body threw; refusal detail carries the message
};

[[nodiscard]] const char* job_state_name(JobState state);

/// Inverse of job_state_name. Throws ProtocolError on unknown tokens.
[[nodiscard]] JobState parse_job_state(std::string_view token);

/// True once a job can never change state again (done/cancelled/failed).
[[nodiscard]] bool is_terminal(JobState state);

// --- Refusal reason tokens (first arg of a refused frame) ---

inline constexpr const char* kRefusedQueueFull = "queue-full";
inline constexpr const char* kRefusedUnknownJob = "unknown-job";
inline constexpr const char* kRefusedUnknownModel = "unknown-model";
inline constexpr const char* kRefusedBadJob = "bad-job";
inline constexpr const char* kRefusedTooLarge = "too-large";
inline constexpr const char* kRefusedUnknownId = "unknown-id";
inline constexpr const char* kRefusedNotDone = "not-done";
inline constexpr const char* kRefusedJobFailed = "job-failed";
inline constexpr const char* kRefusedJobCancelled = "job-cancelled";
inline constexpr const char* kRefusedShuttingDown = "shutting-down";

// --- Embedded-document payload codecs ---

/// Encodes a submission payload: the job header as a shard document
/// carrying zero results (manifest {1, 0, tasks}). Throws
/// std::invalid_argument via shard::encode on specs that cannot
/// round-trip.
[[nodiscard]] std::string encode_job_payload(const shard::JobSpec& job);

/// Decodes a submission payload. Throws ProtocolError (wrapping the
/// underlying WireError text) if the document is malformed or carries
/// results — a submission describes work, it must not smuggle any.
[[nodiscard]] shard::JobSpec decode_job_payload(std::string_view text);

/// Encodes a result payload: the canonical complete document (manifest
/// {1, 0, tasks}) the batch harness would produce for this job.
[[nodiscard]] std::string encode_result_payload(
    const shard::JobSpec& job, std::span<const engine::TaskResult> results);

/// Decodes a result payload and checks completeness: every task in the
/// job's table must have a result. Throws ProtocolError otherwise.
[[nodiscard]] shard::ShardFile decode_result_payload(std::string_view text);

}  // namespace sops::service
