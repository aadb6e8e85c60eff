// Versioned, line-oriented snapshot format for resumable model runs.
//
// A snapshot file is the complete resumable state of ONE ensemble task:
// the measurement series recorded so far plus the owning model's
// serialized live state (ChainModel::save_state() lines — parameters,
// RNG, counters, configuration — in a grammar the model owns).
// Restoring a snapshot and continuing the run produces a trajectory
// byte-identical to the uninterrupted one.
//
// The format shares the shard wire's line grammar (src/util/record.hpp)
// and its `m` measurement record:
//
//  * Parse-or-fail. Fixed keywords and token counts per line; any
//    deviation throws SnapshotError naming the line and field. No
//    defaults, no best-effort recovery.
//  * Exact values. Doubles are C99 hexfloats; decode(encode(x)) is
//    bit-identical.
//  * Tamper-evident. The penultimate line is an FNV-1a checksum of every
//    preceding byte, so a bit-flipped or hand-truncated file is refused
//    as "checksum mismatch" rather than trusted.
//  * Crash-safe. write_snapshot() writes to `<path>.tmp`, fsyncs, then
//    rename(2)s over `path` — a kill -9 at any instant leaves either the
//    previous complete snapshot or the new one, never a torn file.
//    SnapshotWriter runs it on a thread of its own, so a chain pays only
//    for the capture.
//  * Versioned. Line 1 names the format; readers reject every version
//    but their own.
//
// Identity: every snapshot records the owning job's name, its model
// tag, a spec hash over the job's entire wire header (model, grid,
// protocol, params, task table), and the task's (index, seed). Resume
// refuses a snapshot whose identity does not match the job being run —
// a stale checkpoint directory from a different sweep, or a snapshot
// from a different model family, is a named error, not silent reuse.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/runner.hpp"
#include "src/engine/ensemble.hpp"
#include "src/model/model.hpp"
#include "src/shard/wire.hpp"

namespace sops::checkpoint {

// v2 replaced the separation-typed body (params/rng/counters/particles)
// with a `model` tag plus an opaque model-state block, making the codec
// model-generic. Only v2 is read.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Malformed snapshot input. `what()` names the offending line or field.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One task's resumable state. `complete` snapshots additionally carry
/// the task's aux scalars so a resumed sweep can skip the task without
/// re-running it (or re-firing its on_sample hooks); fn-backed tasks
/// checkpoint only at completion with an empty state block.
struct Snapshot {
  std::string job;                 ///< owning job name (JobSpec::name)
  std::string model = "separation";  ///< model tag (JobSpec::model)
  std::uint64_t spec_hash = 0;     ///< spec_hash() of the owning JobSpec
  std::uint64_t task_index = 0;
  std::uint64_t task_seed = 0;
  bool complete = false;

  std::vector<core::Measurement> series;  ///< measurements recorded so far
  std::vector<double> aux;                ///< complete snapshots only

  /// ChainModel::save_state() lines, stored verbatim (grammar owned by
  /// the model). Empty only on stateless completion snapshots; partial
  /// snapshots must carry state.
  std::vector<std::string> state;
};

/// FNV-1a hash of the job's full wire header (name, model, grid,
/// protocol, params, dense task table — everything shard merges
/// compare). Two JobSpecs hash equal iff the wire would call them the
/// same job, so a snapshot refuses to resume under a drifted spec by
/// construction.
[[nodiscard]] std::uint64_t spec_hash(const shard::JobSpec& job);

/// Canonical snapshot filename for one task: "<job>-task<%06llu>.sopsckpt".
[[nodiscard]] std::string task_filename(std::string_view job,
                                        std::uint64_t task_index);

/// Serializes a snapshot (checksum line included).
[[nodiscard]] std::string encode(const Snapshot& snap);

/// Parses a complete snapshot document. Strict: throws SnapshotError on
/// any grammar deviation, version skew, or checksum mismatch.
[[nodiscard]] Snapshot decode(std::string_view text);

/// Atomically replaces `path` with the encoded snapshot (tmp + fsync +
/// rename). Throws std::runtime_error on I/O failure, naming the call
/// that failed (open, write, fsync, close or rename), the file and
/// strerror(errno).
void write_snapshot(const std::string& path, const Snapshot& snap);

/// Makes snapshots durable off the threads that take them: one
/// background thread runs write_snapshot on what post() hands it.
///  * A path has at most one queued snapshot; a newer post replaces it
///    in place, and the replaced one counts as superseded.
///  * Paths are written in the order they became pending, so a path
///    posted faster than a write completes cannot starve the others.
///  * A path is never written twice at once: there is one writer
///    thread, and write() waits for the path's write in flight.
/// Together these keep an older snapshot from renaming over a newer
/// one. Each path has one owner: post() and write() of one path must
/// not race each other. A failed background write is rethrown by the
/// owner's next post() or write() of that path. The destructor writes
/// what is still queued and joins; an error no owner took is printed
/// to stderr.
class SnapshotWriter {
 public:
  struct Counts {
    std::size_t written = 0;     ///< durable writes, write() calls included
    std::size_t superseded = 0;  ///< posts dropped before their write began
  };

  SnapshotWriter();
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Queues `snap` for `path` and returns without waiting for the write.
  void post(const std::string& path, Snapshot snap);

  /// Writes `snap` to `path` on the calling thread, durably, after
  /// dropping the snapshot of `path` still queued and waiting for the
  /// one in flight.
  void write(const std::string& path, const Snapshot& snap);

  [[nodiscard]] Counts counts() const;

 private:
  struct Slot {
    std::optional<Snapshot> queued;
    bool busy = false;  ///< the writer thread is writing this path
    std::exception_ptr error;
  };

  void run();

  mutable std::mutex mutex_;  // guards every field up to thread_
  std::condition_variable wake_;  // writer: a path is pending, or stop_
  std::condition_variable idle_;  // write(): a background write finished
  std::unordered_map<std::string, Slot> slots_;
  std::deque<std::string> pending_;  // paths with a queued snapshot, FIFO
  Counts counts_;
  bool stop_ = false;
  std::thread thread_;
};

/// Reads and decode()s `path`. Throws std::runtime_error if unreadable,
/// SnapshotError if malformed (message includes the path).
[[nodiscard]] Snapshot read_snapshot(const std::string& path);

/// Captures a model-backed task's state (tag + save_state() lines).
/// `series`/`aux` are copied in; pass the measurements recorded so far
/// (aux empty unless complete).
[[nodiscard]] Snapshot capture(const model::ChainModel& m, std::string job,
                               std::uint64_t spec_hash,
                               const engine::Task& task, bool complete,
                               std::vector<core::Measurement> series,
                               std::vector<double> aux = {});

/// Completion snapshot for an fn-backed task (no model state to carry).
[[nodiscard]] Snapshot capture_stateless(std::string job, std::string model,
                                         std::uint64_t spec_hash,
                                         const engine::Task& task,
                                         std::vector<core::Measurement> series,
                                         std::vector<double> aux);

/// Rebuilds a live trajectory from a partial snapshot by dispatching
/// the state block to the registered factory for `snap.model`. Throws
/// SnapshotError if the model is not registered or the state cannot be
/// live (wrapping the factory's ModelError message).
[[nodiscard]] std::unique_ptr<model::ChainModel> restore_model(
    const Snapshot& snap);

}  // namespace sops::checkpoint
