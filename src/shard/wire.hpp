// Versioned, line-oriented wire format for sharded ensemble jobs.
//
// A shard result file is a plain-text artifact a worker host can emit
// and a coordinator can ingest with zero shared state: one `JobSpec`
// header describing the whole job (grid axes, seeding, chain protocol,
// and the dense expected task table), followed by this shard's
// `TaskResult` records. Design rules:
//
//  * Parse-or-fail. Every line has a fixed keyword and token count
//    (the util::record grammar); any deviation — wrong magic, unknown
//    version, short file, trailing bytes, out-of-order records, a count
//    larger than the input — throws WireError with a line number.
//    There are no defaults and no "best effort" recovery: a truncated
//    scp is a refused file, not a silently shorter sweep.
//  * Exact doubles. All floating-point values are serialized as C99
//    hexfloats (`%a`), so decode(encode(x)) is bit-identical — including
//    negative zero and denormals — and `nan`/`inf`/`-inf` round-trip as
//    themselves. This is what makes a merged report byte-identical to a
//    single-host run.
//  * Deterministic bytes. encode() output depends only on the values,
//    never on thread count or timing; TaskResult::wall_seconds is
//    deliberately NOT serialized (it is telemetry, and would make two
//    otherwise-identical shard files differ).
//  * Versioned. Line 1 names the format and version. Readers reject
//    versions they don't know; any change to the line grammar bumps
//    kWireVersion (see DESIGN.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/ensemble.hpp"
#include "src/util/record.hpp"

namespace sops::shard {

// v2 added the `manifest` line (expected shard-file count + this file's
// task range) so an incomplete merge can name the missing *file*, not
// just the missing task indices. v3 added the `model` line naming the
// model family every task runs. Only v3 is read.
inline constexpr std::uint32_t kWireVersion = 3;

/// Malformed wire input. `what()` includes the 1-based line number.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything that identifies one sweep: which harness, the parameter
/// grid and seeding policy, the chain protocol driving each task, and
/// the dense task table (index → λ, γ, replica, seed) every shard must
/// agree on. Two shard files merge only if their JobSpecs are identical.
struct JobSpec {
  std::string name;        ///< harness identifier; single token, no spaces

  /// Registry tag of the model family every task runs. Part of job
  /// identity: shards from different models never merge, and the
  /// checkpoint spec hash covers it.
  std::string model = "separation";

  engine::GridSpec grid;   ///< axes + replicas + seeding policy

  /// Chain protocol (mirrors engine::ChainJob): checkpoint mode when
  /// `checkpoints` is nonempty, equilibrium mode otherwise. Harnesses
  /// that drive chains by hand leave these zero and describe themselves
  /// via `params`.
  std::vector<std::uint64_t> checkpoints;
  std::uint64_t burn_in = 0;
  std::uint64_t interval = 0;
  std::uint64_t samples = 0;

  /// Extra identity fields as "key=value" tokens (iteration budgets,
  /// sweep axes that aren't λ/γ, --full scaling…). Order-significant;
  /// compared verbatim on merge, so a shard run at default scale cannot
  /// be merged into a --full job.
  std::vector<std::string> params;

  /// Dense expected task table; tasks[i].index == i. The merge step
  /// checks every shard's table element-wise, so a worker launched with
  /// the wrong --seed is reported by task index, not by a vague
  /// "headers differ".
  std::vector<engine::Task> tasks;
};

/// Provenance of one shard file within a planned split: how many shard
/// files the producing run expects in total, and the half-open task
/// range [begin, end) this file claims. `n_shards == 0` means "not part
/// of a counted split" (a `--task-range` worker); a canonical merged
/// artifact is its own complete set of one. The manifest is transport
/// metadata — it is NOT part of job identity and two files may carry
/// different manifests — but it lets an incomplete merge name the
/// missing file ("shard 1/3 covering tasks 6:11") instead of only the
/// missing task indices.
struct Manifest {
  std::uint64_t n_shards = 1;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One decoded shard file: the job header plus the task results this
/// shard carries (any strictly-increasing subset of the task table
/// within the manifest's range).
struct ShardFile {
  JobSpec job;
  Manifest manifest;
  std::vector<engine::TaskResult> results;
};

/// Serializes header + results. A nullopt manifest means "complete set
/// of one covering the whole table" ({1, 0, tasks.size()}). Throws
/// std::invalid_argument on specs that cannot round-trip
/// (empty/multi-token name, tasks[i].index != i, params containing
/// whitespace, results out of order, off-table, or outside the
/// manifest's range).
[[nodiscard]] std::string encode(
    const JobSpec& job, std::span<const engine::TaskResult> results,
    const std::optional<Manifest>& manifest = std::nullopt);

/// Parses a complete wire document. Strict: throws WireError on any
/// deviation from the grammar, including trailing content after `end`.
/// Decoded results carry task identity copied from the header table and
/// wall_seconds == 0 (not on the wire).
[[nodiscard]] ShardFile decode(std::string_view text);

/// encode() to `path` (truncating). Throws std::runtime_error on I/O
/// failure, including short writes.
void write_shard_file(const std::string& path, const JobSpec& job,
                      std::span<const engine::TaskResult> results,
                      const std::optional<Manifest>& manifest = std::nullopt);

/// Reads and decode()s `path`. Throws std::runtime_error if unreadable,
/// WireError if malformed (message includes the path).
[[nodiscard]] ShardFile read_shard_file(const std::string& path);

/// The `m` record that carries one Measurement, in the wire and in
/// checkpoint snapshots alike:
///   m <iteration> <perimeter> <edges> <hetero_edges> <p_ratio> <h_frac>
/// put_measurement appends it as a new line ("\nm …").
void put_measurement(std::string& out, const core::Measurement& m);
[[nodiscard]] core::Measurement get_measurement(util::record::Cursor& in);

}  // namespace sops::shard
