// Uniform CLI surface for every bench harness.
//
// Every harness accepts:
//   --full         paper-scale iteration counts (defaults are ~10x smaller
//                  so the whole suite runs in a few minutes)
//   --seed S       base RNG seed
//   --threads N    engine tasks at once (0 = hardware concurrency);
//                  results are bit-identical for every N — see src/engine
//   --telemetry F  append per-task JSONL telemetry records to F
//
// Grid-shaped harnesses additionally expose the multi-host sharding
// surface (parse_options(..., with_shard = true)):
//   --shard k/n      run shard k of n (contiguous task-index slice)
//   --task-range a:b run the explicit half-open task range [a, b)
//   --shard-out F    write this shard's wire-format result file to F
//   --merge F1,F2,…  skip the sweep; merge shard files and report
//   --merge-dir DIR  as --merge, globbing DIR/*.shard and *.sopsshard
//   --submit SOCKET  run the sweep on the sweep server listening at
//                    this AF_UNIX socket instead of in-process, then
//                    report locally (byte-identical; see src/service);
//                    offered only where the server runs the job
//                    (parse_options(..., with_submit = true))
//   --checkpoint-dir DIR    write per-task snapshots to DIR
//   --checkpoint-every N    also snapshot chain-backed tasks mid-run
//                           every N steps (0 = at completion only); a
//                           snapshot still queued for writing when the
//                           next is taken is replaced
//   --resume                adopt matching snapshots in DIR: skip
//                           completed tasks, continue partial ones; the
//                           resumed run's report is byte-identical to an
//                           uninterrupted one (see src/checkpoint)
// See src/shard and DESIGN.md for the wire format and the byte-identity
// contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sops::harness {

/// Exit-code contract shared by every harness and sops_shard_merge:
/// usage errors (bad flags, conflicting modes, unwritable output paths)
/// exit 2; data-validation failures (unreadable or malformed shard
/// files, inconsistent or incomplete shard sets) exit 1 — so scripts can
/// tell an operator typo from a corrupt artifact.
inline constexpr int kUsageError = 2;
inline constexpr int kDataError = 1;

struct Options {
  bool full = false;
  std::uint64_t seed = 1;
  unsigned threads = 0;    ///< engine pool size; 0 = hardware concurrency
  std::string telemetry;   ///< JSONL telemetry path; empty = disabled

  // Sharding surface (populated only for with_shard harnesses).
  bool shard_set = false;          ///< --shard k/n given
  std::uint64_t shard_k = 0;
  std::uint64_t shard_n = 1;
  bool range_set = false;          ///< --task-range a:b given
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  std::string shard_out;           ///< worker result file; empty = disabled
  std::vector<std::string> merge_inputs;  ///< --merge file list
  std::string merge_dir;           ///< --merge-dir; empty = disabled
  std::string submit;              ///< --submit server socket; empty = local

  // Checkpoint/resume surface (see src/checkpoint).
  std::string checkpoint_dir;      ///< snapshot directory; empty = disabled
  std::uint64_t checkpoint_every = 0;  ///< mid-task snapshot period (steps)
  bool resume = false;             ///< adopt snapshots found in the directory

  /// Raw arguments matching the spec's passthrough prefix (e.g. the
  /// --benchmark_* namespace bench_kernels forwards to google-benchmark).
  std::vector<std::string> passthrough;

  /// Scales a default iteration budget up to paper scale under --full.
  [[nodiscard]] std::uint64_t scaled(std::uint64_t base,
                                     std::uint64_t full_scale = 10) const {
    return full ? base * full_scale : base;
  }
};

/// Parses the common flags; exits(0) on --help, exits(kUsageError) on
/// bad arguments or unwritable --telemetry/--shard-out paths. Pass
/// with_shard to expose the sharding surface, and with_submit as well
/// to offer --submit; a sharding harness without it refuses --submit
/// with kUsageError, naming the jobs the sweep server runs. A non-null
/// passthrough_prefix collects matching raw arguments verbatim.
[[nodiscard]] Options parse_options(int argc, char** argv, bool with_shard,
                                    bool with_submit,
                                    const char* passthrough_prefix = nullptr);

}  // namespace sops::harness
