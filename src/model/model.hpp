// The model seam: everything above src/core (engine, checkpoint,
// service, harness) drives simulations through this interface instead of
// naming a concrete chain type. A ChainModel owns one trajectory — RNG,
// counters, configuration — and exposes exactly what the generic stack
// needs: advance, measure, and serialize/restore for checkpointing.
//
// Determinism contract (inherited from core): a model's trajectory is a
// pure function of its construction inputs; run(a); run(b) is identical
// to run(a + b); save_state() captures enough to make a restored model's
// future byte-identical to the original's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/runner.hpp"
#include "src/util/record.hpp"

namespace sops::model {

/// Errors in model construction or state restore: bad parameters,
/// malformed state lines, unknown tags. The message is phrased for the
/// layer that asked (service refusals, checkpoint rejects) to wrap.
class ModelError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One simulation trajectory behind a model-agnostic interface. Always
/// held by unique_ptr; neither copyable nor movable.
class ChainModel {
 public:
  ChainModel() = default;
  ChainModel(const ChainModel&) = delete;
  ChainModel& operator=(const ChainModel&) = delete;
  virtual ~ChainModel() = default;

  /// The registry tag this model was built under ("separation",
  /// "alignment", …). Snapshots and wire documents carry it; mixing
  /// tags is a named refusal everywhere.
  [[nodiscard]] virtual std::string_view tag() const noexcept = 0;

  /// Advances the trajectory by exactly `iterations` proposals.
  virtual void run(std::uint64_t iterations) = 0;

  /// Proposals executed so far (the model's absolute clock).
  [[nodiscard]] virtual std::uint64_t steps() const noexcept = 0;

  /// Scalar observables of the current configuration, in the shared
  /// Measurement layout. Models map their natural observables onto the
  /// slots; observable_names() documents the mapping per slot.
  [[nodiscard]] virtual core::Measurement measure() const = 0;

  /// Human-readable names for the Measurement slots, in field order:
  /// {iteration, perimeter, edges, hetero_edges, perimeter_ratio,
  /// hetero_fraction}. Reports use these to label columns honestly when
  /// a model repurposes a slot (e.g. Ising magnetization).
  [[nodiscard]] virtual std::vector<std::string> observable_names()
      const = 0;

  /// Serializes the full live state (parameters, RNG, counters,
  /// configuration) as newline-free token lines. The format is owned by
  /// the model; the checkpoint codec stores the lines verbatim and
  /// hands them back to Factory::restore. Empty only for models with no
  /// restorable state.
  [[nodiscard]] virtual std::vector<std::string> save_state() const = 0;

  /// Two hooks no built-in model overrides, kept because decorators
  /// that forward every virtual to a wrapped model (the benchmark's
  /// trace decorator) override them. set_pipeline_block is a no-op:
  /// SeparationChain::run decodes fixed blocks
  /// (core::SeparationChain::kBlockSize), and block size never changes
  /// a trajectory. band_chain returns nullptr: no executor outside a
  /// model advances its chain.
  virtual void set_pipeline_block(std::size_t /*block*/) {}
  [[nodiscard]] virtual core::SeparationChain* band_chain() noexcept {
    return nullptr;
  }
};

// ---- Measurement protocols ---------------------------------------------
//
// Every protocol lowers to a list of absolute targets and one walk runs
// that list, so the plain and checkpointed engine paths and the two
// drivers below cannot disagree about where a chain is measured.

/// One point of a lowered protocol: run to absolute iteration `at`, then
/// measure there when `record` is set. The one unrecorded target is an
/// equilibrium protocol's bare burn-in (samples == 0).
struct Target {
  std::uint64_t at = 0;
  bool record = true;
};

/// The checkpoint protocol: one recorded target per listed iteration,
/// repeats included (each measures again without stepping).
[[nodiscard]] std::vector<Target> checkpoint_targets(
    std::span<const std::uint64_t> checkpoints);

/// The equilibrium protocol from absolute iteration `start`: recorded
/// targets at start + burn_in + k·interval for k < samples, or one
/// unrecorded target at start + burn_in when samples == 0.
[[nodiscard]] std::vector<Target> equilibrium_targets(std::uint64_t start,
                                                      std::uint64_t burn_in,
                                                      std::uint64_t interval,
                                                      std::size_t samples);

/// Walks the model through `targets`, resuming at target series.size()
/// (a resumed walk carries the measurements it already took), and
/// returns the full series. With `pause_every` != 0, `on_pause` sees the
/// model and the series at each multiple of it that falls strictly
/// inside a segment, so never at a target. Pausing never changes the
/// trajectory: run(a); run(b) is run(a + b).
std::vector<core::Measurement> walk(
    ChainModel& model, std::span<const Target> targets,
    const std::function<void(const ChainModel&)>& on_sample = {},
    std::vector<core::Measurement> series = {}, std::uint64_t pause_every = 0,
    const std::function<void(const ChainModel&,
                             const std::vector<core::Measurement>&)>&
        on_pause = {});

/// Runs the model to each absolute iteration in `checkpoints` (must be
/// nondecreasing; a leading 0 records the initial state) and returns one
/// Measurement per checkpoint. Repeated targets measure repeatedly;
/// a decreasing target throws std::invalid_argument when reached.
std::vector<core::Measurement> run_with_checkpoints(
    ChainModel& model, std::span<const std::uint64_t> checkpoints,
    const std::function<void(const ChainModel&, std::uint64_t)>&
        on_checkpoint = {});

/// Equilibrium sampling: runs `burn_in` steps from the model's current
/// step, then records `samples` measurements `interval` steps apart
/// (the first at the end of the burn-in), invoking `on_sample` (if set)
/// at each sample point.
std::vector<core::Measurement> sample_equilibrium(
    ChainModel& model, std::uint64_t burn_in, std::uint64_t interval,
    std::size_t samples,
    const std::function<void(const ChainModel&)>& on_sample = {});

// ---- Pieces shared by the built-in models' state and param grammars ----
//
// save_state() blocks are util::record lines; Factory::restore reads
// them with a record::Cursor. The registry reports the cursor's grammar
// errors, and construction failures of the restored system, as
// ModelError("state: …").

/// `rng <hex16>×4`.
[[nodiscard]] std::string rng_line(const util::Rng::State& state);

/// Reads an `rng` line, refusing the all-zero state (not a live chain:
/// a stateless completion snapshot, or corrupt).
[[nodiscard]] util::Rng::State read_rng(util::record::Cursor& in);

/// Appends `particles <n>` and one `p <x> <y> <color>` line per
/// particle.
void put_particles(std::vector<std::string>& out,
                   const system::ParticleSystem& sys);

/// Reads the particles block back. Refuses an empty list, colors at or
/// above `n_colors` (named `color_name` in the error), and coordinates
/// beyond ±2^30, which keeps every neighbor step and coordinate
/// difference the lattice takes in int32.
[[nodiscard]] system::ParticleSystem read_particles(
    util::record::Cursor& in, std::uint64_t n_colors,
    std::string_view color_name);

/// Parses one "key=value" param value for Factory::build. Throws
/// ModelError "<field>: expected unsigned integer, got '<token>'"
/// (param_double: "expected number") — phrased so the service layer's
/// "service: job 'X': " prefix composes into its refusal format.
[[nodiscard]] std::uint64_t param_u64(std::string_view field,
                                      std::string_view token);
[[nodiscard]] double param_double(std::string_view field,
                                  std::string_view token);

}  // namespace sops::model
