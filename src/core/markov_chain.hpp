// Algorithm 1: the Markov chain M for separation and integration.
//
// Each step: pick a particle P and one of its six neighboring locations
// l' uniformly at random, plus q ∈ (0,1). If l' is empty, P moves there
// when (i) it does not have five neighbors, (ii) Property 4 or 5 holds,
// and (iii) q < λ^(e'−e) · γ^(e'_i−e_i) (Metropolis filter). If l' holds
// a particle Q, P and Q swap with probability
// min{1, γ^(|N_i(l')\{P}|−|N_i(l)|+|N_j(l)\{Q}|−|N_j(l')|)}.
//
// Setting γ = 1 on a homogeneous system recovers exactly the compression
// chain of Cannon-Daymude-Randall-Richa (PODC '16), which serves as the
// baseline throughout the benchmarks. The implementation supports any
// number of colors k ≤ kMaxColors (the Section 5 generalization); the
// paper's analysis covers k = 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/locality.hpp"
#include "src/sops/particle_system.hpp"
#include "src/util/rng.hpp"

namespace sops::core {

/// Bias parameters of Algorithm 1.
struct Params {
  double lambda = 4.0;       ///< λ > 1: preference for more neighbors.
  double gamma = 4.0;        ///< γ > 1: preference for like-colored neighbors.
  bool swaps_enabled = true; ///< Swap moves (Section 2.3; ablated in §3.2).
};

/// The weight λ^(e'−e) · γ^(e'_i−e_i) for the non-swap move of the
/// particle at `l` toward direction `dir` (target must be empty; throws
/// std::invalid_argument otherwise). Exposed so tests can verify
/// detailed balance against Lemma 9 directly, and so the exact
/// transition matrix (src/exact/chain_matrix.hpp) is built from per-call
/// neighbor recounts independent of the step kernel.
[[nodiscard]] double move_weight_reference(const system::ParticleSystem& sys,
                                           const Params& p, lattice::Node l,
                                           int dir);

/// The weight γ^(...) for the swap of the particles at `l` and
/// `l + dir` (both must be occupied; throws std::invalid_argument
/// otherwise).
[[nodiscard]] double swap_weight_reference(const system::ParticleSystem& sys,
                                           const Params& p, lattice::Node l,
                                           int dir);

class SeparationChain {
 public:
  struct Counters {
    std::uint64_t steps = 0;
    std::uint64_t move_proposals = 0;      ///< target location empty
    std::uint64_t moves_accepted = 0;
    std::uint64_t rejected_five = 0;       ///< condition (i) failed
    std::uint64_t rejected_locality = 0;   ///< condition (ii) failed
    std::uint64_t rejected_metropolis = 0; ///< condition (iii) failed
    std::uint64_t swap_proposals = 0;      ///< target location occupied
    std::uint64_t swaps_accepted = 0;      ///< includes same-color no-ops
  };

  /// Takes ownership of the configuration. Throws std::invalid_argument
  /// for nonpositive λ or γ.
  SeparationChain(system::ParticleSystem sys, Params params,
                  std::uint64_t seed);

  [[nodiscard]] const system::ParticleSystem& system() const noexcept {
    return sys_;
  }
  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// One iteration of M, the reference every faster path is checked
  /// against. Returns true iff the configuration changed. Draws the
  /// proposal (particle, direction, Metropolis uniform), then executes
  /// it with per-call recounts on the FlatMap: neighbor_count walks,
  /// move_preserves_invariants_reference and the recounting
  /// apply_move. run() makes the same draws and decisions (asserted
  /// over long trajectories by tests).
  bool step();

  /// Runs `iterations` steps, byte-identical to the same number of
  /// step() calls: same trajectory, counters, and final RNG state.
  /// Proposals are decoded in blocks of kBlockSize and walked over a
  /// dense occupancy arena (below) instead of the FlatMap. The call's
  /// first block is decoded up front, and each later one while the walk
  /// runs the block before it; nothing is drawn past the call's last
  /// block. The chain keeps its arena across calls, so a trajectory
  /// split into many short run() calls builds it once.
  void run(std::uint64_t iterations);

  /// Checkpoint/resume support (src/checkpoint). A chain's resumable
  /// state beyond the configuration itself is exactly (RNG state,
  /// counters): restoring both into a chain rebuilt from the snapshotted
  /// positions/colors/params continues the identical trajectory — the
  /// same words leave the generator in the same order, and Measurement
  /// iteration stamps continue from the restored step count.
  [[nodiscard]] util::Rng::State rng_state() const noexcept {
    return rng_.state();
  }
  void set_rng_state(const util::Rng::State& s) noexcept {
    rng_.set_state(s);
  }
  /// Also drops run()'s arena, which is tied to the step count: a count
  /// set back to the one run() left would make a stale arena look
  /// current.
  void set_counters(const Counters& c) noexcept {
    counters_ = c;
    arena_ok_ = false;
  }

  /// Telemetry of run() only; never feeds back into any trajectory.
  struct RunStats {
    std::uint64_t blocks = 0;          ///< walked blocks
    std::uint64_t words = 0;           ///< raw words drawn for proposals
    std::uint64_t tail_words = 0;      ///< of those, Lemire rejections
    std::uint64_t arena_rebuilds = 0;  ///< arena (re)builds
    std::uint64_t flatmap_steps = 0;   ///< steps run by advance()
  };
  [[nodiscard]] const RunStats& run_stats() const noexcept {
    return run_stats_;
  }

  /// Proposals per decoded block of run(). Never changes a trajectory.
  static constexpr std::size_t kBlockSize = 256;

 private:
  /// step() after its three draws: executes one decoded proposal on the
  /// FlatMap occupancy index, which must be current, recounting every
  /// quantity it reads. Counts into counters_ every field but steps,
  /// which the caller owns.
  bool advance(system::ParticleIndex pi, int dir, double q);

  // ---- run(): walk a block over the arena, decode the next -----------
  //
  // While run() executes, a valid arena is the occupancy: accepted moves
  // and swaps go through arena_move / arena_swap, which update the
  // arena and, through ParticleSystem's index-free mutators, positions,
  // e(σ) and h(σ), but not the FlatMap. Ticks the arena cannot serve (a
  // refused arena, or a drift rebuild that declines mid-block) run
  // through advance() on the synced FlatMap, and run() syncs the map
  // on every exit, so every reader outside run() sees a current one.

  struct Proposal {
    std::int32_t pi;
    std::int32_t dir;
    std::uint64_t q;  ///< the raw Metropolis word
  };

  /// Runs the `count` proposals of `cur` and decodes the `next_count`
  /// of `next`, each word after every word of `cur`, adding the words
  /// drawn to `words`.
  void run_block(const Proposal* cur, std::size_t count, Proposal* next,
                 std::size_t next_count, std::uint64_t& words);
  /// The one decoder: proposals [from, to) of `out`, each the three
  /// draws of step() through util::lemire_below on `rng`, in step()'s
  /// order. Adds every word drawn to `words`.
  [[gnu::always_inline]] static inline void decode(util::Rng& rng,
                                                   std::uint64_t n,
                                                   Proposal* out,
                                                   std::size_t from,
                                                   std::size_t to,
                                                   std::uint64_t& words);
  /// Walks cur[0, count) over the arena and, at tick t < next_count,
  /// decodes next[t] from a local copy of rng_ that it stores back.
  /// Returns count, or the tick after the one whose drift rebuild
  /// declined the arena; next[0, min(that, next_count)) is decoded.
  std::size_t walk_arena(const Proposal* cur, std::size_t count,
                         Proposal* next, std::size_t next_count,
                         std::uint64_t& words);
  /// The arena update for an accepted move of `pi` toward `dir` with
  /// e(σ)/h(σ) deltas `de`/`dh`, then the guard-band rebuild. Returns
  /// false when that rebuild declined the arena. Force-inlined: it runs
  /// on every accept.
  [[gnu::always_inline]] inline bool arena_move(system::ParticleIndex pi,
                                                int dir, int de, int dh);
  /// The arena update for an accepted swap of `pi` with the neighbor
  /// `qj` of another color, swap exponent `sx`. A like-colored swap
  /// changes nothing and never gets here.
  [[gnu::always_inline]] inline void arena_swap(system::ParticleIndex pi,
                                                system::ParticleIndex qj,
                                                int sx);
  /// (Re)builds the arena around the bounding box; arena_ok_ = false
  /// when the box is uneconomical (see the economy rule there).
  void rebuild_arena();

  [[nodiscard]] double pow_lambda(int k) const noexcept {
    return pow_lambda_[static_cast<std::size_t>(k + kMaxExp)];
  }
  [[nodiscard]] double pow_gamma(int k) const noexcept {
    return pow_gamma_[static_cast<std::size_t>(k + kMaxExp)];
  }

  // Exponents reachable in one step: moves use e'−e, e'_i−e_i ∈ [−5, 5];
  // swaps use a sum of two such differences, bounded by ±10.
  static constexpr int kMaxExp = 12;

  system::ParticleSystem sys_;
  Params params_;
  util::Rng rng_;
  Counters counters_;
  double pow_lambda_[2 * kMaxExp + 1];
  double pow_gamma_[2 * kMaxExp + 1];

  // run()'s state, derived from the configuration. The two proposal
  // blocks, walked and decoded ahead, are sized on the first run().
  std::vector<Proposal> block_;
  // The arena: a dense w_ × h_ plane of 32-bit cells over the bounding
  // box plus a margin, box origin (x0_, y0_). pcell_[i] packs particle
  // i's cell index (low 28 bits) with its encoded color nibble.
  std::vector<std::uint32_t> cells_;
  std::vector<std::uint32_t> pcell_;
  std::int64_t x0_ = 0, y0_ = 0, w_ = 0, h_ = 0;
  std::int32_t ring_off_[6][8] = {};  ///< [dir][k]: EdgeRing node k
  std::int32_t lp_off_[6] = {};       ///< [dir]: l' = l + dir
  bool arena_ok_ = false;
  // counters_.steps when run() last returned: the arena is current only
  // while the step counter still reads it, so a step() between run()
  // calls makes the next run() rebuild.
  std::uint64_t arena_steps_ = 0;
  RunStats run_stats_;
};

/// The PODC '16 compression chain: M with γ = 1 on a homogeneous system.
[[nodiscard]] SeparationChain make_compression_chain(
    std::span<const lattice::Node> positions, double lambda,
    std::uint64_t seed);

}  // namespace sops::core
