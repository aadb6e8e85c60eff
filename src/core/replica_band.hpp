// The batched executor of Algorithm 1: lock-step advance of 1–8
// chains sharing the same (n, λ, γ).
//
// Within one chain, steps are inherently sequential — every proposal
// reads the configuration the previous step wrote — so a single chain
// is a width-1 band: SeparationChain::run and the separation model run
// every trajectory that way, batching the RNG draws and reading
// occupancy from a dense arena instead of the FlatMap. Across the
// replicas of a sweep point steps are perfectly independent, and that
// is the axis the band vectorizes. ReplicaBand binds 1–8 chains
// sharing the same particle count and parameters and advances them in
// lock-step "ticks", one step per replica per tick:
//
//  - REFILL/DECODE keeps one util::Rng stream per replica, and for a
//    full 8-lane band runs the stream itself in SIMD: the xoshiro256++
//    states live as structure-of-arrays vector registers, each tick
//    generates the band's three raw words with vector rotate/xor, and
//    the Lemire multiply-shift decode happens in 64-bit vector lanes.
//    The decode is bit-exact: a lane whose word would take the (once
//    per ~2^40 draws) rejection branch is detected and replayed on the
//    scalar util::lemire_below path from its pre-block state, so word
//    consumption stays identical to serial step(). Ragged lanes and
//    narrower bands decode scalar (Rng::fill + lemire_below) as well.
//    Proposals land in lane-transposed arrays (tick-major, lane-minor)
//    so one tick's band of proposals is a contiguous vector load.
//  - EXECUTE vectorizes ACROSS lanes. Every replica owns a dense
//    occupancy-mirror plane inside one contiguous arena with shared
//    plane geometry, so the ten neighborhood loads of eight replicas
//    become AVX2 gathers; the per-direction cell offsets and the
//    Properties 4/5 ring LUT are answered by in-register permutes
//    (vpermd) rather than more gathers, a packed per-particle SoA
//    (arena cell index + color nibble in one int32) collapses the
//    position/color lookups to a single gather, and the Metropolis
//    accept comes from gathered pow_lambda_/pow_gamma_ table loads —
//    the move and swap weight indices are blended into one shared
//    multiply+compare, exact because λ^0 ≡ 1.0 — bit-identical per
//    lane to step()'s `q >= λ^Δe · γ^Δe_i` (resp. `q >= γ^sx`) test.
//    Lanes whose step quota ran out mid-block are masked off inside
//    the tick instead of demoting the band, so ragged quotas stay
//    vectorized. Accepted lanes (typically a small minority) apply
//    scalar through the same arena update the scalar arena walk uses.
//
// Arena cells are the 32-bit encoding of cell_codec.hpp.
//
// While run() executes, a valid arena is each lane's occupancy. The
// arena walk and the SIMD path's applies share one arena update per
// accepted move or swap (arena_move / arena_swap), which moves
// particles through ParticleSystem's index-free mutators: they update
// positions, e(σ) and h(σ) but leave the FlatMap stale, so no FlatMap
// insert or erase runs while the band holds its arena. A tick the arena
// cannot serve runs step()'s own body (SeparationChain::advance) after
// its lane's map is synced, and run() syncs every lane on exit (an
// exception included), so every reader outside run() — step(),
// measurement, save_state(), the invariant checks — sees a current map.
//
// Dispatch is runtime: the SIMD path engages only for a full 8-lane
// band, when the CPU reports AVX2, `SOPS_FORCE_SCALAR` is not set, and
// the arena covers every lane's bounding box economically. Everything
// else — narrower bands (a single chain included), arena-cap refusals,
// drift rebuilds that decline mid-run — falls back to per-lane scalar
// execution over the arena or, failing that, step()'s body on the
// FlatMap. All paths produce the same bytes.
//
// The contract, pinned by tests/replica_band_test.cpp: after
// ReplicaBand::run, every bound chain is byte-identical to a twin
// advanced by the same number of serial step() calls — positions,
// colors, edge counts, all eight counters, and post-run RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/core/markov_chain.hpp"

namespace sops::core {

class ReplicaBand {
 public:
  /// Lanes per band: one AVX2 gather of eight 32-bit cells, the only
  /// width the SIMD path runs.
  static constexpr std::size_t kMaxWidth = 8;
  static constexpr std::size_t kDefaultBlockSize = 256;
  static constexpr std::size_t kMaxBlockSize = 4096;

  /// Execution-path selection. kAuto resolves to SIMD when the CPU
  /// supports AVX2 and the SOPS_FORCE_SCALAR environment variable is
  /// unset; kScalar forces the per-lane fallback (CI exercises it
  /// explicitly).
  enum class Mode { kAuto, kScalar };

  /// Telemetry only; never feeds back into any trajectory. Surfaced as
  /// benchmark counters by BM_ReplicaBand (simd_fraction = simd_steps /
  /// (simd_steps + scalar_steps) is the SIMD-coverage gate CI checks).
  struct Stats {
    std::uint64_t blocks = 0;        ///< decode/execute blocks
    std::uint64_t refill_words = 0;  ///< bulk-refilled raw words
    std::uint64_t tail_words = 0;    ///< Lemire-rejection spill draws
    std::uint64_t simd_steps = 0;    ///< steps executed on the SIMD path
    std::uint64_t scalar_steps = 0;  ///< steps executed on scalar paths
    std::uint64_t arena_rebuilds = 0;///< arena (re)builds
  };

  /// Binds to `chains` (kept by pointer; all must outlive the band).
  /// Requires 1..kMaxWidth chains agreeing on particle count, λ, γ, and
  /// swaps_enabled; throws std::invalid_argument otherwise. Replicas
  /// differ only in configuration and RNG stream — exactly the sweep
  /// grid's replica axis.
  explicit ReplicaBand(std::span<SeparationChain* const> chains,
                       std::size_t block_size = kDefaultBlockSize,
                       Mode mode = Mode::kAuto);

  /// Advances every lane by `iterations` steps, byte-identical per lane
  /// to `iterations` serial step() calls on that chain.
  void run(std::uint64_t iterations);

  /// Per-lane step quotas (size() == width()): lane r advances by
  /// exactly quotas[r] steps. Lanes whose quota runs out mid-band drop
  /// to the scalar path for the ragged ticks; the rest stay vectorized.
  /// This is how the ensemble drives replicas whose measurement
  /// schedules diverge.
  ///
  /// The arena survives across run() calls: it is rebuilt only when a
  /// bound chain's step counter moved outside the band (the counter is
  /// monotone, so any interleaved serial stepping is detected). So a
  /// bound chain's state must not be replaced in place at an unchanged
  /// step count.
  void run(std::span<const std::uint64_t> quotas);

  [[nodiscard]] std::size_t width() const noexcept { return chains_.size(); }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// True when the resolved mode can use AVX2 (a full 8-lane band and
  /// the arena permitting).
  [[nodiscard]] bool simd_enabled() const noexcept { return simd_; }

  /// What Mode::kAuto resolves to on this machine right now (CPU
  /// capability ∧ !SOPS_FORCE_SCALAR). Exposed for tests and benches.
  [[nodiscard]] static bool auto_simd() noexcept;

 private:
  // Packed per-particle SoA: low kIdxBits bits hold the particle's
  // arena cell index, top nibble its encoded color (c ^ 0xF).
  static constexpr int kIdxBits = 28;
  static constexpr std::uint32_t kIdxMask = (1u << kIdxBits) - 1;
  static constexpr std::int64_t kArenaMargin = 8;
  static constexpr std::int64_t kArenaSlack = 3;

 public:
  /// Spilled per-tick decision vectors of the 8-lane band, handed from
  /// the SIMD decide kernel to the scalar apply walk. Written only on
  /// ticks with at least one accepted lane — most ticks never touch it.
  struct Spill {
    alignas(32) std::int32_t pi[8];
    alignas(32) std::int32_t dir[8];
    alignas(32) std::int32_t de[8];
    alignas(32) std::int32_t dh[8];
    alignas(32) std::int32_t sx[8];
    alignas(32) std::int32_t lpc[8];
  };

 private:

  void run_block(const std::size_t* active);
  /// Decodes ticks [from, to) of lane `r` on the scalar path: Rng::fill
  /// bulk refill + the shared util::lemire_below, rejection spills
  /// drawn from the live generator.
  void decode_lane(std::size_t r, std::size_t from, std::size_t to);
  /// Decodes ticks [0, ticks) for the full 8-lane band with the
  /// vectorized xoshiro256++/Lemire path; lanes that would hit the
  /// Lemire rejection branch are replayed scalar from their pre-call
  /// RNG state. Requires n < 2^24 (the vector rejection test's range).
  void decode_group_simd(std::size_t ticks);
  /// Executes decoded ticks [from, to) of lane `r` on the scalar path
  /// over the arena. Returns `to` normally, or the tick after the one
  /// whose drift rebuild declined the arena; the caller runs the rest
  /// through SeparationChain::advance.
  std::size_t execute_lane(std::size_t r, std::size_t from, std::size_t to);
  /// Executes ticks [0, max over the lanes of active[j]) for the full
  /// 8-lane band with AVX2 gathers; lanes whose active count is below
  /// the current tick are masked off. Returns the tick it stopped at
  /// (the max normally; early when a drift rebuild declined the arena).
  std::size_t execute_group_simd(const std::size_t* active);
  /// Applies the accepted moves/swaps of one tick (mask bits of
  /// mm_macc / mm_sacc) scalar through arena_move / arena_swap. Returns
  /// false when a drift rebuild declined the arena (caller stops the
  /// SIMD walk after this tick).
  bool apply_group(int mm_macc, int mm_sacc, const Spill& sp);
  /// The one arena update for an accepted move of lane r's particle
  /// `pi` toward `dir`, with e(σ)/h(σ) deltas `de`/`dh`: the index-free
  /// move, then, while the arena is valid, the cell, the packed SoA and
  /// the guard-band rebuild. Returns false when the arena was declined
  /// before the call or by that rebuild. Force-inlined: it runs on
  /// every accept.
  [[gnu::always_inline]] inline bool arena_move(std::size_t r,
                                                system::ParticleIndex pi,
                                                int dir, int de, int dh);
  /// The one arena update for an accepted swap of lane r's particle
  /// `pi` with `qj` at pi + dir, swap exponent `sx`: the index-free
  /// swap, then, while the arena is valid, the masked cell exchange.
  [[gnu::always_inline]] inline void arena_swap(std::size_t r,
                                                system::ParticleIndex pi,
                                                system::ParticleIndex qj,
                                                int dir, int sx);

  /// (Re)builds the shared-geometry arena, the per-lane position/color
  /// SoA and the direction offset tables; arena_ok_ = false when any
  /// lane's bounding box makes the shared plane uneconomical.
  void rebuild_arena();
  void fill_arena(std::int64_t plane);
  void flush_counters(const std::size_t* active);

  std::vector<SeparationChain*> chains_;
  std::size_t block_size_;
  bool simd_ = false;

  // Decoded proposals, tick-major and lane-minor: tick t of lane r
  // lives at [t * width + r], so one tick is one contiguous band. q_
  // holds the RAW third word of each step, not the decoded double: the
  // SIMD accept compares (raw >> 11) against integer thresholds (itab_
  // below), so decoding to double happens only on scalar paths.
  std::vector<std::int32_t> pi_;
  std::vector<std::int32_t> dir_;
  std::vector<std::uint64_t> q_;
  std::vector<std::uint64_t> raw_;  ///< per-lane refill buffer (reused)

  // Arena: one dense mirror plane of w_*h_ cells per lane, planes
  // consecutive. Lane r's cell for axial (x, y) sits at
  // gbase_[r] + y*w_ + x — the per-lane origin is folded into gbase_,
  // so a particle's whole arena address is one int32.
  std::vector<std::uint32_t> cells_;
  std::vector<std::int64_t> gbase_;
  std::vector<std::int64_t> x0_, y0_;  ///< per-lane box origins
  std::int64_t w_ = 0, h_ = 0;         ///< shared plane extent
  bool arena_ok_ = false;

  // Packed particle SoA, lane-minor like the proposals: particle i of
  // lane r at [i * width + r] holds (arena cell index | nibble << 28),
  // so one gather yields both the proposer's address and its encoded
  // color.
  std::vector<std::int32_t> pcell_;

  // Per-direction cell offsets (function of shared w_ only) in
  // EdgeRing order, transposed and padded for vpermd lookup by dir:
  // ring_off_[k][dir], dirs 6 and 7 unused.
  alignas(32) std::int32_t ring_off_[8][8] = {};
  alignas(32) std::int32_t lp_off_[8] = {};

  // 2-D Metropolis threshold table, indexed like the weight grid:
  // itab_[(a+5)*kWtabStride + (b+12)] counts the raw-draw values v in
  // [0, 2^53) whose decoded uniform q(v) = (double(v) + 0.5)·2^-53
  // falls below w = pow_lambda_[a] * pow_gamma_[b] — i.e. step()'s
  // `q < w` accept set, computed once per (a, b) by binary search over
  // the exact scalar formula. q(v) is monotone in v, so the SIMD
  // accept is one signed 64-bit compare (raw >> 11) < itab_[idx]
  // against the gathered threshold: bit-identical to step()'s IEEE
  // compare without converting raw words to doubles at all. Moves read
  // (a, b) = (Δe, Δe_i) ∈ [-5, 5]²; swaps read (0, sx), sx ∈ [-10, 10]
  // (λ^0 ≡ 1.0 leaves γ^sx exact). Stride 32 makes the index one
  // shift+add. ~2.8 KB, L1-resident. Only the 8-lane SIMD execute reads
  // it, so the constructor fills it only for a full 8-lane band.
  static constexpr int kWtabStride = 32;
  alignas(64) std::int64_t itab_[11 * kWtabStride] = {};

  // Arena reuse across run() calls: the per-lane step counters at last
  // sync. A mismatch on entry means the chain advanced outside the
  // band, so the mirror is stale and run() rebuilds.
  std::array<std::uint64_t, kMaxWidth> synced_steps_{};
  bool arena_synced_ = false;

  // Per-lane counter accumulators, flushed per block.
  struct LaneCounts {
    std::uint64_t move_proposals = 0, moves_accepted = 0, rejected_five = 0,
                  rejected_locality = 0, rejected_metropolis = 0,
                  swap_proposals = 0, swaps_accepted = 0;
  };
  std::vector<LaneCounts> lane_counts_;

  Stats stats_;
};

}  // namespace sops::core
