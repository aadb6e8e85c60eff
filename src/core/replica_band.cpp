#include "src/core/replica_band.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define SOPS_BAND_X86 1
#endif

#include "src/core/cell_codec.hpp"
#include "src/core/neighborhood.hpp"

namespace sops::core {

using lattice::EdgeRing;
using lattice::Node;
using system::Color;
using system::NeighborhoodGather;
using system::ParticleIndex;

namespace {

// Runtime SIMD dispatch, queried once per band at construction. Non-x86
// builds resolve to false at compile time.
[[nodiscard]] bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Properties 4/5 move-locality as eight 32-bit words: the whole
// 256-entry ring LUT fits in one ymm register, so the lookup is a
// vpermd word select plus a variable shift instead of a gather.
constexpr std::array<std::uint32_t, 8> make_move_ok_words() {
  std::array<std::uint32_t, 8> w{};
  for (unsigned m = 0; m < 256; ++m) {
    if (detail::kMoveOkLut.test(static_cast<std::uint8_t>(m))) {
      w[m >> 5] |= 1u << (m & 31u);
    }
  }
  return w;
}
constexpr std::array<std::uint32_t, 8> kMoveOkWords = make_move_ok_words();

#if defined(__x86_64__) || defined(_M_X64)
// File-scope helpers rather than lambdas: lambdas do not inherit the
// enclosing function's target("avx2") attribute.

// Expands an 8-bit accept mask (assembled from movemask_pd halves) back
// into a per-lane epi32 mask for the counter accumulators.
__attribute__((target("avx2"))) inline __m256i expand_mask8(
    int m, __m256i vbits) noexcept {
  return _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(m), vbits),
                            vbits);
}

__attribute__((target("avx2"))) inline __m256i rotl64x4(__m256i x,
                                                        int k) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, k),
                         _mm256_srli_epi64(x, 64 - k));
}

// xoshiro256++ for four lanes at once, state in 64-bit vector lanes.
// Op-for-op the scalar Rng::next(), so each lane's stream is the
// stream its own util::Rng would have produced.
__attribute__((target("avx2"))) inline __m256i xo_next4(
    __m256i& s0, __m256i& s1, __m256i& s2, __m256i& s3) noexcept {
  const __m256i r =
      _mm256_add_epi64(rotl64x4(_mm256_add_epi64(s0, s3), 23), s0);
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl64x4(s3, 45);
  return r;
}

// Lemire multiply-shift for four lanes: returns floor(x * b / 2^64),
// the no-rejection result of util::lemire_below. Lanes that would take
// the rejection branch (low 64 product bits below the threshold) are
// OR-ed into `rej` for the caller's scalar replay; the 2^24 bound on b
// lets the detection use one shift + signed 64-bit compare.
__attribute__((target("avx2"))) inline __m256i lemire4(__m256i x, __m256i vb,
                                                       __m256i vthr,
                                                       __m256i& rej) noexcept {
  const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i t2 = _mm256_mul_epu32(x, vb);
  const __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), vb);
  const __m256i sum = _mm256_add_epi64(t1, _mm256_srli_epi64(t2, 32));
  const __m256i low = _mm256_or_si256(_mm256_slli_epi64(sum, 32),
                                      _mm256_and_si256(t2, lo32));
  const __m256i fits = _mm256_cmpeq_epi64(_mm256_srli_epi64(low, 24),
                                          _mm256_setzero_si256());
  rej = _mm256_or_si256(
      rej, _mm256_and_si256(fits, _mm256_cmpgt_epi64(vthr, low)));
  return _mm256_srli_epi64(sum, 32);
}

// Narrows two 4x64 registers (values < 2^31) into one 8x32 store.
__attribute__((target("avx2"))) inline void store_lo32x8(std::int32_t* dst,
                                                         __m256i a,
                                                         __m256i b) noexcept {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i pa = _mm256_permutevar8x32_epi32(a, idx);
  const __m256i pb = _mm256_permutevar8x32_epi32(b, idx);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permute2x128_si256(pa, pb, 0x20));
}

// Block-invariant inputs of the SIMD decide kernel. The band is one
// 8-lane group, so every lane-minor array has stride 8.
struct BandEnv {
  const std::int32_t* pi;
  const std::int32_t* dir;
  const std::uint64_t* q;
  const std::int64_t* itab;
  const std::int32_t (*ring_off)[8];
  const std::int32_t* lp_off;
  bool swaps;
};

// SIMD execute state: per-lane quotas and the seven counter
// accumulators.
struct Group {
  __m256i vactive;
  __m256i acc_movep, acc_macc, acc_r5, acc_rloc, acc_rmet, acc_swapp,
      acc_sacc;
};

__attribute__((target("avx2"))) inline void group_init(
    Group& G, const std::size_t* active) noexcept {
  alignas(32) std::int32_t act32[8];
  for (std::size_t j = 0; j < 8; ++j) {
    act32[j] = static_cast<std::int32_t>(active[j]);
  }
  G.vactive = _mm256_load_si256(reinterpret_cast<const __m256i*>(act32));
  const __m256i z = _mm256_setzero_si256();
  G.acc_movep = G.acc_macc = G.acc_r5 = G.acc_rloc = G.acc_rmet =
      G.acc_swapp = G.acc_sacc = z;
}

// One tick of the 8-lane band: load the tick's proposal band, gather
// the packed-SoA proposer cells and the 10-node neighborhoods across
// lanes, and resolve every lane's outcome into counter accumulators.
// Returns the accept masks packed as mm_macc | mm_sacc << 8, spilling
// the decision vectors to `sp` only when some lane accepted; the
// applies happen scalar afterwards. kMasked=false compiles the
// uniform-quota prefix where every lane is known live, dropping the
// per-tick quota compare and the three mask ANDs it feeds.
// always_inline: the tick loops live or die by this body fusing into
// them (no per-tick call, constants hoisted).
template <bool kMasked>
__attribute__((target("avx2"), always_inline)) inline int band_decide(
    const BandEnv& E, Group& G, const int* cells,
    const std::int32_t* pcell, std::size_t t,
    ReplicaBand::Spill* sp) noexcept {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vm5 = _mm256_set1_epi32(-5);
  const __m256i v31 = _mm256_set1_epi32(31);
  // Bias folding both +5 (λ-exponent row) and +12 (γ-exponent column)
  // into one add: wtab index = (a << 5) + b + (5*32 + 12).
  const __m256i vwbias = _mm256_set1_epi32(5 * 32 + 12);
  const __m256i vidxmask = _mm256_set1_epi32((1 << 28) - 1);
  const __m256i vbits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i vlut = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMoveOkWords.data()));
  // Lanes whose quota ended before this tick are masked out of every
  // counter and accept; their stale proposal slots still hold valid
  // particle indices, so the gathers stay in bounds. The maskless
  // instantiation folds vrun to all-ones and the ANDs vanish.
  __m256i vrun = _mm256_set1_epi32(-1);
  if constexpr (kMasked) {
    vrun = _mm256_cmpgt_epi32(G.vactive,
                              _mm256_set1_epi32(static_cast<int>(t)));
  }

  const std::size_t idx = t * 8;
  const __m256i vpi = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(E.pi + idx));
  const __m256i vdir = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(E.dir + idx));
  // Raw generator words shifted to the 53-bit uniform domain; the
  // accept test below compares them against integer thresholds instead
  // of decoding to double.
  const __m256i vq_lo = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(E.q + idx)), 11);
  const __m256i vq_hi = _mm256_srli_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(E.q + idx + 4)),
      11);

  // One gather on the packed SoA: each lane's proposer address in the
  // arena plus its encoded color, at pi * 8 + lane.
  const __m256i vsoa = _mm256_add_epi32(
      _mm256_slli_epi32(vpi, 3), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i vpc = _mm256_i32gather_epi32(pcell, vsoa, 4);
  const __m256i vbase = _mm256_and_si256(vpc, vidxmask);
  const __m256i vci = _mm256_srli_epi32(vpc, 28);

  // The 10-node neighborhood across lanes: the per-direction offsets
  // come from in-register permutes over the 6-entry tables (padded to
  // 8), so only the arena cells themselves are gathered.
  const __m256i vlpoff = _mm256_permutevar8x32_epi32(
      _mm256_load_si256(reinterpret_cast<const __m256i*>(E.lp_off)), vdir);
  const __m256i vlpc =
      _mm256_i32gather_epi32(cells, _mm256_add_epi32(vbase, vlpoff), 4);
  const __m256i vlp_empty = _mm256_cmpeq_epi32(vlpc, vzero);
  const __m256i vcj = _mm256_srli_epi32(vlpc, 28);

  // Occupancy/color sums accumulated on the fly over the node subsets
  // of neighborhood.hpp: e over ring 0..4, e' over ring {0,4,5,6,7}
  // (l' is empty on the move path, l is excluded per the reference
  // index sets). Cells carry the color nibble at bits 28..31
  // (cell_codec.hpp): encoded colors are c ^ 0xF ∈ [8, 15], so an empty
  // node never matches a color and the sign bit is set iff the cell is
  // occupied — occupancy is one arithmetic shift, no compare. k runs
  // descending so the ring bitmask builds by shift-accumulate (bit k ↔
  // node k) with no per-k mask constants; every sum is
  // order-independent.
  __m256i socc = vzero, soccp = vzero, sei = vzero, sepi = vzero,
          snjl = vzero, snjlp = vzero, vring = vzero;
  for (int k = 7; k >= 0; --k) {
    const __m256i voff = _mm256_permutevar8x32_epi32(
        _mm256_load_si256(reinterpret_cast<const __m256i*>(
            E.ring_off[static_cast<std::size_t>(k)])),
        vdir);
    const __m256i vc =
        _mm256_i32gather_epi32(cells, _mm256_add_epi32(vbase, voff), 4);
    const __m256i vocc = _mm256_srai_epi32(vc, 31);
    const __m256i vnib = _mm256_srli_epi32(vc, 28);
    const __m256i vmci = _mm256_cmpeq_epi32(vnib, vci);
    const __m256i vmcj = _mm256_cmpeq_epi32(vnib, vcj);
    if (k <= 4) {
      socc = _mm256_add_epi32(socc, vocc);
      sei = _mm256_add_epi32(sei, vmci);
      snjl = _mm256_add_epi32(snjl, vmcj);
    }
    if (k == 0 || k >= 4) {
      soccp = _mm256_add_epi32(soccp, vocc);
      sepi = _mm256_add_epi32(sepi, vmci);
      snjlp = _mm256_add_epi32(snjlp, vmcj);
    }
    vring = _mm256_sub_epi32(_mm256_add_epi32(vring, vring), vocc);
  }
  // The mask-sums are negated counts, and every Metropolis quantity is
  // a difference of two of them, so the negations cancel without ever
  // materializing the counts:
  //   Δe   (λ exponent)  = socc − soccp
  //   Δe_i (γ exponent)  = sei  − sepi
  //   sx (swap exponent) = Δe_i + (snjlp − snjl) − 2·[ci == cj]
  // (a cmpeq mask is −1 per true, so adding it twice subtracts 2).
  const __m256i vde = _mm256_sub_epi32(socc, soccp);
  const __m256i vdei = _mm256_sub_epi32(sei, sepi);
  const __m256i vceq = _mm256_cmpeq_epi32(vci, vcj);
  const __m256i vsx = _mm256_add_epi32(
      _mm256_add_epi32(vdei, _mm256_sub_epi32(snjlp, snjl)),
      _mm256_add_epi32(vceq, vceq));

  // Properties 4/5: the 256-bit ring LUT lives in one register — vpermd
  // selects the 32-bit word, then the queried bit is shifted up to the
  // sign position where one signed compare reads it.
  const __m256i vword =
      _mm256_permutevar8x32_epi32(vlut, _mm256_srli_epi32(vring, 5));
  const __m256i vlocok = _mm256_cmpgt_epi32(
      vzero,
      _mm256_sllv_epi32(
          vword, _mm256_sub_epi32(v31, _mm256_and_si256(vring, v31))));

  // One shared threshold gather for both paths from the precomputed 2-D
  // integer table: move lanes read itab_[Δe][Δe_i], swap lanes read
  // itab_[0][sx]. Each entry is the exact count of 53-bit words whose
  // decoded uniform lies below λ^a·γ^b, so the signed compare below
  // partitions raw draws identically to step()'s q < w double test
  // without ever converting to double. Every blended index is
  // in-bounds on every lane whichever path it is on.
  const __m256i va = _mm256_blendv_epi8(vzero, vde, vlp_empty);
  const __m256i vb = _mm256_blendv_epi8(vsx, vdei, vlp_empty);
  const __m256i vwi = _mm256_add_epi32(
      _mm256_add_epi32(_mm256_slli_epi32(va, 5), vb), vwbias);
  const auto* const itab = reinterpret_cast<const long long*>(E.itab);
  const __m256i vt_lo =
      _mm256_i32gather_epi64(itab, _mm256_castsi256_si128(vwi), 8);
  const __m256i vt_hi =
      _mm256_i32gather_epi64(itab, _mm256_extracti128_si256(vwi, 1), 8);
  const int mm_qlt =
      _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(vt_lo, vq_lo))) |
      (_mm256_movemask_pd(
           _mm256_castsi256_pd(_mm256_cmpgt_epi64(vt_hi, vq_hi)))
       << 4);
  const __m256i vqm = expand_mask8(mm_qlt, vbits);

  // Per-lane outcome masks, in step()'s precedence order, every one
  // gated on the lane still running this tick.
  // socc == −5 ⇔ all five ring(l) nodes occupied (step()'s e == 5).
  const __m256i ve5 = _mm256_cmpeq_epi32(socc, vm5);
  const __m256i vpropm = _mm256_and_si256(vlp_empty, vrun);
  const __m256i vstage = _mm256_andnot_si256(ve5, vpropm);
  const __m256i vmet = _mm256_and_si256(vstage, vlocok);
  const __m256i vmacc = _mm256_and_si256(vmet, vqm);
  G.acc_movep = _mm256_sub_epi32(G.acc_movep, vpropm);
  G.acc_r5 = _mm256_sub_epi32(G.acc_r5, _mm256_and_si256(vpropm, ve5));
  G.acc_rloc =
      _mm256_sub_epi32(G.acc_rloc, _mm256_andnot_si256(vlocok, vstage));
  G.acc_rmet = _mm256_sub_epi32(G.acc_rmet, _mm256_andnot_si256(vqm, vmet));
  G.acc_macc = _mm256_sub_epi32(G.acc_macc, vmacc);
  __m256i vsacc = vzero;
  if (E.swaps) {
    const __m256i vlp_occ = _mm256_andnot_si256(vlp_empty, vrun);
    vsacc = _mm256_and_si256(vlp_occ, vqm);
    G.acc_swapp = _mm256_sub_epi32(G.acc_swapp, vlp_occ);
    G.acc_sacc = _mm256_sub_epi32(G.acc_sacc, vsacc);
  }

  const int mm = _mm256_movemask_ps(_mm256_castsi256_ps(vmacc)) |
                 (_mm256_movemask_ps(_mm256_castsi256_ps(vsacc)) << 8);
  if (mm != 0) [[unlikely]] {
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->pi), vpi);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->dir), vdir);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->de), vde);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->dh),
                       _mm256_sub_epi32(vde, vdei));
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->sx), vsx);
    _mm256_store_si256(reinterpret_cast<__m256i*>(sp->lpc), vlpc);
  }
  return mm;
}
#endif

}  // namespace

bool ReplicaBand::auto_simd() noexcept {
  // The CI fallback tier re-runs the equivalence suites with
  // SOPS_FORCE_SCALAR set, pinning that every scalar path produces the
  // same bytes.
  return cpu_has_avx2() && std::getenv("SOPS_FORCE_SCALAR") == nullptr;
}

ReplicaBand::ReplicaBand(std::span<SeparationChain* const> chains,
                         std::size_t block_size, Mode mode)
    : chains_(chains.begin(), chains.end()),
      block_size_(std::clamp<std::size_t>(block_size, 1, kMaxBlockSize)) {
  if (chains_.empty() || chains_.size() > kMaxWidth) {
    throw std::invalid_argument("ReplicaBand: width must be in [1, 8]");
  }
  for (SeparationChain* c : chains_) {
    if (c == nullptr) throw std::invalid_argument("ReplicaBand: null chain");
  }
  const SeparationChain& head = *chains_.front();
  for (const SeparationChain* c : chains_) {
    if (c->system().size() != head.system().size() ||
        c->params().lambda != head.params().lambda ||
        c->params().gamma != head.params().gamma ||
        c->params().swaps_enabled != head.params().swaps_enabled) {
      throw std::invalid_argument(
          "ReplicaBand: chains must share (n, lambda, gamma, swaps_enabled)");
    }
  }
  simd_ = mode == Mode::kAuto && auto_simd();
  const std::size_t w = chains_.size();
  pi_.resize(block_size_ * w);
  dir_.resize(block_size_ * w);
  q_.resize(block_size_ * w);
  raw_.resize(3 * block_size_);
  lane_counts_.resize(w);
  gbase_.resize(w);
  x0_.resize(w);
  y0_.resize(w);
  // The 2-D threshold table (see the header): for each (a, b) compute
  // the exact IEEE product w = λ^a · γ^b that step() compares against,
  // then binary-search the monotone decoded-uniform curve for the
  // count of raw values accepted by `q < w`. All lanes share (λ, γ),
  // so one table serves the band. Only the 8-lane SIMD execute reads
  // it, so narrower bands skip the 275 searches: on a 4-core Xeon they
  // take ~43 µs, the rest of a width-1 band (one chain's run()) ~0.7 µs.
  if (!simd_ || w != kMaxWidth) return;
  for (int a = -5; a <= 5; ++a) {
    for (int b = -SeparationChain::kMaxExp; b <= SeparationChain::kMaxExp;
         ++b) {
      const double wt = head.pow_lambda_[SeparationChain::kMaxExp + a] *
                        head.pow_gamma_[SeparationChain::kMaxExp + b];
      // First v in [0, 2^53] with q(v) >= wt, where q(v) is exactly
      // util::decode_uniform_open's (double(v) + 0.5) * 2^-53. Every
      // raw >> 11 below the boundary accepts, everything at or above
      // rejects — the same partition the scalar double compare makes.
      std::uint64_t lo = 0;
      std::uint64_t hi = std::uint64_t{1} << 53;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const double qv = (static_cast<double>(mid) + 0.5) * 0x1.0p-53;
        if (qv < wt) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      itab_[static_cast<std::size_t>((a + 5) * kWtabStride + (b + 12))] =
          static_cast<std::int64_t>(lo);
    }
  }
}

void ReplicaBand::run(std::uint64_t iterations) {
  if (iterations == 0) return;
  std::array<std::uint64_t, kMaxWidth> quotas;
  quotas.fill(iterations);
  run(std::span<const std::uint64_t>(quotas.data(), width()));
}

void ReplicaBand::run(std::span<const std::uint64_t> quotas) {
  if (quotas.size() != width()) {
    throw std::invalid_argument("ReplicaBand: quota count != width");
  }
  // A valid arena is each lane's occupancy while the band runs (see the
  // header): sync every lane's FlatMap on any exit, an exception
  // included.
  struct SyncOnExit {
    std::span<SeparationChain* const> lanes;
    ~SyncOnExit() {
      for (SeparationChain* c : lanes) c->sys_.sync_index();
    }
  } const sync_on_exit{chains_};

  // The arena and SoA are derived state. They survive across run()
  // calls as long as no bound chain advanced outside the band: the
  // step counters are monotone, so comparing them against the counts
  // recorded at the last sync detects any interleaved serial stepping.
  bool fresh = arena_ok_ && arena_synced_;
  for (std::size_t r = 0; fresh && r < width(); ++r) {
    fresh = chains_[r]->counters_.steps == synced_steps_[r];
  }
  if (!fresh) rebuild_arena();
  std::array<std::uint64_t, kMaxWidth> rem{};
  std::uint64_t most = 0;
  for (std::size_t r = 0; r < width(); ++r) {
    rem[r] = quotas[r];
    most = std::max(most, rem[r]);
  }
  std::array<std::size_t, kMaxWidth> active{};
  while (most > 0) {
    const std::size_t count =
        static_cast<std::size_t>(std::min<std::uint64_t>(most, block_size_));
    for (std::size_t r = 0; r < width(); ++r) {
      active[r] =
          static_cast<std::size_t>(std::min<std::uint64_t>(rem[r], count));
    }
    run_block(active.data());
    most = 0;
    for (std::size_t r = 0; r < width(); ++r) {
      rem[r] -= active[r];
      most = std::max(most, rem[r]);
    }
  }
  for (std::size_t r = 0; r < width(); ++r) {
    synced_steps_[r] = chains_[r]->counters_.steps;
  }
  arena_synced_ = arena_ok_;
}

void ReplicaBand::fill_arena(std::int64_t plane) {
  const std::size_t W = width();
  const std::size_t n = chains_[0]->sys_.size();
  cells_.assign(
      static_cast<std::size_t>(plane * static_cast<std::int64_t>(W)), 0);
  pcell_.resize(n * W);
  for (std::size_t r = 0; r < W; ++r) {
    const system::ParticleSystem& sys = chains_[r]->sys_;
    gbase_[r] = static_cast<std::int64_t>(r) * plane - y0_[r] * w_ - x0_[r];
    for (std::size_t i = 0; i < n; ++i) {
      const auto pi = static_cast<ParticleIndex>(i);
      const Node v = sys.position(pi);
      const std::uint32_t color = sys.color(pi);
      const auto idx = static_cast<std::uint32_t>(
          gbase_[r] + static_cast<std::int64_t>(v.y) * w_ + v.x);
      pcell_[i * W + r] =
          static_cast<std::int32_t>(idx | ((color ^ 0xFu) << 28));
      cells_[idx] = cell::encode(static_cast<std::uint32_t>(i), color);
    }
  }
}

void ReplicaBand::rebuild_arena() {
  arena_ok_ = false;
  const std::size_t W = width();
  const std::size_t n = chains_[0]->sys_.size();
  if (n == 0 || n + 1 > cell::kIndexMask) return;

  std::int64_t wmax = 0;
  std::int64_t hmax = 0;
  for (std::size_t r = 0; r < W; ++r) {
    const system::ParticleSystem& sys = chains_[r]->sys_;
    std::int64_t xmin = std::numeric_limits<std::int64_t>::max();
    std::int64_t xmax = std::numeric_limits<std::int64_t>::min();
    std::int64_t ymin = xmin;
    std::int64_t ymax = xmax;
    for (std::size_t i = 0; i < n; ++i) {
      const Node v = sys.position(static_cast<ParticleIndex>(i));
      xmin = std::min<std::int64_t>(xmin, v.x);
      xmax = std::max<std::int64_t>(xmax, v.x);
      ymin = std::min<std::int64_t>(ymin, v.y);
      ymax = std::max<std::int64_t>(ymax, v.y);
    }
    x0_[r] = xmin - kArenaMargin;
    y0_[r] = ymin - kArenaMargin;
    wmax = std::max(wmax, (xmax - xmin + 1) + 2 * kArenaMargin);
    hmax = std::max(hmax, (ymax - ymin + 1) + 2 * kArenaMargin);
  }
  // Economy rule on the shared extent: connected blobs have bounding
  // boxes of O(n^2) cells at the very worst (a zig-zag path), but a
  // disconnected outlier can blow the box up arbitrarily, so refuse
  // pathological boxes and let the FlatMap path carry them. The
  // kIdxBits bound keeps every packed cell address inside its field.
  const std::int64_t cap = std::max<std::int64_t>(
      std::int64_t{1} << 20, 32 * static_cast<std::int64_t>(n));
  const std::int64_t plane = wmax * hmax;
  if (plane > cap) return;
  if (plane * static_cast<std::int64_t>(W) >
      static_cast<std::int64_t>(kIdxMask)) {
    return;
  }

  w_ = wmax;
  h_ = hmax;
  fill_arena(plane);
  for (int d = 0; d < 6; ++d) {
    const auto off = [&](Node v) {
      return static_cast<std::int32_t>(static_cast<std::int64_t>(v.y) * w_ +
                                       v.x);
    };
    lp_off_[static_cast<std::size_t>(d)] = off(lattice::neighbor(Node{}, d));
    const EdgeRing ring = EdgeRing::around(Node{}, d);
    for (std::size_t k = 0; k < 8; ++k) {
      ring_off_[k][static_cast<std::size_t>(d)] = off(ring.nodes[k]);
    }
  }
  ++stats_.arena_rebuilds;
  arena_ok_ = true;
}

void ReplicaBand::run_block(const std::size_t* active) {
  ++stats_.blocks;
  const std::size_t W = width();
  const std::uint64_t n = chains_[0]->sys_.size();

  // DECODE: a full 8-lane band runs the vectorized generator+Lemire
  // path over its uniform tick prefix; ragged per-lane tails and
  // narrower bands use the scalar bulk-refill decode. Word consumption
  // per lane is identical either way.
  const bool simd_band = simd_ && W == kMaxWidth;
  std::size_t uniform = 0;
  if (simd_band && n < (std::uint64_t{1} << 24)) {
    uniform = *std::min_element(active, active + W);
    if (uniform > 0) decode_group_simd(uniform);
  }
  for (std::size_t r = 0; r < W; ++r) decode_lane(r, uniform, active[r]);

  // EXECUTE: SIMD over a full 8-lane band, lanes whose quota ends early
  // masked off tick by tick, then a scalar sweep for everything left:
  // narrower bands and the remainder of a block whose arena was
  // declined mid-walk. Lanes are independent chains, so per-lane tick
  // order is the only ordering that matters.
  std::array<std::size_t, kMaxWidth> done{};
  if (simd_band && arena_ok_) {
    const std::size_t stop = execute_group_simd(active);
    for (std::size_t r = 0; r < W; ++r) done[r] = std::min(stop, active[r]);
  }
  for (std::size_t r = 0; r < W; ++r) {
    std::size_t from = done[r];
    if (from < active[r] && arena_ok_) from = execute_lane(r, from, active[r]);
    if (from >= active[r]) continue;
    // Ticks the arena cannot serve run through step()'s own body on the
    // lane's FlatMap, synced first. advance() counts into the chain's
    // counters itself; flush_counters adds their steps.
    SeparationChain& chain = *chains_[r];
    chain.sys_.sync_index();
    for (std::size_t t = from; t < active[r]; ++t) {
      chain.advance(static_cast<ParticleIndex>(pi_[t * W + r]),
                    static_cast<int>(dir_[t * W + r]),
                    util::decode_uniform_open(q_[t * W + r]));
    }
    stats_.scalar_steps += active[r] - from;
  }
  flush_counters(active);
}

void ReplicaBand::decode_lane(std::size_t r, std::size_t from,
                              std::size_t to) {
  if (from >= to) return;
  const std::size_t W = width();
  const std::uint64_t n = chains_[0]->sys_.size();
  util::Rng& rng = chains_[r]->rng_;
  const std::size_t words = 3 * (to - from);
  std::uint64_t* const raw = raw_.data();
  rng.fill(raw, words);
  stats_.refill_words += words;
  std::size_t cursor = 0;
  std::uint64_t tail = 0;
  const auto take = [&]() noexcept {
    if (cursor < words) return raw[cursor++];
    ++tail;
    return rng.next();
  };
  for (std::size_t t = from; t < to; ++t) {
    pi_[t * W + r] = static_cast<std::int32_t>(util::lemire_below(take, n));
    dir_[t * W + r] = static_cast<std::int32_t>(util::lemire_below(take, 6));
    q_[t * W + r] = take();
  }
  stats_.tail_words += tail;
}

inline bool ReplicaBand::arena_move(std::size_t r, ParticleIndex pi, int dir,
                                    int de, int dh) {
  system::ParticleSystem& sys = chains_[r]->sys_;
  const Node dst = lattice::neighbor(sys.position(pi), dir);
  sys.move_unindexed(pi, dst, de, dh);
  if (!arena_ok_) return false;
  // Addresses come from the live packed SoA: an earlier lane's drift
  // rebuild in the same tick may have re-centered the planes.
  std::uint32_t* const cells = cells_.data();
  const std::size_t soa = static_cast<std::size_t>(pi) * width() + r;
  const auto pc = static_cast<std::uint32_t>(pcell_[soa]);
  const std::int64_t base = pc & kIdxMask;
  const std::int64_t lp_cell = base + lp_off_[static_cast<std::size_t>(dir)];
  cells[lp_cell] = cells[base];
  cells[base] = 0;
  pcell_[soa] = static_cast<std::int32_t>(
      (pc & ~kIdxMask) | static_cast<std::uint32_t>(lp_cell));
  if (dst.x - x0_[r] < kArenaSlack || x0_[r] + w_ - 1 - dst.x < kArenaSlack ||
      dst.y - y0_[r] < kArenaSlack || y0_[r] + h_ - 1 - dst.y < kArenaSlack) {
    rebuild_arena();
  }
  return arena_ok_;
}

inline void ReplicaBand::arena_swap(std::size_t r, ParticleIndex pi,
                                    ParticleIndex qj, int dir, int sx) {
  chains_[r]->sys_.swap_unindexed(pi, qj, -sx);
  if (!arena_ok_) return;
  // The cell exchange masks to a no-op for same-color swaps, matching
  // swap_unindexed leaving the positions untouched.
  std::uint32_t* const cells = cells_.data();
  const std::size_t si = static_cast<std::size_t>(pi) * width() + r;
  const auto pci = static_cast<std::uint32_t>(pcell_[si]);
  const std::int64_t base = pci & kIdxMask;
  const std::int64_t lp_cell = base + lp_off_[static_cast<std::size_t>(dir)];
  const std::uint32_t a = cells[base];
  const std::uint32_t b = cells[lp_cell];
  const std::uint32_t mask =
      ((a ^ b) >> cell::kNibbleShift) != 0 ? ~std::uint32_t{0} : 0;
  cells[base] = a ^ ((a ^ b) & mask);
  cells[lp_cell] = b ^ ((a ^ b) & mask);
  if (mask != 0) {
    // Different colors: the particles exchanged cells; each keeps its
    // own color nibble, only the address parts swap.
    const std::size_t sj = static_cast<std::size_t>(qj) * width() + r;
    const auto pcj = static_cast<std::uint32_t>(pcell_[sj]);
    pcell_[si] =
        static_cast<std::int32_t>((pci & ~kIdxMask) | (pcj & kIdxMask));
    pcell_[sj] =
        static_cast<std::int32_t>((pcj & ~kIdxMask) | (pci & kIdxMask));
  }
}

std::size_t ReplicaBand::execute_lane(std::size_t r, std::size_t from,
                                      std::size_t to) {
  const SeparationChain& chain = *chains_[r];
  const bool swaps = chain.params_.swaps_enabled;
  const double* const pow_l = chain.pow_lambda_ + SeparationChain::kMaxExp;
  const double* const pow_g = chain.pow_gamma_ + SeparationChain::kMaxExp;
  LaneCounts& c = lane_counts_[r];
  const std::size_t W = width();
  const std::uint32_t* cells = cells_.data();
  std::size_t stop = to;

  for (std::size_t t = from; t < to; ++t) {
    const auto pi = static_cast<ParticleIndex>(pi_[t * W + r]);
    const int dir = static_cast<int>(dir_[t * W + r]);
    const double q = util::decode_uniform_open(q_[t * W + r]);

    const std::size_t soa = static_cast<std::size_t>(pi) * W + r;
    const auto pc = static_cast<std::uint32_t>(pcell_[soa]);
    const std::int64_t base = pc & kIdxMask;
    unsigned occ = 1u << NeighborhoodGather::kNodeL;
    std::uint64_t nib = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint32_t cl =
          cells[base + ring_off_[k][static_cast<std::size_t>(dir)]];
      occ |= static_cast<unsigned>(cl != 0) << k;
      nib ^= static_cast<std::uint64_t>(cl >> cell::kNibbleShift) << (4 * k);
    }
    const std::uint32_t lpc =
        cells[base + lp_off_[static_cast<std::size_t>(dir)]];
    occ |= static_cast<unsigned>(lpc != 0) << NeighborhoodGather::kNodeLp;
    nib ^= static_cast<std::uint64_t>(lpc >> cell::kNibbleShift) << 36;
    nib ^= static_cast<std::uint64_t>(pc >> 28) << 32;
    NeighborhoodView nb;
    nb.occ = static_cast<std::uint16_t>(occ);
    nb.color_nibbles ^= nib;
    nb.p_at_l = pi;
    nb.p_at_lp = static_cast<ParticleIndex>(lpc & cell::kIndexMask) - 1;

    if (!nb.lp_occupied()) {
      ++c.move_proposals;
      const Color ci = nb.color_at(NeighborhoodView::kNodeL);
      const int e = nb.e();
      if (e == 5) {
        ++c.rejected_five;
        continue;
      }
      if (!nb.move_locality_ok()) {
        ++c.rejected_locality;
        continue;
      }
      const int ei = nb.e_i(ci);
      const int ep = nb.e_prime();
      const int epi = nb.e_prime_i(ci);
      if (q >= pow_l[ep - e] * pow_g[epi - ei]) {
        ++c.rejected_metropolis;
        continue;
      }
      ++c.moves_accepted;
      if (!arena_move(r, pi, dir, ep - e, (ep - epi) - (e - ei))) {
        stop = t + 1;
        break;
      }
      cells = cells_.data();  // a drift rebuild may have moved the arena
      continue;
    }

    if (!swaps) continue;
    ++c.swap_proposals;
    const int sx = nb.swap_exponent();
    if (q >= pow_g[sx]) continue;
    ++c.swaps_accepted;
    arena_swap(r, pi, nb.p_at_lp, dir, sx);
  }
  stats_.scalar_steps += stop - from;
  return stop;
}

bool ReplicaBand::apply_group(int mm_macc, int mm_sacc, const Spill& sp) {
  // The decisions are made, so the applies read no neighborhood. A
  // declined rebuild finishes the tick's remaining applies without the
  // arena, and the caller runs the rest of the block through step()'s
  // body, which reads each lane's synced FlatMap.
  for (int m = mm_macc; m != 0; m &= m - 1) {
    const int j = std::countr_zero(static_cast<unsigned>(m));
    arena_move(static_cast<std::size_t>(j), sp.pi[j], sp.dir[j], sp.de[j],
               sp.dh[j]);
  }
  for (int m = mm_sacc; m != 0; m &= m - 1) {
    const int j = std::countr_zero(static_cast<unsigned>(m));
    const auto qj = static_cast<ParticleIndex>(
                        static_cast<std::uint32_t>(sp.lpc[j]) &
                        cell::kIndexMask) -
                    1;
    arena_swap(static_cast<std::size_t>(j), sp.pi[j], qj, sp.dir[j],
               sp.sx[j]);
  }
  return arena_ok_;
}

void ReplicaBand::flush_counters(const std::size_t* active) {
  for (std::size_t r = 0; r < width(); ++r) {
    SeparationChain::Counters& out = chains_[r]->counters_;
    LaneCounts& c = lane_counts_[r];
    out.steps += active[r];
    out.move_proposals += c.move_proposals;
    out.moves_accepted += c.moves_accepted;
    out.rejected_five += c.rejected_five;
    out.rejected_locality += c.rejected_locality;
    out.rejected_metropolis += c.rejected_metropolis;
    out.swap_proposals += c.swap_proposals;
    out.swaps_accepted += c.swaps_accepted;
    c = LaneCounts{};
  }
}

#if defined(SOPS_BAND_X86)

__attribute__((target("avx2"))) void ReplicaBand::decode_group_simd(
    std::size_t ticks) {
  const std::uint64_t n = chains_[0]->sys_.size();

  // Pre-call snapshot: the rejection replay path restarts a lane's
  // stream from here.
  util::Rng::State snap[8];
  alignas(32) std::uint64_t st[4][8];
  for (std::size_t j = 0; j < 8; ++j) {
    snap[j] = chains_[j]->rng_.state();
    for (std::size_t k = 0; k < 4; ++k) st[k][j] = snap[j][k];
  }
  __m256i s0a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[0][0]));
  __m256i s0b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[0][4]));
  __m256i s1a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[1][0]));
  __m256i s1b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[1][4]));
  __m256i s2a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[2][0]));
  __m256i s2b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[2][4]));
  __m256i s3a = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[3][0]));
  __m256i s3b = _mm256_load_si256(reinterpret_cast<const __m256i*>(&st[3][4]));

  const __m256i vn = _mm256_set1_epi64x(static_cast<long long>(n));
  const __m256i v6 = _mm256_set1_epi64x(6);
  const __m256i vthrn =
      _mm256_set1_epi64x(static_cast<long long>((0 - n) % n));
  const __m256i vthr6 = _mm256_set1_epi64x(
      static_cast<long long>((0 - std::uint64_t{6}) % 6));
  __m256i reja = _mm256_setzero_si256();
  __m256i rejb = _mm256_setzero_si256();

  std::int32_t* const pi = pi_.data();
  std::int32_t* const dr = dir_.data();
  std::uint64_t* const q = q_.data();
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::size_t idx = t * 8;
    __m256i xa = xo_next4(s0a, s1a, s2a, s3a);
    __m256i xb = xo_next4(s0b, s1b, s2b, s3b);
    store_lo32x8(pi + idx, lemire4(xa, vn, vthrn, reja),
                 lemire4(xb, vn, vthrn, rejb));
    xa = xo_next4(s0a, s1a, s2a, s3a);
    xb = xo_next4(s0b, s1b, s2b, s3b);
    store_lo32x8(dr + idx, lemire4(xa, v6, vthr6, reja),
                 lemire4(xb, v6, vthr6, rejb));
    // The Metropolis draw stays a raw word: the decide kernel compares
    // raw >> 11 against integer thresholds, so no double conversion
    // happens anywhere on the SIMD path.
    xa = xo_next4(s0a, s1a, s2a, s3a);
    xb = xo_next4(s0b, s1b, s2b, s3b);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + idx), xa);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + idx + 4), xb);
  }
  stats_.refill_words += 3 * ticks * 8;

  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[0][0]), s0a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[0][4]), s0b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[1][0]), s1a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[1][4]), s1b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[2][0]), s2a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[2][4]), s2b);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[3][0]), s3a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&st[3][4]), s3b);
  for (std::size_t j = 0; j < 8; ++j) {
    chains_[j]->rng_.set_state({st[0][j], st[1][j], st[2][j], st[3][j]});
  }

  const int mrej = _mm256_movemask_pd(_mm256_castsi256_pd(reja)) |
                   (_mm256_movemask_pd(_mm256_castsi256_pd(rejb)) << 4);
  if (mrej != 0) [[unlikely]] {
    // A lane hit the Lemire rejection branch, so its fast-path decode
    // is wrong from that draw on: replay the whole lane scalar from
    // the snapshot — the definitive decode, rejection spills included.
    for (int m = mrej; m != 0; m &= m - 1) {
      const auto j = static_cast<std::size_t>(
          std::countr_zero(static_cast<unsigned>(m)));
      chains_[j]->rng_.set_state(snap[j]);
      decode_lane(j, 0, ticks);
    }
  }
}

__attribute__((target("avx2"))) std::size_t ReplicaBand::execute_group_simd(
    const std::size_t* active) {
  const BandEnv env{pi_.data(), dir_.data(), q_.data(),
                    itab_,      ring_off_,   lp_off_,
                    chains_[0]->params_.swaps_enabled};
  Group G;
  group_init(G, active);
  const std::size_t to = *std::max_element(active, active + 8);
  const std::size_t tmin = *std::min_element(active, active + 8);
  std::size_t stop = to;

  // Ticks below every lane's quota run the maskless decide; only the
  // ragged tail (usually empty — uniform quotas are the common case)
  // pays the per-tick quota masking. The arena pointers are refreshed
  // only after a tick that applied something — a drift rebuild inside
  // the apply phase is the only thing that moves cells/pcell_ — so the
  // common all-reject tick never reloads them.
  Spill sp;
  bool down = false;
  std::size_t t = 0;
  const int* cells = reinterpret_cast<const int*>(cells_.data());
  const std::int32_t* pcell = pcell_.data();
  for (; t < tmin; ++t) {
    const int mm = band_decide<false>(env, G, cells, pcell, t, &sp);
    if (mm != 0) {
      if (!apply_group(mm & 0xFF, mm >> 8, sp)) {
        stop = t + 1;
        down = true;
        break;
      }
      cells = reinterpret_cast<const int*>(cells_.data());
      pcell = pcell_.data();
    }
  }
  for (; !down && t < to; ++t) {
    const int mm = band_decide<true>(env, G, cells, pcell, t, &sp);
    if (mm != 0) {
      if (!apply_group(mm & 0xFF, mm >> 8, sp)) {
        stop = t + 1;
        break;
      }
      cells = reinterpret_cast<const int*>(cells_.data());
      pcell = pcell_.data();
    }
  }

  // Flush the vector accumulators into the per-lane counters.
  alignas(32) std::int32_t acc[7][8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[0]), G.acc_movep);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[1]), G.acc_macc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[2]), G.acc_r5);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[3]), G.acc_rloc);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[4]), G.acc_rmet);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[5]), G.acc_swapp);
  _mm256_store_si256(reinterpret_cast<__m256i*>(acc[6]), G.acc_sacc);
  for (std::size_t j = 0; j < 8; ++j) {
    LaneCounts& lc = lane_counts_[j];
    lc.move_proposals += static_cast<std::uint32_t>(acc[0][j]);
    lc.moves_accepted += static_cast<std::uint32_t>(acc[1][j]);
    lc.rejected_five += static_cast<std::uint32_t>(acc[2][j]);
    lc.rejected_locality += static_cast<std::uint32_t>(acc[3][j]);
    lc.rejected_metropolis += static_cast<std::uint32_t>(acc[4][j]);
    lc.swap_proposals += static_cast<std::uint32_t>(acc[5][j]);
    lc.swaps_accepted += static_cast<std::uint32_t>(acc[6][j]);
    stats_.simd_steps += std::min(stop, active[j]);
  }
  return stop;
}

#else  // !SOPS_BAND_X86

void ReplicaBand::decode_group_simd(std::size_t ticks) {
  // Unreachable in practice (simd_ is never true off x86-64); decode
  // scalar so the contract holds if it is ever called anyway.
  for (std::size_t j = 0; j < 8; ++j) decode_lane(j, 0, ticks);
}

std::size_t ReplicaBand::execute_group_simd(const std::size_t*) {
  // Unreachable: simd_ can never be true off x86-64 (auto_simd() is
  // false). Report no progress so the scalar sweep covers everything if
  // it is ever called anyway.
  return 0;
}

#endif

}  // namespace sops::core
