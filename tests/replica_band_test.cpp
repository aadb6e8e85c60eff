// Band-equivalence suite: a band of replicas advanced lock-step by
// ReplicaBand must leave every lane byte-identical to a twin advanced
// by the same number of serial step() calls — same positions, colors,
// edge counts, all eight counters, post-run RNG state, and an
// occupancy index in sync with the positions — at every width, on
// every execution path (SIMD groups, scalar-over-arena, step()'s body
// on the FlatMap), through ragged per-lane quotas, and across arena
// re-centers. This is the contract that lets SeparationChain::run and
// the separation model run every single chain as a width-1 band (the
// StepPipeline cases at the end), and the ensemble group sweep
// replicas into wider ones.
#include "src/core/replica_band.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/markov_chain.hpp"
#include "src/lattice/shapes.hpp"
#include "src/util/rng.hpp"

namespace sops::core {
namespace {

using system::ParticleSystem;

SeparationChain make_chain(std::size_t n, int k, Params params,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(n, rng);
  const auto colors = balanced_random_colors(n, k, rng);
  return SeparationChain(ParticleSystem(nodes, colors), params, seed);
}

// A band's replicas share (n, λ, γ, swaps) but differ in configuration
// and RNG stream — exactly the sweep grid's replica axis.
std::vector<SeparationChain> make_replicas(std::size_t width, std::size_t n,
                                           int k, Params params,
                                           std::uint64_t seed0) {
  std::vector<SeparationChain> chains;
  chains.reserve(width);
  for (std::size_t r = 0; r < width; ++r) {
    chains.push_back(make_chain(n, k, params, seed0 + 1000 * r));
  }
  return chains;
}

std::vector<SeparationChain*> pointers(std::vector<SeparationChain>& chains) {
  std::vector<SeparationChain*> p;
  for (SeparationChain& c : chains) p.push_back(&c);
  return p;
}

// While a band holds its arena it moves particles without touching the
// FlatMap occupancy index and syncs the index when run() exits. So the
// index a chain is left with must equal the one a ParticleSystem
// rebuilt from its positions and colors holds, at every particle's
// node and at its six neighbours, with unchanged capacity.
void expect_index_matches_positions(const SeparationChain& chain,
                                    const std::string& what) {
  const ParticleSystem& sys = chain.system();
  const ParticleSystem clean(sys.positions(), sys.colors());
  std::size_t mismatches = 0;
  for (const lattice::Node v : sys.positions()) {
    mismatches += sys.particle_at(v) != clean.particle_at(v);
    for (int d = 0; d < lattice::kDegree; ++d) {
      const lattice::Node u = lattice::neighbor(v, d);
      mismatches += sys.particle_at(u) != clean.particle_at(u);
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ": occupancy index is stale";
  EXPECT_EQ(sys.occupancy_capacity(), clean.occupancy_capacity()) << what;
}

void expect_same_state(const SeparationChain& a, const SeparationChain& b,
                       const std::string& what) {
  expect_index_matches_positions(a, what);
  expect_index_matches_positions(b, what);
  EXPECT_EQ(a.system().positions(), b.system().positions()) << what;
  EXPECT_EQ(a.system().colors(), b.system().colors()) << what;
  EXPECT_EQ(a.system().edge_count(), b.system().edge_count()) << what;
  EXPECT_EQ(a.system().hetero_edge_count(), b.system().hetero_edge_count())
      << what;
  const auto& ca = a.counters();
  const auto& cb = b.counters();
  EXPECT_EQ(ca.steps, cb.steps) << what;
  EXPECT_EQ(ca.move_proposals, cb.move_proposals) << what;
  EXPECT_EQ(ca.moves_accepted, cb.moves_accepted) << what;
  EXPECT_EQ(ca.rejected_five, cb.rejected_five) << what;
  EXPECT_EQ(ca.rejected_locality, cb.rejected_locality) << what;
  EXPECT_EQ(ca.rejected_metropolis, cb.rejected_metropolis) << what;
  EXPECT_EQ(ca.swap_proposals, cb.swap_proposals) << what;
  EXPECT_EQ(ca.swaps_accepted, cb.swaps_accepted) << what;
}

// Step both chains onward through step(): only identical RNG states can
// keep them in lockstep, pinning that the band consumed exactly each
// lane's serial draw sequence.
void expect_rng_in_sync(SeparationChain& a, SeparationChain& b,
                        const std::string& what) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.step(), b.step()) << what << " post-run step " << i;
  }
  expect_same_state(a, b, what + " post-run trajectory");
}

// The four (λ, γ, k, swaps) regimes of neighborhood_test's trajectory
// suite: separation, compression-only (swaps off — proposals onto
// occupied nodes burn the draws with no counter), near-critical
// four-color, and sub-critical high-acceptance.
struct Setting {
  std::size_t n;
  int k;
  Params params;
  std::uint64_t seed;
};
const Setting kSettings[] = {
    {120, 2, Params{4.0, 4.0, true}, 11},
    {120, 1, Params{4.0, 1.0, false}, 22},
    {90, 4, Params{2.0, 3.0, true}, 33},
    {120, 2, Params{1.0, 1.0, true}, 44},
};

TEST(ReplicaBand, MatchesStepTwinsAtEveryWidth) {
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}}) {
    auto banded = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 11);
    auto serial = make_replicas(width, 120, 2, Params{4.0, 4.0, true}, 11);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(20000);
    for (std::size_t r = 0; r < width; ++r) {
      for (int i = 0; i < 20000; ++i) serial[r].step();
      const std::string what =
          "width " + std::to_string(width) + " lane " + std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

TEST(ReplicaBand, MatchesStepTwinsAtEverySetting) {
  for (const Setting& s : kSettings) {
    auto banded = make_replicas(8, s.n, s.k, s.params, s.seed);
    auto serial = make_replicas(8, s.n, s.k, s.params, s.seed);
    auto ptrs = pointers(banded);
    ReplicaBand band(ptrs);
    band.run(30000);
    for (std::size_t r = 0; r < 8; ++r) {
      for (int i = 0; i < 30000; ++i) serial[r].step();
      const std::string what = "seed " + std::to_string(s.seed) + " lane " +
                               std::to_string(r);
      expect_same_state(serial[r], banded[r], what);
      expect_rng_in_sync(serial[r], banded[r], what);
    }
  }
}

// Forced-scalar mode is the CI fallback tier (SOPS_FORCE_SCALAR); it
// must produce the same bytes with the SIMD path switched off.
TEST(ReplicaBand, ScalarModeMatchesStepTwins) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 17);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 17);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs, ReplicaBand::kDefaultBlockSize,
                   ReplicaBand::Mode::kScalar);
  EXPECT_FALSE(band.simd_enabled());
  band.run(30000);
  EXPECT_EQ(band.stats().simd_steps, 0u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 30000; ++i) serial[r].step();
    const std::string what = "scalar lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Ragged per-lane quotas: replicas completing mid-band drop out of the
// lock-step groups; the remaining lanes stay correct, and a lane with
// quota zero must not consume a single draw.
TEST(ReplicaBand, PerLaneQuotasHandleRaggedTails) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 23);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 23);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  const std::uint64_t quotas[] = {0, 1, 7, 100, 1000, 4096, 9999, 20000};
  band.run(std::span<const std::uint64_t>(quotas, 8));
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::uint64_t i = 0; i < quotas[r]; ++i) serial[r].step();
    const std::string what = "quota " + std::to_string(quotas[r]);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Odd-sized segments across one long-lived band, with direct step()
// calls interleaved between segments: the arena is derived state and
// must absorb external mutations at every re-entry.
TEST(ReplicaBand, SegmentsAndExternalStepsAreAbsorbed) {
  auto banded = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 31);
  auto serial = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 31);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs, 64);
  std::uint64_t seg = 1;
  for (int round = 0; round < 8; ++round) {
    band.run(seg);
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::uint64_t i = 0; i < seg; ++i) serial[r].step();
      for (int i = 0; i < 57; ++i) {
        serial[r].step();
        banded[r].step();  // mutate outside the band
      }
    }
    seg = seg * 4 + 1;  // 1, 5, 21, ... hits many partial-block tails
  }
  for (std::size_t r = 0; r < 8; ++r) {
    const std::string what = "segmented lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// Free blobs (λ = γ = 1) diffuse; drifting into a lane's guard band
// must re-center the shared arena mid-band without perturbing any
// lane's trajectory.
TEST(ReplicaBand, DriftRecentersTheArenaInsideABand) {
  auto banded = make_replicas(8, 40, 2, Params{1.0, 1.0, true}, 41);
  auto serial = make_replicas(8, 40, 2, Params{1.0, 1.0, true}, 41);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(150000);
  // At least the entry rebuild plus one drift re-center.
  EXPECT_GE(band.stats().arena_rebuilds, 2u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 150000; ++i) serial[r].step();
    const std::string what = "drift lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// One lane with a far-away outlier blows up the shared arena extent:
// the band must decline the arena and run every lane through the
// FlatMap gather path, still byte-identical to step().
TEST(ReplicaBand, OversizedBoundingBoxFallsBackToFlatMapGather) {
  const Params params{4.0, 4.0, true};
  std::vector<SeparationChain> banded;
  std::vector<SeparationChain> serial;
  for (std::size_t r = 0; r < 8; ++r) {
    util::Rng rng(77 + r);
    auto nodes = lattice::random_blob(60, rng);
    if (r == 3) {
      nodes.push_back(lattice::Node{100000, 100000});
    } else {
      nodes.push_back(lattice::Node{0, -50});  // keep n equal across lanes
    }
    const auto colors = balanced_random_colors(nodes.size(), 2, rng);
    banded.emplace_back(ParticleSystem(nodes, colors), params, 77 + r);
    serial.emplace_back(ParticleSystem(nodes, colors), params, 77 + r);
  }
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(20000);
  EXPECT_EQ(band.stats().arena_rebuilds, 0u);
  EXPECT_EQ(band.stats().simd_steps, 0u);
  EXPECT_EQ(band.stats().scalar_steps, 8u * 20000u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 20000; ++i) serial[r].step();
    const std::string what = "outlier lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// A band far above the paper's n: 4095 particles per lane. (The name
// dates from when n = 4095 was the first size past a 12-bit cell index
// field; the test id is kept.)
TEST(ReplicaBand, WideLayoutJustAboveIndexCapacityMatchesStepTwins) {
  auto banded = make_replicas(8, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto serial = make_replicas(8, 4095, 2, Params{4.0, 4.0, true}, 67);
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(3000);
  EXPECT_GE(band.stats().arena_rebuilds, 1u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 3000; ++i) serial[r].step();
    const std::string what = "n = 4095 lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

// The arena-cap decline setup: each lane is a free blob (λ = γ = 1) of
// 40 plus one isolated particle, which has no neighbor and so never
// moves. Lane 3's sits so far out that its entry plane is exactly
// 1024 × 1024 cells, the cap at this n, so any growth of lane 3's box
// declines the arena. The other lanes pin theirs below and left of
// their blobs, so only lane 3's blob drifting into its low-side guard
// band can trigger a rebuild, and that rebuild grows the plane.
// cap_decline_lane(r) builds lane r; for lane 3, `origin` receives its
// entry plane origin.
constexpr std::uint64_t kCapDeclineSteps = 200000;

SeparationChain cap_decline_lane(std::size_t r,
                                 lattice::Node* origin = nullptr) {
  // The plane spans a lane's bounding box plus an 8-cell margin on each
  // side; its side is kSide, and kSide² is the cap.
  constexpr std::int32_t kSide = 1024;
  constexpr std::int32_t kMargin = 8;
  util::Rng rng(101 + r);
  auto nodes = lattice::random_blob(40, rng);
  lattice::Node low = nodes.front();
  for (const lattice::Node v : nodes) {
    low.x = std::min(low.x, v.x);
    low.y = std::min(low.y, v.y);
  }
  if (r == 3) {
    const std::int32_t far = kSide - 2 * kMargin - 1;
    nodes.push_back(lattice::Node{low.x + far, low.y + far});
    if (origin != nullptr) {
      *origin = lattice::Node{low.x - kMargin, low.y - kMargin};
    }
  } else {
    nodes.push_back(lattice::Node{low.x - 50, low.y - 50});
  }
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  return SeparationChain(ParticleSystem(nodes, colors),
                         Params{1.0, 1.0, true}, 101 + r);
}

// Steps lane 3's step() twin through the run and reports whether its
// blob reached the guard band (3 cells inside the plane's low edges),
// so that the band had to try a rebuild there.
bool steps_into_guard_band(SeparationChain& serial, lattice::Node origin) {
  bool guarded = false;
  for (std::uint64_t i = 0; i < kCapDeclineSteps; ++i) {
    serial.step();
    for (std::size_t p = 0; !guarded && p < 40; ++p) {
      const lattice::Node v = serial.system().positions()[p];
      guarded = v.x - origin.x < 3 || v.y - origin.y < 3;
    }
  }
  return guarded;
}

// A drift rebuild that would grow the shared plane past the arena cap
// (2^20 cells at this n) declines the arena in the middle of a walk,
// and the band finishes the run() call through step()'s body on the
// FlatMap.
TEST(ReplicaBand, DriftRebuildPastTheArenaCapDeclinesMidWalk) {
  std::vector<SeparationChain> banded;
  std::vector<SeparationChain> serial;
  lattice::Node origin3;
  for (std::size_t r = 0; r < 8; ++r) {
    banded.push_back(cap_decline_lane(r));
    serial.push_back(cap_decline_lane(r, &origin3));
  }
  auto ptrs = pointers(banded);
  ReplicaBand band(ptrs);
  band.run(kCapDeclineSteps);
  // Only the entry rebuild succeeded.
  EXPECT_EQ(band.stats().arena_rebuilds, 1u);
  EXPECT_EQ(band.stats().simd_steps + band.stats().scalar_steps,
            8 * kCapDeclineSteps);
  if (band.simd_enabled()) {
    EXPECT_GT(band.stats().simd_steps, 0u);
    EXPECT_LT(band.stats().simd_steps, 8 * kCapDeclineSteps);
  } else {
    EXPECT_EQ(band.stats().simd_steps, 0u);
  }
  for (std::size_t r = 0; r < 8; ++r) {
    if (r == 3) {
      EXPECT_TRUE(steps_into_guard_band(serial[r], origin3))
          << "lane 3 never drifted into its guard band";
    } else {
      for (std::uint64_t i = 0; i < kCapDeclineSteps; ++i) serial[r].step();
    }
    const std::string what = "cap-decline lane " + std::to_string(r);
    expect_same_state(serial[r], banded[r], what);
    expect_rng_in_sync(serial[r], banded[r], what);
  }
}

TEST(ReplicaBand, RejectsIncompatibleBands) {
  auto chains = make_replicas(2, 60, 2, Params{4.0, 4.0, true}, 3);
  auto ptrs = pointers(chains);
  EXPECT_THROW(ReplicaBand(std::span<SeparationChain* const>{}),
               std::invalid_argument);
  std::vector<SeparationChain*> with_null = ptrs;
  with_null.push_back(nullptr);
  EXPECT_THROW(ReplicaBand{with_null}, std::invalid_argument);
  SeparationChain other_n = make_chain(61, 2, Params{4.0, 4.0, true}, 5);
  std::vector<SeparationChain*> bad_n{ptrs[0], &other_n};
  EXPECT_THROW(ReplicaBand{bad_n}, std::invalid_argument);
  SeparationChain other_lambda = make_chain(60, 2, Params{3.0, 4.0, true}, 5);
  std::vector<SeparationChain*> bad_l{ptrs[0], &other_lambda};
  EXPECT_THROW(ReplicaBand{bad_l}, std::invalid_argument);
  SeparationChain other_swaps = make_chain(60, 2, Params{4.0, 4.0, false}, 5);
  std::vector<SeparationChain*> bad_s{ptrs[0], &other_swaps};
  EXPECT_THROW(ReplicaBand{bad_s}, std::invalid_argument);
  std::vector<SeparationChain*> too_wide(9, ptrs[0]);
  EXPECT_THROW(ReplicaBand{too_wide}, std::invalid_argument);
  // Mismatched quota span size.
  ReplicaBand band(ptrs);
  const std::uint64_t quotas[3] = {1, 1, 1};
  EXPECT_THROW(band.run(std::span<const std::uint64_t>(quotas, 3)),
               std::invalid_argument);
}

TEST(ReplicaBand, StatsAccountForEveryStep) {
  auto chains = make_replicas(8, 120, 2, Params{4.0, 4.0, true}, 53);
  auto ptrs = pointers(chains);
  ReplicaBand band(ptrs, 128);
  band.run(10000);
  const ReplicaBand::Stats& st = band.stats();
  EXPECT_EQ(st.simd_steps + st.scalar_steps, 8u * 10000u);
  EXPECT_EQ(st.refill_words, 3u * 8u * 10000u);
  EXPECT_EQ(st.blocks, (10000u + 127u) / 128u);
  if (ReplicaBand::auto_simd()) {
    EXPECT_TRUE(band.simd_enabled());
    EXPECT_GT(st.simd_steps, 0u);
  } else {
    EXPECT_EQ(st.simd_steps, 0u);
  }
}

// ---- single chains: width-1 bands ------------------------------------
//
// SeparationChain::run and the separation model run every single chain
// as a band of one lane, on the scalar arena walk (the SIMD path needs
// a full 8-lane group). These cases pin that path byte-identical to
// step() at every setting and block size, across segment splits and
// step() calls between segments, through drift re-centers and the
// FlatMap fallback. The suite keeps the name of StepPipeline, the
// single-chain executor the width-1 band replaced, so the test ids
// carry over.

// A band of one: the executor SeparationChain::run builds.
ReplicaBand band_of_one(SeparationChain& chain,
                        std::size_t block = ReplicaBand::kDefaultBlockSize) {
  SeparationChain* const lane = &chain;
  return ReplicaBand(std::span<SeparationChain* const>(&lane, 1), block);
}

TEST(StepPipeline, MatchesStepTrajectoryAtEverySetting) {
  for (const Setting& s : kSettings) {
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain banded = make_chain(s.n, s.k, s.params, s.seed);
    for (int i = 0; i < 100000; ++i) serial.step();
    band_of_one(banded).run(100000);
    const std::string what = "seed " + std::to_string(s.seed);
    expect_same_state(serial, banded, what + " 100k-step trajectory");
    expect_rng_in_sync(serial, banded, what);
  }
}

// Block size tunes only the decode/execute granularity, never a
// trajectory — from one step per block to the 4096 cap; every size but
// 1 leaves the 30,000-step run a partial last block.
TEST(StepPipeline, BlockSizeNeverChangesTheTrajectory) {
  const Setting& s = kSettings[0];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 30000; ++i) serial.step();
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{256},
                                  std::size_t{4096}}) {
    SeparationChain banded = make_chain(s.n, s.k, s.params, s.seed);
    ReplicaBand band = band_of_one(banded, block);
    EXPECT_EQ(band.block_size(), block);
    band.run(30000);
    expect_same_state(serial, banded, "block " + std::to_string(block));
  }
}

TEST(StepPipeline, BlockSizeIsClamped) {
  SeparationChain chain = make_chain(50, 2, Params{4.0, 4.0, true}, 5);
  EXPECT_EQ(band_of_one(chain, 0).block_size(), 1u);
  EXPECT_EQ(band_of_one(chain, std::size_t{1} << 20).block_size(),
            ReplicaBand::kMaxBlockSize);
}

// Odd-sized segments across one long-lived band: partial blocks and
// buffer reuse between run() calls.
TEST(StepPipeline, SegmentSplitsNeverChangeTheTrajectory) {
  const Setting& s = kSettings[3];  // high acceptance
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 30000; ++i) serial.step();

  SeparationChain banded = make_chain(s.n, s.k, s.params, s.seed);
  ReplicaBand band = band_of_one(banded);
  std::uint64_t remaining = 30000;
  std::uint64_t seg = 1;
  while (remaining > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(seg, remaining);
    band.run(take);
    remaining -= take;
    seg = seg * 3 + 1;  // 1, 4, 13, 40, ... hits many partial-block tails
  }
  expect_same_state(serial, banded, "segmented band");
  expect_rng_in_sync(serial, banded, "segmented band");
}

TEST(StepPipeline, CountersAreExactAfterEverySegment) {
  const Setting& s = kSettings[0];
  SeparationChain banded = make_chain(s.n, s.k, s.params, s.seed);
  ReplicaBand band = band_of_one(banded, 64);
  std::uint64_t total = 0;
  for (const std::uint64_t seg : {std::uint64_t{7}, std::uint64_t{64},
                                  std::uint64_t{65}, std::uint64_t{1000}}) {
    band.run(seg);
    total += seg;
    EXPECT_EQ(banded.counters().steps, total);
  }
}

// The arena is derived state: it survives between run() calls only
// while the chain's step counter shows nobody else moved it, so direct
// step() calls between segments on one long-lived band must be
// absorbed exactly.
TEST(StepPipeline, ExternalStepsBetweenSegmentsAreAbsorbed) {
  SeparationChain serial = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  SeparationChain banded = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  ReplicaBand band = band_of_one(banded);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5000; ++i) serial.step();
    band.run(5000);
    for (int i = 0; i < 137; ++i) {
      serial.step();
      banded.step();  // mutate the system outside the band
    }
  }
  expect_same_state(serial, banded, "interleaved run()/step() trajectory");
  expect_rng_in_sync(serial, banded, "interleaved run()/step() trajectory");
}

// SeparationChain::run builds a band of one per call.
TEST(StepPipeline, RunIsRewiredOntoThePipeline) {
  for (const Setting& s : kSettings) {
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
    for (int i = 0; i < 50000; ++i) serial.step();
    run_driven.run(50000);
    const std::string what = "SeparationChain::run seed " +
                             std::to_string(s.seed);
    expect_same_state(serial, run_driven, what);
    expect_rng_in_sync(serial, run_driven, what);
  }
}

TEST(StepPipeline, MatchesReferenceTwinTrajectory) {
  for (const Setting& s : kSettings) {
    SeparationChain reference = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
    reference.run_reference(50000);
    run_driven.run(50000);
    expect_same_state(reference, run_driven,
                      "reference twin seed " + std::to_string(s.seed));
  }
}

// A band of one never fills an 8-lane SIMD group, so every step takes a
// scalar path, and the block/refill ledger accounts for every proposal.
TEST(StepPipeline, StatsAccountForEveryProposal) {
  const Setting& s = kSettings[3];
  SeparationChain banded = make_chain(s.n, s.k, s.params, s.seed);
  ReplicaBand band = band_of_one(banded, 128);
  band.run(50000);
  const ReplicaBand::Stats& st = band.stats();
  EXPECT_EQ(st.scalar_steps, 50000u);
  EXPECT_EQ(st.simd_steps, 0u);
  EXPECT_EQ(st.refill_words, 3u * 50000u);
  EXPECT_EQ(st.blocks, (50000u + 127u) / 128u);
  EXPECT_EQ(band.simd_enabled(), ReplicaBand::auto_simd());
}

// A free blob (λ = γ = 1) diffuses; drifting into the arena's guard
// band must re-center it mid-run without perturbing the trajectory.
TEST(StepPipeline, DriftingBlobRecentersTheMirror) {
  SeparationChain serial = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  SeparationChain banded = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  ReplicaBand band = band_of_one(banded);
  for (int i = 0; i < 400000; ++i) serial.step();
  band.run(400000);
  // At least the entry rebuild plus one drift re-center.
  EXPECT_GE(band.stats().arena_rebuilds, 2u);
  expect_same_state(serial, banded, "diffusing trajectory");
  expect_rng_in_sync(serial, banded, "diffusing trajectory");
}

// A far-away outlier makes the bounding box uneconomical: the band must
// decline the arena and run the whole trajectory through step()'s body
// on the FlatMap, still byte-identical to step().
TEST(StepPipeline, OversizedBoundingBoxFallsBackToFlatMapGather) {
  util::Rng rng(77);
  auto nodes = lattice::random_blob(60, rng);
  nodes.push_back(lattice::Node{100000, 100000});
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  const Params params{4.0, 4.0, true};
  SeparationChain serial(ParticleSystem(nodes, colors), params, 77);
  SeparationChain banded(ParticleSystem(nodes, colors), params, 77);
  ReplicaBand band = band_of_one(banded);
  for (int i = 0; i < 30000; ++i) serial.step();
  band.run(30000);
  EXPECT_EQ(band.stats().arena_rebuilds, 0u);
  EXPECT_EQ(band.stats().simd_steps, 0u);
  EXPECT_EQ(band.stats().scalar_steps, 30000u);
  expect_same_state(serial, banded, "disconnected-outlier trajectory");
  expect_rng_in_sync(serial, banded, "disconnected-outlier trajectory");
}

// Lane 3 of ReplicaBand.DriftRebuildPastTheArenaCapDeclinesMidWalk on
// its own. There, with SIMD on, the decline happens in the 8-lane
// applies; here it happens in the single-chain arena walk, which then
// hands the rest of the run to step()'s body after syncing the map.
TEST(StepPipeline, DriftRebuildPastTheArenaCapDeclinesMidWalk) {
  lattice::Node origin;
  SeparationChain serial = cap_decline_lane(3, &origin);
  SeparationChain banded = cap_decline_lane(3);
  ReplicaBand band = band_of_one(banded);
  band.run(kCapDeclineSteps);
  // Only the entry rebuild succeeded.
  EXPECT_EQ(band.stats().arena_rebuilds, 1u);
  EXPECT_EQ(band.stats().scalar_steps, kCapDeclineSteps);
  EXPECT_TRUE(steps_into_guard_band(serial, origin))
      << "the chain never drifted into its guard band";
  expect_same_state(serial, banded, "width-1 cap decline");
  expect_rng_in_sync(serial, banded, "width-1 cap decline");
}

}  // namespace
}  // namespace sops::core
