// SeparationChain::run equivalence suite: after run(k) a chain must be
// byte-identical to a twin advanced by k serial step() calls, the
// reference, which recounts everything on the FlatMap and shares no
// kernel with the arena walk — same positions, colors, edge counts, all
// eight counters, post-run RNG state, and an occupancy index in sync
// with the positions — on both of run()'s paths (the arena walk, and
// step()'s body for ticks the arena cannot serve), at every setting, at
// lengths on block edges (run() decodes each block while it walks the
// one before), across segment splits, step() calls between segments,
// arena re-centers and a mid-walk arena decline. The suite keeps the
// name of StepPipeline, the single-chain executor it first tested, so
// the test ids carry over.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
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

// While run() holds its arena it moves particles without touching the
// FlatMap occupancy index and syncs the index when it exits. So the
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
// keep them in lockstep, pinning that run() consumed exactly the serial
// draw sequence.
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

TEST(StepPipeline, MatchesStepTrajectoryAtEverySetting) {
  for (const Setting& s : kSettings) {
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
    for (int i = 0; i < 100000; ++i) serial.step();
    run_driven.run(100000);
    const std::string what = "seed " + std::to_string(s.seed);
    expect_same_state(serial, run_driven, what + " 100k-step trajectory");
    expect_rng_in_sync(serial, run_driven, what);
  }
}

// A run() call decodes min(its length, kBlockSize) proposals per block,
// so a trajectory cut into calls of one length walks blocks of that
// size. Block size tunes only the decode granularity, never a
// trajectory — from one step per block through exactly one block to
// many blocks per call; every size but 1 leaves the 30,000-step run a
// partial last call.
TEST(StepPipeline, BlockSizeNeverChangesTheTrajectory) {
  const Setting& s = kSettings[0];
  constexpr std::uint64_t kSteps = 30000;
  constexpr std::uint64_t kBlock = SeparationChain::kBlockSize;
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (std::uint64_t i = 0; i < kSteps; ++i) serial.step();
  for (const std::uint64_t block : {std::uint64_t{1}, std::uint64_t{7},
                                    std::uint64_t{64}, kBlock,
                                    std::uint64_t{4096}}) {
    SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
    std::uint64_t blocks = 0;
    for (std::uint64_t done = 0; done < kSteps;) {
      const std::uint64_t take = std::min(block, kSteps - done);
      run_driven.run(take);
      blocks += (take + kBlock - 1) / kBlock;
      done += take;
    }
    const std::string what = "block " + std::to_string(block);
    EXPECT_EQ(run_driven.run_stats().blocks, blocks) << what;
    expect_same_state(serial, run_driven, what);
  }
}

// run() decodes each block while it walks the one before, and the
// call's first block up front. Lengths one short of, at and one past a
// block edge, one and two blocks in, must leave the generator exactly
// where step() does after every call: a decode that draws past the
// call's last block, or mis-sizes a short last block, fails here.
TEST(StepPipeline, BlockEdgeLengthsLeaveTheSerialGenerator) {
  constexpr std::uint64_t kBlock = SeparationChain::kBlockSize;
  for (const Setting& s : kSettings) {
    for (const std::uint64_t len : {kBlock - 1, kBlock, kBlock + 1,
                                    2 * kBlock - 1, 2 * kBlock,
                                    2 * kBlock + 1}) {
      SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
      SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
      for (std::uint64_t i = 0; i < len; ++i) serial.step();
      run_driven.run(len);
      const std::string what = "seed " + std::to_string(s.seed) +
                               " run(" + std::to_string(len) + ")";
      EXPECT_EQ(run_driven.rng_state(), serial.rng_state()) << what;
      expect_same_state(serial, run_driven, what);
      expect_rng_in_sync(serial, run_driven, what);
    }
    // Calls of two blocks and one step: every call ends on a one-step
    // block whose predecessor decoded it ahead.
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
    for (int call = 0; call < 8; ++call) {
      for (std::uint64_t i = 0; i < 2 * kBlock + 1; ++i) serial.step();
      run_driven.run(2 * kBlock + 1);
      ASSERT_EQ(run_driven.rng_state(), serial.rng_state())
          << "seed " << s.seed << " call " << call;
    }
    const std::string what =
        "seed " + std::to_string(s.seed) + " 8 calls of 2·256 + 1";
    expect_same_state(serial, run_driven, what);
    expect_rng_in_sync(serial, run_driven, what);
  }
}

// Odd-sized segments across one long-lived chain: partial blocks and
// buffer reuse between run() calls. A zero-length call draws nothing.
TEST(StepPipeline, SegmentSplitsNeverChangeTheTrajectory) {
  const Setting& s = kSettings[3];  // high acceptance
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  for (int i = 0; i < 30000; ++i) serial.step();

  SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
  run_driven.run(0);
  std::uint64_t remaining = 30000;
  std::uint64_t seg = 1;
  while (remaining > 0) {
    const std::uint64_t take = std::min<std::uint64_t>(seg, remaining);
    run_driven.run(take);
    remaining -= take;
    seg = seg * 3 + 1;  // 1, 4, 13, 40, ... hits many partial-block tails
  }
  expect_same_state(serial, run_driven, "segmented run");
  expect_rng_in_sync(serial, run_driven, "segmented run");
}

TEST(StepPipeline, CountersAreExactAfterEverySegment) {
  const Setting& s = kSettings[0];
  SeparationChain chain = make_chain(s.n, s.k, s.params, s.seed);
  std::uint64_t total = 0;
  for (const std::uint64_t seg : {std::uint64_t{7}, std::uint64_t{256},
                                  std::uint64_t{257}, std::uint64_t{1000}}) {
    chain.run(seg);
    total += seg;
    EXPECT_EQ(chain.counters().steps, total);
  }
}

// The arena is derived state: it survives between run() calls only
// while the chain's step counter shows nothing else moved the chain, so
// direct step() calls between segments must be absorbed exactly.
TEST(StepPipeline, ExternalStepsBetweenSegmentsAreAbsorbed) {
  SeparationChain serial = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  SeparationChain run_driven = make_chain(120, 2, Params{4.0, 4.0, true}, 55);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5000; ++i) serial.step();
    run_driven.run(5000);
    for (int i = 0; i < 137; ++i) {
      serial.step();
      run_driven.step();  // mutate the system outside run()
    }
  }
  // Rebuilt on entry to every segment: each one follows step() calls.
  EXPECT_GE(run_driven.run_stats().arena_rebuilds, 6u);
  expect_same_state(serial, run_driven, "interleaved run()/step() trajectory");
  expect_rng_in_sync(serial, run_driven, "interleaved run()/step() trajectory");
}

// The chain keeps its arena across run() calls, so a trajectory cut
// into many short calls (Theorem 13's checkpointed segments) builds it
// once, and stays byte-identical to step().
TEST(StepPipeline, ShortRunCallsBuildTheArenaOnce) {
  const Setting& s = kSettings[0];
  SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
  SeparationChain run_driven = make_chain(s.n, s.k, s.params, s.seed);
  for (std::uint64_t call = 0; call < 1000; ++call) {
    const std::uint64_t len = 1 + call % 7;
    run_driven.run(len);
    for (std::uint64_t i = 0; i < len; ++i) serial.step();
  }
  EXPECT_EQ(run_driven.run_stats().arena_rebuilds, 1u);
  expect_same_state(serial, run_driven, "1,000 short run() calls");
  expect_rng_in_sync(serial, run_driven, "1,000 short run() calls");
}

// The chain carries its arena when it is copied or moved (the
// separation model moves its chain into place): the copy and the moved
// chain continue without a rebuild, byte-identical to step().
TEST(StepPipeline, RunIsRewiredOntoThePipeline) {
  for (const Setting& s : kSettings) {
    SeparationChain serial = make_chain(s.n, s.k, s.params, s.seed);
    SeparationChain first = make_chain(s.n, s.k, s.params, s.seed);
    for (int i = 0; i < 50000; ++i) serial.step();
    first.run(25000);
    SeparationChain copy = first;
    SeparationChain moved = std::move(first);
    copy.run(25000);
    moved.run(25000);
    const std::string what = "seed " + std::to_string(s.seed);
    EXPECT_EQ(copy.run_stats().arena_rebuilds,
              moved.run_stats().arena_rebuilds);
    expect_same_state(serial, copy, what + " copied chain");
    expect_same_state(serial, moved, what + " moved chain");
    EXPECT_EQ(copy.rng_state(), serial.rng_state()) << what;
    EXPECT_EQ(moved.rng_state(), serial.rng_state()) << what;
  }
}

// The block and word ledger accounts for every proposal: three words
// each plus the Lemire rejections, none drawn past the run. A connected
// blob never leaves the arena walk.
TEST(StepPipeline, StatsAccountForEveryProposal) {
  const Setting& s = kSettings[3];
  SeparationChain chain = make_chain(s.n, s.k, s.params, s.seed);
  chain.run(50000);
  const SeparationChain::RunStats& st = chain.run_stats();
  EXPECT_EQ(st.blocks, (50000u + SeparationChain::kBlockSize - 1) /
                           SeparationChain::kBlockSize);
  EXPECT_EQ(st.words, 3u * 50000u + st.tail_words);
  EXPECT_GE(st.arena_rebuilds, 1u);
  EXPECT_EQ(st.flatmap_steps, 0u);
}

// A free blob (λ = γ = 1) diffuses; drifting into the arena's guard
// band must re-center it mid-run without perturbing the trajectory.
TEST(StepPipeline, DriftingBlobRecentersTheMirror) {
  SeparationChain serial = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  SeparationChain run_driven = make_chain(40, 2, Params{1.0, 1.0, true}, 66);
  for (int i = 0; i < 400000; ++i) serial.step();
  run_driven.run(400000);
  // At least the entry rebuild plus one drift re-center.
  EXPECT_GE(run_driven.run_stats().arena_rebuilds, 2u);
  expect_same_state(serial, run_driven, "diffusing trajectory");
  expect_rng_in_sync(serial, run_driven, "diffusing trajectory");
}

// A far-away outlier makes the bounding box uneconomical: run() must
// decline the arena and run the whole trajectory through step()'s body
// on the FlatMap, still byte-identical to step().
TEST(StepPipeline, OversizedBoundingBoxFallsBackToFlatMapGather) {
  util::Rng rng(77);
  auto nodes = lattice::random_blob(60, rng);
  nodes.push_back(lattice::Node{100000, 100000});
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  const Params params{4.0, 4.0, true};
  SeparationChain serial(ParticleSystem(nodes, colors), params, 77);
  SeparationChain run_driven(ParticleSystem(nodes, colors), params, 77);
  for (int i = 0; i < 30000; ++i) serial.step();
  run_driven.run(30000);
  EXPECT_EQ(run_driven.run_stats().arena_rebuilds, 0u);
  EXPECT_EQ(run_driven.run_stats().flatmap_steps, 30000u);
  expect_same_state(serial, run_driven, "disconnected-outlier trajectory");
  expect_rng_in_sync(serial, run_driven, "disconnected-outlier trajectory");
}

// Far above the paper's n: 4095 particles, byte-identical to step().
TEST(StepPipeline, LargeSystemMatchesStepTwin) {
  SeparationChain serial = make_chain(4095, 2, Params{4.0, 4.0, true}, 67);
  SeparationChain run_driven =
      make_chain(4095, 2, Params{4.0, 4.0, true}, 67);
  for (int i = 0; i < 3000; ++i) serial.step();
  run_driven.run(3000);
  EXPECT_GE(run_driven.run_stats().arena_rebuilds, 1u);
  expect_same_state(serial, run_driven, "n = 4095");
  expect_rng_in_sync(serial, run_driven, "n = 4095");
}

// The arena-cap decline setup: a free blob (λ = γ = 1) of 40 plus one
// isolated particle, which has no neighbor and so never moves. It sits
// so far out that the entry plane is exactly 1024 × 1024 cells, the cap
// at this n, so any growth of the box declines the arena, and only the
// blob drifting into its low-side guard band can trigger a rebuild,
// which grows the plane. `origin` receives the entry plane origin.
constexpr std::uint64_t kCapDeclineSteps = 200000;

SeparationChain cap_decline_chain(lattice::Node* origin = nullptr) {
  // The plane spans the bounding box plus an 8-cell margin on each
  // side; its side is kSide, and kSide² is the cap.
  constexpr std::int32_t kSide = 1024;
  constexpr std::int32_t kMargin = 8;
  util::Rng rng(104);
  auto nodes = lattice::random_blob(40, rng);
  lattice::Node low = nodes.front();
  for (const lattice::Node v : nodes) {
    low.x = std::min(low.x, v.x);
    low.y = std::min(low.y, v.y);
  }
  const std::int32_t far = kSide - 2 * kMargin - 1;
  nodes.push_back(lattice::Node{low.x + far, low.y + far});
  if (origin != nullptr) {
    *origin = lattice::Node{low.x - kMargin, low.y - kMargin};
  }
  const auto colors = balanced_random_colors(nodes.size(), 2, rng);
  return SeparationChain(ParticleSystem(nodes, colors),
                         Params{1.0, 1.0, true}, 104);
}

// Steps the step() twin through the run and reports whether its blob
// reached the guard band (3 cells inside the plane's low edges), so
// that run() had to try a rebuild there.
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

// A drift rebuild that would grow the plane past the arena cap (2^20
// cells at this n) declines the arena in the middle of the walk, which
// hands the rest of the run to step()'s body after syncing the map. The
// decline lands in a block that is not the call's last, so the walk was
// decoding the next block ahead when it stopped: the rest of that
// block must still be decoded in order.
TEST(StepPipeline, DriftRebuildPastTheArenaCapDeclinesMidWalk) {
  lattice::Node origin;
  SeparationChain serial = cap_decline_chain(&origin);
  SeparationChain run_driven = cap_decline_chain();
  run_driven.run(kCapDeclineSteps);
  // Only the entry rebuild succeeded.
  EXPECT_EQ(run_driven.run_stats().arena_rebuilds, 1u);
  // The call's last block holds kCapDeclineSteps % kBlockSize = 64
  // steps, so more FlatMap steps than a block means a full block ran
  // after the one that declined.
  EXPECT_GT(run_driven.run_stats().flatmap_steps,
            SeparationChain::kBlockSize);
  EXPECT_LT(run_driven.run_stats().flatmap_steps, kCapDeclineSteps);
  EXPECT_TRUE(steps_into_guard_band(serial, origin))
      << "the chain never drifted into its guard band";
  expect_same_state(serial, run_driven, "cap decline");
  expect_rng_in_sync(serial, run_driven, "cap decline");
}

}  // namespace
}  // namespace sops::core
