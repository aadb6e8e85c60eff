// E12 — kernel microbenchmarks (google-benchmark): the cost of the hot
// operations underlying every experiment — chain steps, locality checks,
// neighbor counts, hash-table ops, RNG draws, invariant checkers.
//
// A `single` harness over the google-benchmark loop: the harness owns
// the common flags (--seed/--threads are accepted but unused here) and
// forwards every --benchmark_* argument verbatim to the library
// (--benchmark_filter, --benchmark_format, …). Timings are inherently
// machine-dependent, so the byte-identity contract does not apply.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/coloring.hpp"
#include "src/core/locality.hpp"
#include "src/core/markov_chain.hpp"
#include "src/harness/harness.hpp"
#include "src/lattice/shapes.hpp"
#include "src/metrics/separation.hpp"
#include "src/sops/invariants.hpp"
#include "src/util/hash_table.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace sops;

core::SeparationChain make_chain(
    std::size_t n, std::uint64_t seed,
    core::Params params = core::Params{4.0, 4.0, true}) {
  util::Rng rng(seed);
  const auto nodes = lattice::random_blob(n, rng);
  const auto colors = core::balanced_random_colors(n, 2, rng);
  return core::SeparationChain(system::ParticleSystem(nodes, colors), params,
                               seed);
}

// SeparationChain::step(), the reference: per-call recounts on the
// FlatMap, the path run() takes only for ticks its arena cannot serve.
// The chain burns in 50k steps first so the timing loop measures the
// steady-state regime rather than the drift toward it (the
// configuration keeps evolving *during* measurement, and without
// burn-in the early, uncompressed part of the trajectory — with its
// different move/swap mix — would dominate).
constexpr std::uint64_t kStepBurnIn = 50'000;

void BM_ChainStep(benchmark::State& state) {
  core::SeparationChain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 42);
  chain.run(kStepBurnIn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainStep)->Arg(50)->Arg(100)->Arg(400)->Arg(1600);

// SeparationChain::run (src/core/markov_chain.hpp), the walk every
// trajectory runs on: each timing iteration advances the chain by one
// fixed 4096-step chunk, so items/s compares steps-for-steps with
// BM_ChainStep. arena_rebuilds, flatmap_steps and tail_words surface
// SeparationChain::RunStats, so a drift-rebuild storm, a refused arena
// or a Lemire-rejection anomaly shows up in the snapshot rather than as
// an unexplained slowdown.
constexpr std::uint64_t kChunk = 4096;

void chain_run_impl(benchmark::State& state, core::Params params) {
  core::SeparationChain chain =
      make_chain(static_cast<std::size_t>(state.range(0)), 42, params);
  chain.run(kStepBurnIn);
  const core::SeparationChain::RunStats before = chain.run_stats();
  const std::uint64_t accepts0 =
      chain.counters().moves_accepted + chain.counters().swaps_accepted;
  for (auto _ : state) {
    chain.run(kChunk);
  }
  const auto steps =
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kChunk);
  state.SetItemsProcessed(steps);
  const std::uint64_t accepts =
      chain.counters().moves_accepted + chain.counters().swaps_accepted;
  state.counters["arena_rebuilds"] = benchmark::Counter(static_cast<double>(
      chain.run_stats().arena_rebuilds - before.arena_rebuilds));
  state.counters["flatmap_steps"] = benchmark::Counter(static_cast<double>(
      chain.run_stats().flatmap_steps - before.flatmap_steps));
  state.counters["tail_words"] = benchmark::Counter(static_cast<double>(
      chain.run_stats().tail_words - before.tail_words));
  state.counters["accept_rate"] = benchmark::Counter(
      steps > 0 ? static_cast<double>(accepts - accepts0) /
                      static_cast<double>(steps)
                : 0.0);
}

// λ = γ = 4: the separated regime, where chains accept about 6% of
// proposals.
void BM_ChainRun(benchmark::State& state) {
  chain_run_impl(state, core::Params{4.0, 4.0, true});
}
BENCHMARK(BM_ChainRun)->Arg(400);

// Fig. 3's λ = 4, γ = 1 cell at its n = 100: compressed and integrated,
// accepting about 85% of proposals, so the accept path (arena and
// position updates) dominates the walk.
void BM_ChainRunGamma1(benchmark::State& state) {
  chain_run_impl(state, core::Params{4.0, 1.0, true});
}
BENCHMARK(BM_ChainRunGamma1)->Arg(100);

void BM_PropertyCheck_Reference(benchmark::State& state) {
  core::SeparationChain chain = make_chain(100, 7);
  chain.run(100000);
  const auto& sys = chain.system();
  util::Rng rng(3);
  for (auto _ : state) {
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    const int dir = static_cast<int>(rng.below(6));
    benchmark::DoNotOptimize(
        core::move_preserves_invariants_reference(sys, sys.position(i), dir));
  }
}
BENCHMARK(BM_PropertyCheck_Reference);

void BM_NeighborCount(benchmark::State& state) {
  core::SeparationChain chain = make_chain(100, 9);
  const auto& sys = chain.system();
  util::Rng rng(4);
  for (auto _ : state) {
    const auto i =
        static_cast<system::ParticleIndex>(rng.below(sys.size()));
    benchmark::DoNotOptimize(sys.neighbor_count(sys.position(i)));
  }
}
BENCHMARK(BM_NeighborCount);

void BM_FlatMapInsertErase(benchmark::State& state) {
  util::FlatMap<int> map(1024);
  util::Rng rng(5);
  for (auto _ : state) {
    const std::uint64_t key = rng.below(4096);
    map.insert(key, 1);
    map.erase(rng.below(4096));
  }
}
BENCHMARK(BM_FlatMapInsertErase);

void BM_FlatMapFind(benchmark::State& state) {
  util::FlatMap<int> map(1024);
  for (std::uint64_t i = 0; i < 1000; ++i) map.insert(i * 7919, 1);
  util::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(rng.below(1000) * 7919));
  }
}
BENCHMARK(BM_FlatMapFind);

void BM_RngDraw(benchmark::State& state) {
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngDraw);

void BM_PerimeterWalk(benchmark::State& state) {
  util::Rng rng(8);
  const system::ParticleSystem sys(
      lattice::random_blob(static_cast<std::size_t>(state.range(0)), rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::perimeter_walk(sys));
  }
}
BENCHMARK(BM_PerimeterWalk)->Arg(100)->Arg(400);

// One random start blob, as every Figure 2/3 chain and every sweep
// service task grows before its first step; items are blobs. A fresh
// blob per iteration, since the generator runs on.
void BM_RandomBlob(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lattice::random_blob(n, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomBlob)->Arg(24)->Arg(200);

void BM_HoleCheck(benchmark::State& state) {
  util::Rng rng(9);
  const system::ParticleSystem sys(lattice::random_blob(200, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system::has_hole(sys));
  }
}
BENCHMARK(BM_HoleCheck);

void BM_SeparationDetector(benchmark::State& state) {
  core::SeparationChain chain = make_chain(100, 10);
  chain.run(1000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::find_separation(chain.system(), 6.0));
  }
}
BENCHMARK(BM_SeparationDetector);

}  // namespace

int main(int argc, char** argv) {
  sops::harness::Spec spec;
  spec.name = "bench_kernels";
  spec.experiment = "E12";
  spec.paper_artifact = "kernel microbenchmarks (google-benchmark)";
  spec.claim =
      "hot-path costs: chain steps, locality checks, neighbor counts, "
      "hash-table ops, RNG draws, invariant checkers";
  spec.passthrough_prefix = "--benchmark_";

  spec.single = [&](const sops::harness::Options& opt) {
    // Rebuild an argv for the library from the forwarded arguments.
    std::vector<std::string> own(opt.passthrough.begin(),
                                 opt.passthrough.end());
    std::vector<char*> bargv{argv[0]};
    for (auto& s : own) bargv.push_back(s.data());
    int bargc = static_cast<int>(bargv.size());
    benchmark::Initialize(&bargc, bargv.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) {
      return sops::harness::kUsageError;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  };
  return sops::harness::run(spec, argc, argv);
}
