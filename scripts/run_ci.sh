#!/usr/bin/env bash
# Single-command CI: configure, build with warnings as errors
# (SOPS_WERROR=ON, so a new warning fails CI), run the full test suite, then
# smoke-check the sharded-harness round-trip (worker → merge →
# byte-identical report) for two grid harnesses — one chain-backed
# (bench_thm13_compression) and one exact/aux-backed (bench_mixing_gap,
# retrofitted onto the engine by the harness framework). The 13
# separation harness reports at --threads 4 are cmp'd against the
# committed --threads 1 goldens under tests/golden/. The model
# registry gets its own gates: the `ctest -L model` tier, an alignment
# phase-diagram report cmp'd against the committed golden under
# tests/golden/, and a second kill -9 + elastic-recovery cycle run
# against bench_alignment_phase_diagram to prove the checkpoint path is
# model-generic. A --threads 4 checkpointed thm13 run and its resume
# must match the plain report while four tasks share one snapshot
# writer. A symbol guard fails CI when the step kernel's
# libraries call libgcc's software popcount. An ASan+UBSan tier rebuilds
# every target in <build-dir>-asan and runs the whole test suite there
# with UBSAN_OPTIONS=halt_on_error=1, so a memory error or any undefined
# behaviour anywhere a test reaches (a refusal path, SeparationChain::run's
# arena walk, the FlatMap, the start-blob grid) fails CI, not only a
# wrong exception or trajectory. A
# ThreadSanitizer tier rebuilds the test binaries that start threads
# (thread pool, engine, shard, checkpoint, harness, service) in
# <build-dir>-tsan and runs their label tiers, so a data race fails CI.
#
# Usage: scripts/run_ci.sh [build-dir]
#   build-dir  CMake build tree to create/reuse (default: build)
#
# Environment:
#   CMAKE_BUILD_TYPE  build type (default: Release)
#   JOBS              parallel build/test jobs (default: nproc)
#   SOPS_BENCH_STRICT kernel-perf comparison hard-fails (exit 1) on a
#                     regression beyond the tolerance instead of the
#                     default warn-only behavior (see
#                     bench_kernels_snapshot.sh --compare --tolerance)
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${1:-build}
build_type=${CMAKE_BUILD_TYPE:-Release}
jobs=${JOBS:-$(nproc)}

echo "== configure ($build_dir, $build_type, -Werror)"
cmake -S . -B "$build_dir" -DCMAKE_BUILD_TYPE="$build_type" -DSOPS_WERROR=ON

echo "== build (-j$jobs)"
cmake --build "$build_dir" -j "$jobs"

echo "== step kernel links no software popcount (nm)"
# The default target, baseline x86-64, has no POPCNT instruction, so
# std::popcount there compiles to a call to libgcc's __popcountdi2. The
# step kernel counts with a multiply fold instead
# (src/core/neighborhood.hpp); fail if such a call creeps back in.
undefined=$(nm -A -u "$build_dir"/src/core/libsops_core.a \
  "$build_dir"/src/sops/libsops_system.a)
if grep __popcount <<<"$undefined"; then
  echo "FAIL: libsops_core/libsops_system call libgcc's popcount (above)" >&2
  exit 1
fi
echo "ok: no __popcount symbol in libsops_core.a or libsops_system.a"

echo "== ctest"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

echo "== ctest model tier (registry + alignment seam)"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -L model

echo "== alignment smoke (report vs committed golden)"
"$build_dir"/bench/bench_alignment_phase_diagram --threads 1 \
  >/tmp/sops_alignment_smoke.$$.txt
cmp /tmp/sops_alignment_smoke.$$.txt tests/golden/bench_alignment_phase_diagram.txt
rm -f /tmp/sops_alignment_smoke.$$.txt
echo "ok: alignment report byte-identical to tests/golden"

echo "== separation reports (--threads 4 vs committed --threads 1 goldens)"
# The 13 separation harnesses at default scale. Each golden under
# tests/golden/ was written at --threads 1, so a report that differs
# means a trajectory moved (a step kernel change) or depends on the
# thread count.
reports=$(mktemp -d "${TMPDIR:-/tmp}/sops_reports.XXXXXX")
for name in baselines distributed_equivalence exact_observables \
    fig2_timeline fig3_phase_diagram lemma2_pmin lemma9_stationary \
    mixing_gap swap_ablation thm11_cluster_expansion thm13_compression \
    thm14_separation thm15_16_integration; do
  "$build_dir/bench/bench_$name" --threads 4 >"$reports/$name.txt"
  cmp "$reports/$name.txt" "tests/golden/bench_$name.txt"
done
rm -rf "$reports"
echo "ok: 13 separation reports at --threads 4 byte-identical to tests/golden"

echo "== shard round-trip smoke (bench_thm13_compression)"
scripts/check_shard_roundtrip.sh "$build_dir" bench_thm13_compression 2

echo "== shard round-trip smoke (bench_mixing_gap)"
scripts/check_shard_roundtrip.sh "$build_dir" bench_mixing_gap 3

echo "== service smoke (sweep server + load client, every served harness)"
scripts/check_service_smoke.sh "$build_dir" bench_fig3_phase_diagram \
  bench_thm13_compression bench_alignment_phase_diagram

echo "== checkpoint kill -9 + elastic recovery (bench_thm13_compression)"
scripts/check_checkpoint_kill9.sh "$build_dir" bench_thm13_compression

echo "== checkpoint kill -9 + elastic recovery (bench_alignment_phase_diagram)"
scripts/check_checkpoint_kill9.sh "$build_dir" bench_alignment_phase_diagram

echo "== checkpoint writer shared by four tasks (bench_thm13_compression)"
# The drills above run --threads 1. Here four tasks hand snapshots to
# one writer thread at once; the checkpointed run and a resume over its
# snapshots must both reproduce the plain report.
shared=$(mktemp -d "${TMPDIR:-/tmp}/sops_ckpt_shared.XXXXXX")
thm13="$build_dir"/bench/bench_thm13_compression
"$thm13" --threads 1 >"$shared/plain.txt"
"$thm13" --threads 4 --checkpoint-dir "$shared/snaps" \
  --checkpoint-every 5000 >"$shared/checkpointed.txt"
cmp "$shared/plain.txt" "$shared/checkpointed.txt"
"$thm13" --threads 4 --checkpoint-dir "$shared/snaps" \
  --checkpoint-every 5000 --resume >"$shared/resumed.txt"
cmp "$shared/plain.txt" "$shared/resumed.txt"
rm -rf "$shared"
echo "ok: --threads 4 checkpointed and resumed reports match --threads 1"

echo "== ASan+UBSan tier (every test under ${build_dir}-asan)"
cmake -S . -B "${build_dir}-asan" -DSOPS_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}-asan" -j "$jobs"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "${build_dir}-asan" --output-on-failure -j "$jobs"

echo "== TSan tier (engine|shard|checkpoint|harness|service under ${build_dir}-tsan)"
# No core test or src/core file starts a thread, so the core tier stays
# out: these are the binaries that run the pool.
cmake -S . -B "${build_dir}-tsan" -DSOPS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${build_dir}-tsan" -j "$jobs" --target thread_pool_test \
  engine_test shard_test checkpoint_test harness_test service_test
ctest --test-dir "${build_dir}-tsan" --output-on-failure -j "$jobs" \
  -L 'engine|shard|checkpoint|harness|service'

echo "== kernel perf vs recorded snapshot ($(
  [[ -n ${SOPS_BENCH_STRICT:-} && ${SOPS_BENCH_STRICT:-} != 0 ]] \
    && echo "strict: SOPS_BENCH_STRICT=1" || echo warn-only))"
scripts/bench_kernels_snapshot.sh --compare "$build_dir" BENCH_kernels.json

echo "PASS: CI green"
