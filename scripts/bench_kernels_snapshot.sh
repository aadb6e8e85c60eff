#!/usr/bin/env bash
# Records one point of the kernel-performance trajectory: runs the
# step/locality/count microbenches of bench_kernels (step() is the
# reference, run() the arena walk) and the start-blob build
# (BM_RandomBlob/24 and /200) with --benchmark_format=json and distills
# machine note + items/sec (+ the flatmap_steps counter of the
# SeparationChain::run rows, nonzero only when the arena was refused)
# into a stable, diff-friendly JSON file. When
# taskset exists, the benchmark runs pinned to CPU 0 (record and
# compare alike): unpinned rows on a shared box swing past the compare
# tolerance between back-to-back runs of one build. Each row is the
# fastest of five repetitions (highest items/sec, or lowest ns/op where
# a row has no items/sec), record and compare alike: time stolen by
# other tenants only ever slows a repetition down, so the fastest one
# moves least between runs of one build.
#
# Usage: scripts/bench_kernels_snapshot.sh [build-dir] [out-file]
#   build-dir  CMake build tree holding bench/bench_kernels (default: build)
#   out-file   snapshot destination (default: BENCH_kernels.json)
#
#        scripts/bench_kernels_snapshot.sh --compare [--tolerance PCT] \
#            [build-dir] [baseline]
#   Re-measures, prints each row's measurement beside its baseline
#   value, and prints a WARN line per benchmark whose items/sec
#   dropped more than PCT percent (default 25) below the committed
#   baseline (default: BENCH_kernels.json). By default perf drift
#   warns, never gates CI — the script exits 0 unless the benchmark
#   binary itself is missing/broken. Opt-in hard-fail mode: set
#   SOPS_BENCH_STRICT=1 to exit 1 when any benchmark breaches the
#   tolerance (for perf-gated CI lanes). Rows on one side only print as
#   NEW: (this run only) or REMOVED: (baseline only); both are
#   informational and never trip SOPS_BENCH_STRICT.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=0
tolerance=25
while [[ ${1:-} == --* ]]; do
  case $1 in
    --compare) compare=1; shift ;;
    --tolerance)
      [[ $compare == 1 ]] || { echo "error: --tolerance only applies to --compare" >&2; exit 2; }
      tolerance=${2:?--tolerance needs a percentage}
      shift 2 ;;
    *) echo "error: unknown flag $1" >&2; exit 2 ;;
  esac
done
build_dir=${1:-build}
out=${2:-BENCH_kernels.json}

bin=$build_dir/bench/bench_kernels
[[ -x $bin ]] || { echo "error: $bin not built" >&2; exit 1; }

filter='BM_ChainStep/(400|1600)|BM_ChainRun/400|BM_ChainRunGamma1/100|BM_PropertyCheck_Reference$|BM_NeighborCount$|BM_RandomBlob/(24|200)$'
pin=()
if command -v taskset >/dev/null 2>&1; then pin=(taskset -c 0); fi
raw=$(mktemp "${TMPDIR:-/tmp}/bench_kernels.XXXXXX.json")
trap 'rm -f "$raw"' EXIT

# The harness prints its report banner on stdout, so route the JSON
# through --benchmark_out instead of --benchmark_format=json on stdout.
# Five repetitions, each reported: distill() keeps the fastest.
"${pin[@]}" "$bin" --benchmark_filter="$filter" --benchmark_min_time=0.5 \
  --benchmark_repetitions=5 --benchmark_format=json \
  --benchmark_out="$raw" --benchmark_out_format=json > /dev/null

build_type=$(grep -m1 '^CMAKE_BUILD_TYPE' "$build_dir/CMakeCache.txt" 2>/dev/null \
  | cut -d= -f2)

distill() {
  # $1 = raw google-benchmark JSON; emits the snapshot document. Per
  # benchmark, in first-run order, only the fastest repetition is kept:
  # the highest items/sec, or the lowest ns/op for rows without one.
  jq --arg machine "$(uname -srm), $(nproc) cores" \
     --arg build_type "${build_type:-unknown}" '{
    machine: $machine,
    build_type: $build_type,
    benchmarks: ([.benchmarks[] | select(.run_type == "iteration")] as $runs
      | [$runs[] | select(.repetition_index == 0) | .run_name]
      | map(. as $name | [$runs[] | select(.run_name == $name)]
        | if .[0].items_per_second != null
          then max_by(.items_per_second) else min_by(.cpu_time) end
        | {
          name: .run_name,
          items_per_second: (.items_per_second // null),
          ns_per_op: .cpu_time,
          flatmap_steps: (.flatmap_steps // null)
        }))
  }' "$1"
}

if (( compare )); then
  baseline=${2:-BENCH_kernels.json}
  [[ -f $baseline ]] || { echo "note: no baseline $baseline; skipping kernel perf comparison"; exit 0; }
  current=$(mktemp "${TMPDIR:-/tmp}/bench_kernels_cur.XXXXXX.json")
  trap 'rm -f "$raw" "$current"' EXIT
  distill "$raw" > "$current"
  # Every row's measurement beside its baseline, ratio current/baseline,
  # so a compare that passes still leaves its numbers in the log.
  jq -n -r --slurpfile base "$baseline" --slurpfile cur "$current" '
    $cur[0].benchmarks[] as $c
    | ($base[0].benchmarks[] | select(.name == $c.name)) as $b
    | if $c.items_per_second != null and $b.items_per_second != null
      then "\($c.name): \($c.items_per_second | floor) items/s vs baseline \($b.items_per_second | floor) (\($c.items_per_second / $b.items_per_second * 100 | round / 100))"
      else "\($c.name): \($c.ns_per_op * 10 | round / 10) ns/op vs baseline \($b.ns_per_op * 10 | round / 10) (\($c.ns_per_op / $b.ns_per_op * 100 | round / 100))"
      end'
  warnings=$(jq -n --slurpfile base "$baseline" --slurpfile cur "$current" \
    --argjson tol "$tolerance" '
    [$base[0].benchmarks[] as $b
     | ($cur[0].benchmarks[] | select(.name == $b.name)) as $c
     | select($b.items_per_second != null and $c.items_per_second != null)
     | select($c.items_per_second < (1 - $tol / 100) * $b.items_per_second)
     | "WARN: \($b.name) slowed: \($c.items_per_second | floor) items/s vs baseline \($b.items_per_second | floor)"]
    | .[]' -r)
  # Benchmarks in the new run with no baseline row are additions, not
  # regressions: report them informationally so the operator refreshes
  # the snapshot, but never let them trip SOPS_BENCH_STRICT.
  additions=$(jq -n --slurpfile base "$baseline" --slurpfile cur "$current" '
    ([$base[0].benchmarks[].name]) as $known
    | [$cur[0].benchmarks[]
       | select(.name as $n | $known | index($n) | not)
       | "NEW: \(.name): \(if .items_per_second then (.items_per_second | floor | tostring) + " items/s" else "\(.ns_per_op | floor) ns/op" end) — no baseline row; refresh with scripts/bench_kernels_snapshot.sh"]
    | .[]' -r)
  # Baseline rows the run no longer has are deletions or renames: report
  # them the same way, so a vanished row is seen rather than silently
  # skipped by the comparison above.
  removals=$(jq -n --slurpfile base "$baseline" --slurpfile cur "$current" '
    ([$cur[0].benchmarks[].name]) as $have
    | [$base[0].benchmarks[]
       | select(.name as $n | $have | index($n) | not)
       | "REMOVED: \(.name): in the baseline, not in this run; refresh with scripts/bench_kernels_snapshot.sh"]
    | .[]' -r)
  [[ -z $warnings ]] || printf '%s\n' "$warnings"
  [[ -z $additions ]] || printf '%s\n' "$additions"
  [[ -z $removals ]] || printf '%s\n' "$removals"
  if [[ -n ${SOPS_BENCH_STRICT:-} && ${SOPS_BENCH_STRICT:-} != 0 \
        && -n $warnings ]]; then
    echo "FAIL: kernel perf regression beyond ${tolerance}% (SOPS_BENCH_STRICT=1)" >&2
    exit 1
  fi
  echo "kernel perf comparison done ($( [[ -n ${SOPS_BENCH_STRICT:-} && ${SOPS_BENCH_STRICT:-} != 0 ]] && echo strict || echo warn-only ), threshold ${tolerance}%)"
else
  distill "$raw" > "$out"
  echo "wrote $out"
fi
