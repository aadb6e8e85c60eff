#!/usr/bin/env bash
# Checkpoint/recovery smoke check: the full crash story, end to end.
#
# Phase A — kill -9 and resume:
#   run a harness unsharded for the golden report, then start worker 1/2
#   with periodic checkpointing, kill -9 it the moment its first
#   mid-task snapshot lands, resume it to completion, run worker 0/2
#   normally, merge, and require the merged report to be byte-identical
#   (cmp) to the golden uninterrupted run. Also proves the canonical
#   merged artifact is unchanged by the crash/resume detour.
#
# Phase B — elastic recovery of a lost worker:
#   consolidate only worker 0's file with sops_shard_merge --elastic,
#   require the gap report to name exactly worker 1's task range and
#   emit a matching re-plan, run just that re-planned range, merge the
#   recovered set, and require the report to match the golden bytes.
#
# Usage: scripts/check_checkpoint_kill9.sh [build-dir] [harness]
#   build-dir  CMake build tree holding bench/ binaries (default: build)
#   harness    chain-backed sharded harness (default:
#              bench_thm13_compression — the longest chains in the suite)
set -euo pipefail

build_dir=${1:-build}
harness=${2:-bench_thm13_compression}
every=${SOPS_CHECKPOINT_EVERY:-50000}

bin="$build_dir/bench/$harness"
merge_bin="$build_dir/bench/sops_shard_merge"
[[ -x $bin ]] || { echo "error: $bin not built" >&2; exit 1; }
[[ -x $merge_bin ]] || { echo "error: $merge_bin not built" >&2; exit 1; }

work=$(mktemp -d "${TMPDIR:-/tmp}/ckpt_kill9.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parts"

echo "== golden reference ($harness, uninterrupted, unsharded)"
"$bin" >"$work/golden.txt"

# ---- Phase A: kill -9 a checkpointing worker mid-task, resume it ------

# The kill must land while the worker is still running, else the check
# proves nothing; retry with a fresh snapshot dir if the worker wins the
# race (it never should — the first snapshot lands milliseconds in,
# with most of the trajectory still ahead).
killed=0
for attempt in 1 2 3; do
  ckdir="$work/snap$attempt"
  echo "== start worker 1/2 (--checkpoint-every $every), attempt $attempt"
  "$bin" --shard 1/2 --shard-out "$work/parts/w1.shard" --threads 1 \
    --checkpoint-dir "$ckdir" --checkpoint-every "$every" \
    >/dev/null 2>&1 &
  victim=$!
  while kill -0 "$victim" 2>/dev/null; do
    if compgen -G "$ckdir/*.sopsckpt" >/dev/null; then
      kill -9 "$victim" 2>/dev/null || true
      break
    fi
  done
  rc=0
  wait "$victim" || rc=$?
  if [[ $rc -eq 137 ]]; then
    killed=1
    break
  fi
  echo "note: worker exited (rc=$rc) before the kill landed; retrying"
  rm -f "$work/parts/w1.shard"
done
[[ $killed -eq 1 ]] || {
  echo "FAIL: could not kill the worker mid-task in 3 attempts" >&2
  exit 1
}
[[ ! -s $work/parts/w1.shard ]] || {
  echo "FAIL: killed worker still produced a shard file" >&2
  exit 1
}
echo "ok: worker killed by SIGKILL with $(ls "$ckdir" | wc -l) snapshot(s)"

echo "== resume worker 1/2 from its snapshots"
"$bin" --shard 1/2 --shard-out "$work/parts/w1.shard" --threads 1 \
  --checkpoint-dir "$ckdir" --checkpoint-every "$every" --resume \
  >/dev/null 2>"$work/resume_err.txt"
# The runner's tally always prints "<k> resumed", so require k >= 1: a
# resume that restored no snapshot and reran every task prints
# "0 resumed".
grep -Eq '(^|[^0-9])[1-9][0-9]* resumed' "$work/resume_err.txt" || {
  echo "FAIL: resume run did not report resumed tasks:" >&2
  cat "$work/resume_err.txt" >&2
  exit 1
}

echo "== worker 0/2 (uninterrupted)"
"$bin" --shard 0/2 --shard-out "$work/parts/w0.shard" --threads 1 \
  >/dev/null

echo "== merge and compare against the golden report"
"$bin" --merge-dir "$work/parts" >"$work/merged.txt"
cmp "$work/golden.txt" "$work/merged.txt"
echo "ok: post-crash merged report byte-identical to uninterrupted run"

echo "== canonical artifact is unchanged by the crash/resume detour"
"$merge_bin" --merge-dir "$work/parts" --out "$work/all.sopsshard"
"$bin" --merge "$work/all.sopsshard" >"$work/from_artifact.txt"
cmp "$work/golden.txt" "$work/from_artifact.txt"
echo "ok: canonical artifact reproduces the golden report"

# ---- Phase B: elastic recovery after losing a worker outright ---------

echo "== elastic consolidation with worker 1's file lost"
"$merge_bin" --elastic --inputs "$work/parts/w0.shard" \
  >"$work/elastic.txt"
grep -q "coverage gaps" "$work/elastic.txt" || {
  echo "FAIL: elastic consolidation did not report gaps:" >&2
  cat "$work/elastic.txt" >&2
  exit 1
}
grep -q "missing tasks 2:4" "$work/elastic.txt" || {
  echo "FAIL: gap report did not name worker 1's range 2:4:" >&2
  cat "$work/elastic.txt" >&2
  exit 1
}
replan=$(grep -o -- '--task-range [0-9]*:[0-9]*' "$work/elastic.txt")
[[ $replan == "--task-range 2:4" ]] || {
  echo "FAIL: re-plan '$replan' does not cover exactly the gap 2:4" >&2
  exit 1
}
echo "ok: gap named and re-plan covers exactly the missing range"

echo "== run the re-planned range and merge the recovered set"
mkdir "$work/parts2"
# shellcheck disable=SC2086  # $replan is two words by construction
"$bin" $replan --shard-out "$work/parts2/replan.shard" --threads 1 \
  >/dev/null
"$merge_bin" --elastic \
  --inputs "$work/parts/w0.shard,$work/parts2/replan.shard" \
  --out "$work/recovered.sopsshard" >"$work/elastic2.txt"
grep -q "coverage complete" "$work/elastic2.txt" || {
  echo "FAIL: recovered set still reports gaps:" >&2
  cat "$work/elastic2.txt" >&2
  exit 1
}
"$bin" --merge "$work/recovered.sopsshard" >"$work/recovered.txt"
cmp "$work/golden.txt" "$work/recovered.txt"
# A gap-free elastic artifact is the canonical merge, byte for byte.
cmp "$work/all.sopsshard" "$work/recovered.sopsshard"
echo "ok: elastic recovery reproduces the golden report and artifact"

echo "PASS: $harness checkpoint kill -9 + elastic recovery"
