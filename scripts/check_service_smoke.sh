#!/usr/bin/env bash
# Service-layer smoke check: start the sweep server, submit each served
# harness's job over the socket, and require every served report to be
# byte-identical to its batch harness at --threads 1. Also exercises
# the job-lifecycle surface (ping, cancel, bounded-queue overload
# refusal, job-tagged telemetry, clean shutdown with a stats line), a
# short load-generator run (which itself fails on any protocol error),
# and the exit-code contract shared with the rest of the tools: usage
# errors exit 2 (--submit on a harness the server cannot run among
# them), data/protocol errors exit 1.
#
# Usage: scripts/check_service_smoke.sh [build-dir] [harness...]
#   build-dir  CMake build tree holding bench/ binaries (default: build)
#   harness    served harnesses to submit and byte-compare (default: all
#              three the server runs: bench_fig3_phase_diagram,
#              bench_thm13_compression, bench_alignment_phase_diagram);
#              the first also drives the exit-code checks
set -euo pipefail

build_dir=${1:-build}
shift || true
harnesses=("$@")
if (( ${#harnesses[@]} == 0 )); then
  harnesses=(bench_fig3_phase_diagram bench_thm13_compression
             bench_alignment_phase_diagram)
fi

bin="$build_dir/bench/${harnesses[0]}"
unserved_bin="$build_dir/bench/bench_thm14_separation"
server_bin="$build_dir/bench/sops_sweep_server"
client_bin="$build_dir/bench/sops_load_client"
for b in "${harnesses[@]/#/$build_dir/bench/}" "$unserved_bin" \
    "$server_bin" "$client_bin"; do
  [[ -x $b ]] || { echo "error: $b not built" >&2; exit 1; }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/service_smoke.XXXXXX")
server_pid=
cleanup() {
  [[ -n $server_pid ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
sock="$work/sweep.sock"

# Runs "$@" expecting exit code $1, with stderr kept in $work/err.txt.
expect_rc() {
  local want=$1
  shift
  local rc=0
  "$@" >/dev/null 2>"$work/err.txt" || rc=$?
  if [[ $rc -ne $want ]]; then
    echo "FAIL: '$*' exited $rc, expected $want" >&2
    cat "$work/err.txt" >&2
    exit 1
  fi
}

echo "== start server (--queue 1 so the overload refusal is reachable)"
"$server_bin" --socket "$sock" --threads 1 --queue 1 \
  --telemetry "$work/telemetry.jsonl" >"$work/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  grep -q "^listening on " "$work/server.log" 2>/dev/null && break
  kill -0 "$server_pid" 2>/dev/null || {
    echo "FAIL: server exited during startup" >&2
    cat "$work/server.log" >&2
    exit 1
  }
  sleep 0.1
done
"$client_bin" --socket "$sock" --mode ping | grep -q pong
echo "ok: server up, ping answered"

echo "== each submitted report must be byte-identical to its batch harness"
for harness in "${harnesses[@]}"; do
  "$build_dir/bench/$harness" --threads 1 >"$work/reference.txt"
  "$build_dir/bench/$harness" --submit "$sock" >"$work/submitted.txt"
  if ! diff -u "$work/reference.txt" "$work/submitted.txt"; then
    echo "FAIL: socket-submitted $harness report differs from the batch run" >&2
    exit 1
  fi
  echo "ok: socket-submitted $harness report byte-identical to batch --threads 1"
done

echo "== cancel: a long job reaches the cancelled terminal state"
"$client_bin" --socket "$sock" --mode cancel
echo "ok: cancel observed"

echo "== overload: the bounded queue refuses, never buffers"
"$client_bin" --socket "$sock" --mode overload
echo "ok: queue-full refusal observed"

echo "== short load run (exit 1 on any protocol error)"
"$client_bin" --socket "$sock" --mode load \
  --workers 4 --jobs 60 --tasks 2 --blob 16 --iters 500
echo "ok: load run clean"

echo "== telemetry records are job-tagged"
grep -q '"job":"j' "$work/telemetry.jsonl" || {
  echo "FAIL: no job-tagged records in telemetry stream" >&2
  exit 1
}
echo "ok: job-tagged telemetry present"

echo "== usage errors must exit 2"
expect_rc 2 "$server_bin" --no-such-flag
expect_rc 2 "$server_bin"                            # --socket required
expect_rc 2 "$server_bin" --socket "$sock" --queue 0
expect_rc 2 "$client_bin" --no-such-flag
expect_rc 2 "$client_bin"                            # --socket required
expect_rc 2 "$client_bin" --socket "$sock" --mode bogus
expect_rc 2 "$bin" --submit "$sock" --shard 0/2 --shard-out "$work/x.shard"
expect_rc 2 "$bin" --submit "$sock" --merge "$work/x.shard"
expect_rc 2 "$unserved_bin" --submit "$sock"
grep -q "it runs .*bench_fig3_phase_diagram" "$work/err.txt" || {
  echo "FAIL: --submit on an unserved harness did not name the served jobs" >&2
  cat "$work/err.txt" >&2
  exit 1
}
echo "ok: usage errors exit 2"

echo "== data/protocol errors must exit 1 and name the problem"
expect_rc 1 "$client_bin" --socket "$work/absent.sock" --mode ping
grep -q "absent.sock" "$work/err.txt" || {
  echo "FAIL: connect failure did not name the socket path" >&2
  cat "$work/err.txt" >&2
  exit 1
}
expect_rc 1 "$bin" --submit "$work/absent.sock"
long_path="$work/$(printf 'a%.0s' $(seq 1 200))"
expect_rc 1 "$server_bin" --socket "$long_path"
grep -q "too long" "$work/err.txt" || {
  echo "FAIL: over-long socket path not named" >&2
  cat "$work/err.txt" >&2
  exit 1
}
echo "ok: data errors exit 1 with the offending field named"

echo "== clean shutdown over the wire"
"$client_bin" --socket "$sock" --mode shutdown
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "FAIL: server still running after shutdown frame" >&2
  exit 1
fi
server_pid=
grep -q "^shutdown: " "$work/server.log" || {
  echo "FAIL: server did not print its shutdown stats line" >&2
  cat "$work/server.log" >&2
  exit 1
}
echo "ok: server drained and printed lifetime stats"

echo "PASS: service smoke (${harnesses[*]} over $sock)"
