#!/usr/bin/env python3
"""The repository's end-to-end benchmark: one workload per invocation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3_full --seed 1 --seconds 10 --trace 0

Builds the program under test and the benchmark (perfbench/CMakeLists.txt)
into .bench_build/ on first use, runs the workload in a fresh directory
under .bench_run/, checks its outputs, and prints one JSON line as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}, where the
metrics are BENCHMARK.json's end_to_end set with --trace 0 and its
per_layer set with --trace 1. A traced run runs the workload twice with
the same seed, untraced then traced, to report the tracing overhead; its
spans are kept in .bench_run/trace-<workload>-<seed>.jsonl and summarized
on stderr. See perfbench/README.md for what each metric means.

Exit status: 0 when every check passed; 1 when a check failed (the result
line is still printed) or the workload could not run (no result line).
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("fig3_full", "thm13_ckpt", "service_small")
# Both runs of a traced invocation together stay under three minutes
# (the build before them is not counted).
RUN_BUDGET_S = 170


class Stop(Exception):
    pass


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def on_signal(signum, _frame):
    raise Stop("stopped by signal %d" % signum)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "sops_perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                die("build failed: " + " ".join(cmd))


def run_child(workload, seed, seconds, trace_path, deadline):
    """Runs sops_perfbench once; returns (parsed result, exit status)."""
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix="w", dir=RUNS)
    cmd = [os.path.join(BUILD, "sops_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--bin", os.path.join(BUILD, "bench"), "--work", work]
    if trace_path:
        cmd += ["--trace", trace_path]
    # Its own session, so the server it spawns is stopped with it.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if child.returncode not in (0, 1) or not lines:
        die("%s: cannot run (exit status %d)" % (workload, child.returncode))
    return json.loads(lines[-1]), child.returncode


def pick(result, specs, workload):
    metrics = {}
    for m in specs:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            die("%s: metric %s missing or not finite" % (workload, m["name"]))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def summarize_trace(path, workload):
    """Share of the first run span that no child span covers, and a
    self-time table on stderr."""
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def covered(span):
        ivs = sorted((max(c["start_ns"], span["start_ns"]),
                      min(c["end_ns"], span["end_ns"]))
                     for c in children.get(span["id"], []))
        total, end = 0, span["start_ns"]
        for a, b in ivs:
            a = max(a, end)
            if b > a:
                total += b - a
                end = b
        return total

    totals = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        t = totals.setdefault(s["name"], [0, 0, 0])
        t[0] += 1
        t[1] += dur
        t[2] += dur - covered(s)
    print("trace %s: %d spans in %s" % (workload, len(spans), path),
          file=sys.stderr)
    print("  %-20s %8s %12s %12s" % ("span", "count", "total_s", "self_s"),
          file=sys.stderr)
    for name, (n, dur, own) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        print("  %-20s %8d %12.6f %12.6f" % (name, n, dur * 1e-9, own * 1e-9),
              file=sys.stderr)
    roots = [s for s in spans if s["name"] == "run"]
    if not roots:
        die("%s: trace has no run span" % workload)
    root = min(roots, key=lambda s: s["start_ns"])
    dur = root["end_ns"] - root["start_ns"]
    return len(spans), (dur - covered(root)) / dur if dur > 0 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    signal.signal(signal.SIGTERM, on_signal)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        die("%s: cannot run: repository sources not found next to %s"
            % (args.workload, HERE))
    with open(spec_path) as f:
        spec = json.load(f)

    try:
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        plain, status = run_child(args.workload, args.seed, args.seconds, None,
                                  deadline)
        result = {"correct": plain["correct"], "attempted": plain["attempted"],
                  "failed": plain["failed"]}
        if args.trace == 0:
            result["metrics"] = pick(plain, spec["end_to_end"], args.workload)
        else:
            trace_path = os.path.join(
                RUNS, "trace-%s-%d.jsonl" % (args.workload, args.seed))
            traced, traced_status = run_child(args.workload, args.seed,
                                              args.seconds, trace_path,
                                              deadline)
            status = max(status, traced_status)
            n_spans, uncovered = summarize_trace(trace_path, args.workload)
            traced["metrics"]["trace.overhead_s"] = (
                traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"])
            traced["metrics"]["trace.uncovered_frac"] = uncovered
            traced["metrics"]["trace.spans"] = n_spans
            result["correct"] = plain["correct"] and traced["correct"]
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            result["metrics"] = pick(traced, spec["per_layer"], args.workload)
    except Stop as e:
        die("%s: %s" % (args.workload, e))
    except subprocess.TimeoutExpired:
        die("%s: timed out" % args.workload)
    print(json.dumps(result))
    sys.exit(0 if status == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
