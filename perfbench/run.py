#!/usr/bin/env python3
"""Wall-clock benchmark of the Trail reproduction, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds the `perfbench` package (its
own Cargo package beside this file, with path dependencies on the
repository's crates), then runs one repetition of the workload per fresh
process until `--seconds` have passed, at least three times. A fresh
process per repetition keeps each repetition's peak memory its own.

Every repetition uses the same seed, so the virtual-time results and every
count must repeat exactly; any drift, failed operation or failed output
check makes `correct` false. The last line of standard output is one JSON
object: with `--trace 0` the end-to-end metrics (medians over the
repetitions, measured with no instrumentation installed); with
`--trace 1` the per-layer metrics (untraced and traced repetitions
alternate; medians over the traced ones).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Metric names and units come from here; it lives at the repository root.
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("tpcc_trail", "replay_raid5", "crash_recovery")
MIN_REPS = 3
# A repetition takes a few seconds; anything near this is a hang.
REP_TIMEOUT_S = 120


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "--message-format", "json-render-diagnostics"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"cargo build failed with exit code {proc.returncode}")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if (msg.get("reason") == "compiler-artifact"
                and msg["target"]["name"] == "perfbench" and msg.get("executable")):
            return msg["executable"]
    fail("cargo build produced no perfbench executable")


def repetition(exe, workload, seed, traced):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"{workload} repetition exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rate = rep["ops"] / rep["timed_s"]
    print(f"run.py: {workload} traced={int(traced)} setup {rep['setup_s']:.3f}s "
          f"timed {rep['timed_s']:.3f}s {rate:.1f} ops/s rss {rep['peak_rss_mb']:.0f} MB",
          file=sys.stderr)
    return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)

    exe = build()
    start = time.monotonic()
    untraced, traced = [], []
    while len(untraced) + len(traced) < MIN_REPS or time.monotonic() - start < args.seconds:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        rep = repetition(exe, args.workload, args.seed, trace_this)
        (traced if trace_this else untraced).append(rep)

    reps = untraced + traced
    problems = [p for rep in reps for p in rep["problems"]]
    first = reps[0]
    for rep in reps[1:]:
        if rep["vt"] != first["vt"] or rep["witness"] != first["witness"]:
            problems.append("virtual-time results or counts drifted between repetitions")
            break
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} operations failed")
    known = {m["name"] for m in bench["per_layer"]}
    unknown = set().union(*(rep["layer"] for rep in traced)) - known
    if unknown:
        problems.append(f"unlisted per-layer metrics {sorted(unknown)}")
    for p in problems:
        print(f"run.py: check failed: {p}", file=sys.stderr)

    def rate(rep):
        return rep["ops"] / rep["timed_s"]

    if args.trace:
        # A workload that does not reach a layer reports 0 for it.
        values = {}
        for name in known:
            got = [rep["layer"][name] for rep in traced if name in rep["layer"]]
            values[name] = statistics.median(got) if got else 0.0
        values["telemetry.overhead_frac"] = 1.0 - (
            statistics.median(map(rate, traced)) / statistics.median(map(rate, untraced)))
        listed = bench["per_layer"]
    else:
        mean_ms, p50_ms, p99_ms, ops_per_min = first["vt"]
        values = {
            "setup_s": statistics.median(rep["setup_s"] for rep in untraced),
            "ops_per_s": statistics.median(map(rate, untraced)),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
            "vt_mean_ms": mean_ms,
            "vt_p50_ms": p50_ms,
            "vt_p99_ms": p99_ms,
            "vt_ops_per_min": ops_per_min,
        }
        listed = bench["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
