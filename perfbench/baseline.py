#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and summarises it.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                  [--out perfbench/baseline.json]

Run from the root of the repository. For every end-to-end metric it
prints the median over the seeds, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median. With `--out` it also
writes those figures, every run's raw values, the git commit and the
processor count to a JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            res = run(workload, seed, args.seconds)
            ok = res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={ok} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  file=sys.stderr)
            results.append(res)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": results[0]["metrics"][name]["unit"], "values": values}
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:15s} {name:15s} median {med:14.6g}  spread {spread:.4f}"
                  f"  bound {bounds[name]}{flag}")
        summary[workload] = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "metrics": rows,
        }

    if args.out:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
        doc = {
            "git_sha": sha,
            "nproc": os.cpu_count(),
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "workloads": summary,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
