#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median, the
quartiles and the spread (interquartile distance over the median) of the
values over the seeds, next to the metric's bound from ``BENCHMARK.json``.
A spread at or above a third of the bound is flagged (``setup_s`` is
exempt: only its median is compared between commits).

    python3 perfbench/sweep.py                          # seeds 1..10, every workload
    python3 perfbench/sweep.py --record "seed commit"   # append to the trajectory

``--record`` appends the medians and quartiles to the trajectory in
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, took, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    summary, steady = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            code, took, result = run_once(bench, workload, seed)
            ok = code == 0 and result is not None and result["correct"]
            print("%s seed %d: exit %d, %.1f s%s" % (workload, seed, code, took,
                                                     "" if ok else "  NOT CORRECT"), flush=True)
            steady &= ok
            if ok:
                runs.append(result["metrics"])
                print("  " + " ".join("%s=%.6g" % (name, m["value"])
                                      for name, m in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarize([r[name]["value"] for r in runs])
            summary[workload][name] = stats
            flag = ""
            if name != "setup_s" and stats["spread"] >= metric["bound"] / 3:
                flag = "  spread >= bound/3"
                steady = False
            print("  %-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f%s" % (
                name, stats["median"], stats["q1"], stats["q3"], stats["spread"],
                metric["bound"], flag))
    if args.record:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8"))
        baseline["trajectory"].append({
            "label": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "seeds": [SEEDS.start, SEEDS.stop - 1],
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
        })
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
