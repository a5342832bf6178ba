#!/usr/bin/env python3
"""The twisted-hurwitz benchmark: one command for every pipeline.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 55 --trace 0

Workloads (``workloads.py``): ``desk-grid`` and ``cache-replay`` are the
ones ``BENCHMARK.json`` names; ``frontier`` (symgroup at d=4 g=4, Fock at
d=4..8 g=6) runs the same way by hand.

Runs the workload in fresh interpreters (``worker.py``), one after the
other: a single client in a closed loop with ``threads=1``.  Every sample
needs a fresh interpreter because the package memoises heavily, so a
second sample in one process would time dictionary hits.  Set-up-only
interpreters between the samples make set-up time a median of many.

Samples start while, at the mean pace so far, the next one ends within
``--seconds``; every sample issues the same queries, so the percentiles
are over the same queries on every commit, and only the number of
samples each query's median is taken over depends on the clock (see
``end_to_end``).  Every time is scaled to a reference machine speed
measured by a calibration kernel between the queries (``speed.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in ``BENCHMARK.json``.  With ``--trace 1`` it
holds the per-layer metrics, from traced interpreters, plus the tracing
overhead measured against one untraced sample; the spans are written to
``.perfbench_out/``.  Lines before it give every metric with its unit,
sample counts, ``error_rate`` and an environment stamp.

Every answer is checked against ``reference.json``.  A wrong value, a
failed identity, an exception, a replay that is not byte-identical, or a
pipeline that did no work counts as a failure; any failure makes the exit
code 1.  ``--smoke`` shrinks every workload to seconds, for tests.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

#: set-up-only interpreters after each untraced sample
SETUPS_PER_SAMPLE = 2

#: a run stops starting samples after this many seconds
DEADLINE_S = 165.0

END_TO_END_TIMES = ("symgroup", "tropical", "feynman", "fock")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it.  With fewer than 21 samples that percentile would
    not lie above the median, and the maximum is given instead; only the
    smoke runs and the hand-run frontier workload have so few."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Starts worker interpreters, one at a time, in a private directory."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("PYTHONPATH", None)

    def worker(self, mode, **options):
        """Run one worker; its JSON result, or None after printing why."""
        self.count += 1
        out = self.work / ("result-%d.json" % self.count)
        private = self.work / ("w%d" % self.count)
        (private / "home").mkdir(parents=True)
        cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--scale", "smoke" if self.args.smoke else "full",
               "--work", str(private),
               "--out", str(out)]
        for name, value in options.items():
            flag = "--" + name.replace("_", "-")
            cmd.extend([flag] if value is True else [flag, str(value)])
        env = dict(self.env, HOME=str(private / "home"))
        left = DEADLINE_S + 10 - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            print("worker %s timed out" % mode, file=sys.stderr)
            return None
        if proc.returncode != 0 or not out.exists():
            print("worker %s failed (exit %d):\n%s" % (mode, proc.returncode, proc.stderr[-2000:]),
                  file=sys.stderr)
            return None
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def git_describe():
    try:
        # the ceiling keeps git from searching directories above the checkout
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def stamp(samples, expected_backend):
    env = dict(samples[0]["env"]) if samples else {}
    env.pop("package_file", None)
    values = {}
    for sample in samples:
        values.update(sample.get("values", {}))
    digest = hashlib.sha256(
        "".join("%s=%s\n" % kv for kv in sorted(values.items())).encode()
    ).hexdigest()[:16]
    env.update(git=git_describe(), nproc=len(os.sched_getaffinity(0)), values_sha256=digest,
               expected_backend=expected_backend)
    env["backend_mismatch"] = env.get("backend") != expected_backend
    return env


def median_per_query(samples, field):
    """Each query's median figure over the samples.  Samples of one run
    issue the same queries in the same order, so lists align."""
    return [median(column) for column in zip(*(s[field] for s in samples))]


def end_to_end(samples, setups):
    """Every time is scaled to the reference speed of ``speed.py``.  Query
    times are each query's median over the fresh-interpreter samples; a
    pipeline's time is the sum of its calls' medians.  ``wall_s`` is the
    median over the samples of the workload's time, the sum of its scaled
    query latencies (the calibration kernel between queries left out).
    Set-up time is a median."""
    kinds = samples[0]["queries"]
    latency = median_per_query(samples, "latency_ms")
    busy = median_per_query(samples, "pipeline_s")
    hits = [ms for ms, (_m, expect) in zip(latency, kinds) if expect == "hit"]
    stores = [ms for ms, (_m, expect) in zip(latency, kinds) if expect == "miss"]
    hit_tail, hit_pct = tail(hits)
    store_tail, store_pct = tail(stores)
    per_query = "median of %d per query" % len(samples)
    walls = [sum(s["latency_ms"]) / 1000.0 for s in samples]
    measured = [sum(s["measured_ms"]) / 1000.0 for s in samples]
    metrics = {
        "setup_s": (median(setups), "median, n=%d" % len(setups)),
        "wall_s": (median(walls), "median of %d samples; measured %.4g s"
                   % (len(samples), median(measured))),
    }
    for pipeline in END_TO_END_TIMES:
        calls = [t for t, (method, expect) in zip(busy, kinds)
                 if method == pipeline and expect == "miss"]
        metrics[pipeline + "_s"] = (sum(calls), "%d calls, %s" % (len(calls), per_query))
    metrics.update(
        hit_p50_ms=(median(hits), "n=%d, %s" % (len(hits), per_query)),
        hit_tail_ms=(hit_tail, "p%.1f, n=%d, %s" % (hit_pct, len(hits), per_query)),
        store_p50_ms=(median(stores), "n=%d, %s" % (len(stores), per_query)),
        store_tail_ms=(store_tail, "p%.1f, n=%d, %s" % (store_pct, len(stores), per_query)),
        peak_rss_mb=(median([s["peak_rss_mb"] for s in samples]), "median, n=%d" % len(samples)),
    )
    return metrics


def per_layer(traced, untraced, units):
    """(metrics, differing): times are the median over traced samples;
    counts come from the first, and *differing* names every count that
    does not repeat in every other sample."""
    metrics, differing = {}, []
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        if units.get(name) == "s":
            metrics[name] = (median(values), "median of %d" % len(values))
        elif len(set(values)) == 1:
            metrics[name] = (values[0], "repeats in %d samples" % len(values))
        else:
            metrics[name] = (values[0], "DIFFERS %r" % values)
            differing.append(name)
    overhead = (sum(median_per_query(traced, "latency_ms"))
                - sum(median_per_query(untraced, "latency_ms"))) / 1000.0
    metrics["trace.overhead_s"] = (overhead, "traced - untraced wall, median of %d and %d per query"
                                   % (len(traced), len(untraced)))
    return metrics, differing


def write_trace(args, traced, metrics, env):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    spans = traced[0].get("spans", [])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "metrics": {k: v[0] for k, v in metrics.items()},
            "samples": [s["layers"] for s in traced],
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": spans,
        }, handle)
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="twisted-hurwitz benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one sample: a check that runs in seconds")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "twisted_hurwitz" / "__init__.py").is_file():
        print("no twisted_hurwitz package under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(HERE / "baseline.json", encoding="utf-8") as handle:
        expected_backend = json.load(handle)["backend"]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        return measure(args, bench, expected_backend, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench, expected_backend, work):
    runner = Runner(args, work)
    attempted = failed = 0
    runner.worker("setup")  # compiles bytecode and warms the file cache; not measured
    options = {}
    if args.workload == "cache-replay":
        seeded = work / "seeded.jsonl"
        runner.worker("prepare", seeded_cache=seeded)
        options["seeded_cache"] = seeded

    # traced runs alternate, so both kinds see the same machine phases
    plan = itertools.cycle(["run", "trace"] if args.trace else ["run"])
    samples, setups = [], []
    started = time.monotonic()
    budget = min(args.seconds, DEADLINE_S - (started - runner.started))
    for done, mode in enumerate(plan):
        # start another sample only if, at the mean pace so far, it ends
        # within the budget; at least one sample of each kind
        elapsed = time.monotonic() - started
        if done >= (2 if args.trace else 1) and elapsed * (done + 1) / done > budget:
            break
        extra = {"keep_spans": True} if mode == "trace" and not any(
            s["mode"] == "trace" for s in samples) else {}
        result = runner.worker(mode, **options, **extra)
        if result is None:
            attempted += 1
            failed += 1
            continue
        result["mode"] = mode
        samples.append(result)
        setups.append(result["setup_s"])
        attempted += result["attempted"]
        failed += result["failed"]
        for message in result["failures"]:
            print("FAIL %s" % message)
        for _ in range(0 if args.trace else SETUPS_PER_SAMPLE):
            result = runner.worker("setup")
            if result is not None:
                setups.append(result["setup_s"])

    untraced = [s for s in samples if s["mode"] == "run"]
    traced = [s for s in samples if s["mode"] == "trace"]
    env = stamp(samples, expected_backend)
    print("perfbench %s seed=%d samples=%d trace=%d" % (
        args.workload, args.seed, len(samples), args.trace))
    print("stamp " + json.dumps(env, sort_keys=True))
    if env["backend_mismatch"]:
        print("WARNING: kernel backend %r differs from the baseline's %r; "
              "figures are not comparable" % (env.get("backend"), expected_backend))
    if samples:
        print("work guards " + " ".join("%s=%d" % kv for kv in sorted(samples[0]["guards"].items())))
        kernel = median([k for s in samples for k in s["kernel_ms"]])
        print("speed: calibration kernel median %.4g ms; times are scaled to %.4g ms (x%.3f)"
              % (kernel, speed.REFERENCE_S * 1000.0, speed.REFERENCE_S * 1000.0 / kernel))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            computed, differing = per_layer(traced, untraced, units)
            for name in differing:
                attempted += 1
                failed += 1
                print("FAIL %s differs between traced samples" % name)
        else:
            computed = end_to_end(untraced, setups)
        for name, (value, detail) in computed.items():
            if name in units:
                metrics[name] = {"value": value, "unit": units[name]}
                print("%-26s %14.6g %-6s %s" % (name, value, units[name], detail))
        if args.trace:
            print("kernel.backend %s; kernel.leaves is computed as sigmas*|etas|^(g-1)"
                  % env.get("backend"))
            print("trace written to %s" % write_trace(args, traced, computed, env))
    missing = [name for name in units if name not in metrics]
    if missing:
        failed += 1
        attempted += 1
        print("FAIL metrics not measured: %s" % ", ".join(missing))
    print("error_rate %.6g ratio (%d of %d checks failed)"
          % (failed / max(attempted, 1), failed, attempted))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
