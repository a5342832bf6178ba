"""One fresh interpreter of the benchmark: set up, run a workload once, report.

Started by ``run.py``, never imported by it.  Modes:

``setup``    import the package and calibrate the graph sum; report setup_s.
``prepare``  write the seeded cache file for cache-replay.
``run``      set up, install the light probes, run the workload; report
             end-to-end figures.
``trace``    install every layer probe before set-up, run the workload;
             report per-layer figures as well.

Each query goes through ``twisted_hurwitz.cli.main`` and is checked: exit
code 0, the value equal to the frozen reference, a hit answered without a
pipeline call and a miss with exactly one, and every answer for one key
byte-identical to the first.  Set-up and every query are timed with the
calibration kernel of ``speed.py`` around and inside them, and reported
both as measured and scaled to the kernel's reference speed.  The result
is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def set_up(tracer=None):
    """Import the package and calibrate the graph sum; (seconds, package)."""
    start = speed.clock()
    import twisted_hurwitz
    from twisted_hurwitz import feynman

    if tracer is not None:
        probes.install(tracer, full=True)
    feynman.normalization_reading()
    return speed.clock() - start, twisted_hurwitz


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        table = json.load(handle)
    return {key: entry["value"] for key, entry in table["values"].items()}


def write_seeded_cache(path, seed, scale, reference):
    from twisted_hurwitz import __version__, cli, feynman
    from twisted_hurwitz.cache import ResultCache

    cache = ResultCache(path)
    reading = feynman.normalization_reading()
    for fields in workloads.seeded_cache_fields(seed, reference, __version__, reading, scale):
        cache.store(cli.RunRecord(**fields).as_dict())


class Checker:
    """Counts attempts and failures; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def run_queries(queries, cache_file, reference, tracer, checker, meter):
    """Issue every query in order.  Per query: its latency and the time its
    pipeline call took (0 for a hit), both scaled to the reference speed,
    and its measured latency."""
    from twisted_hurwitz import cli

    latency_ms, pipeline_s, measured_ms = [], [], []
    first_output = {}
    values = {}
    for query in queries:
        out, err = io.StringIO(), io.StringIO()
        calls_before = tracer.count("pipeline.calls")
        busy_before = pipeline_busy(tracer)
        meter.start()
        t0 = speed.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(query.argv(cache_file))
        except (Exception, SystemExit):
            code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        finally:
            measured_ms.append((speed.clock() - t0) * 1000.0)
            factor = meter.stop()
        busy = pipeline_busy(tracer) - busy_before
        latency_ms.append(measured_ms[-1] * factor)
        pipeline_s.append(busy * factor)
        label = "%s %s" % (query.expect, query.key)
        if not checker.check(code == 0, "%s: exit %s %s" % (label, code, err.getvalue().strip())):
            continue
        calls = tracer.count("pipeline.calls") - calls_before
        checker.check(calls == int(query.expect == "miss"),
                      "%s: %d pipeline calls" % (label, calls))
        text = out.getvalue()
        checker.check(first_output.setdefault(query.key, text) == text,
                      "%s: replay not byte-identical" % label)
        try:
            record = json.loads(text)
            value = Fraction(int(record["numerator"]), int(record["denominator"]))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            checker.check(False, "%s: unreadable output %r (%s)" % (label, text[:80], exc))
            continue
        want = reference.get(query.key)
        checker.check(want is not None and value == Fraction(want),
                      "%s: got %s, reference %s" % (label, value, want))
        values[query.key] = str(value)
    return latency_ms, pipeline_s, measured_ms, values


def pipeline_busy(tracer):
    return sum(tracer.total("pipeline." + p) for p in probes.PIPELINES.values())


def check_identities(queries, values, checker):
    points = list(dict.fromkeys(q.point for q in queries))
    for label, left, right in workloads.identities(points):
        if left in values and right in values:
            checker.check(values[left] == values[right],
                          "%s: %s != %s" % (label, values[left], values[right]))
    golden = workloads.ref_key("symgroup", 2, 3, True)
    if golden in values:
        checker.check(values[golden] == "16", "golden value at d=2 g=3 is %s" % values[golden])


def main():
    parser = argparse.ArgumentParser(description="one benchmark interpreter")
    parser.add_argument("--mode", choices=("setup", "prepare", "run", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", help="private directory for cache files")
    parser.add_argument("--seeded-cache", help="seeded cache file (cache-replay)")
    parser.add_argument("--keep-spans", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = probes.Tracer(keep_spans=args.keep_spans) if args.mode == "trace" else None
    meter = speed.Meter()
    meter.start()
    try:
        setup_s, package = set_up(tracer)
    finally:
        factor = meter.stop()
    result = {"setup_s": setup_s * factor, "measured_setup_s": setup_s}

    if args.mode == "prepare":
        write_seeded_cache(args.seeded_cache, args.seed, args.scale, load_reference())
    elif args.mode in ("run", "trace"):
        if tracer is None:
            tracer = probes.Tracer()
            probes.install(tracer, full=False)
        tracer.phase = "workload"
        reference = load_reference()
        cache_file = Path(args.work) / "results.jsonl"
        if args.seeded_cache:
            shutil.copyfile(args.seeded_cache, cache_file)
        queries = workloads.queries_for(args.workload, args.seed, args.scale)
        checker = Checker()
        for name in tracer.missing:
            checker.check(False, "probe %s not installed: the program no longer has it" % name)
        latency_ms, pipeline_s, measured_ms, values = run_queries(
            queries, cache_file, reference, tracer, checker, meter)
        check_identities(queries, values, checker)
        methods = {q.method for q in queries if q.expect == "miss"}
        guards = {}
        for counter, pipeline in probes.GUARDS.items():
            if pipeline in methods:
                guards[counter] = tracer.count(counter)
                checker.check(guards[counter] > 0,
                              "%s is 0 although %s ran: the run did no work" % (counter, pipeline))
        home_cache = Path.home() / ".cache" / "twisted-hurwitz"
        checker.check(not home_cache.exists(), "the run touched %s" % home_cache)
        checker.check(Path(package.__file__).resolve().is_relative_to(ROOT / "src"),
                      "measured %s, not the package under src/" % package.__file__)
        result.update(
            queries=[[q.method, q.expect] for q in queries],
            latency_ms=latency_ms,
            pipeline_s=pipeline_s,
            measured_ms=measured_ms,
            kernel_ms=[k * 1000.0 for k in meter.kernels_s],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=checker.attempted,
            failed=checker.failed,
            failures=checker.messages,
            guards=guards,
            values=values,
        )
        if args.mode == "trace":
            # layer times scaled by the run's median speed, as no kernel
            # runs inside a query
            factor = speed.REFERENCE_S / statistics.median(meter.kernels_s)
            layers = probes.layer_metrics(tracer, sum(measured_ms) / 1000.0)
            result["layers"] = {name: value * factor if name.endswith("_s") else value
                                for name, value in layers.items()}
            result["spans"] = tracer.spans
    result["env"] = {
        "backend": package.KERNEL_BACKEND,
        "tool_version": package.__version__,
        "python": platform.python_version(),
        "package_file": package.__file__,
        "TH_NO_EXT": os.environ.get("TH_NO_EXT", ""),
        "TH_BUDGET": os.environ.get("TH_BUDGET", ""),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
