"""Spans and counters installed on the program from outside.

The benchmark never edits the program: it replaces module attributes with
wrappers that open a span (name, start, end, parent) and bump counters at
the layer boundary, then call the original.  Names imported by value are
wrapped where the caller looks them up (``cli.count_twisted``,
``factorizations.count_for_sigma``, ``feynman.enumerate_graphs``).

Two probe sets exist.  The light set, used for end-to-end runs, times the
four pipeline entry points and counts the calls that prove each pipeline
really ran (kernel walks, series products, ``apply_m``).  The full set,
used for traced runs, adds a span or counter at every layer.

Spans are kept in memory and timed with ``speed.clock()``, which leaves
out the calibration kernel; a span's self time is its duration minus the
time its direct children cover.  Totals are kept per phase ("setup" for
import and calibration, "workload" for the queries).
"""

from __future__ import annotations

import functools

from speed import clock

#: top-level pipeline calls as ``cli`` sees them -> pipeline name
PIPELINES = {
    "count_twisted": "symgroup",
    "count_tropical": "tropical",
    "generating_series_coefficient": "feynman",
    "elliptic_disconnected": "fock",
}

#: counter -> pipeline whose every run must bump it (the cold-run guard)
GUARDS = {
    "kernel.calls": "symgroup",
    "series.mul_calls": "feynman",
    "fock.apply_m_calls": "fock",
}


class Tracer:
    def __init__(self, keep_spans=False):
        self.keep_spans = keep_spans
        self.phase = "setup"
        self.totals = {"setup": {}, "workload": {}}  # name -> [calls, total_s, self_s]
        self.counts = {"setup": {}, "workload": {}}
        self.top_level_s = {"setup": 0.0, "workload": 0.0}
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.missing = []
        self._stack = []  # [id, name, start, child_s]
        self._next_id = 0

    def enter(self, name):
        self._stack.append([self._next_id, name, clock(), 0.0])
        self._next_id += 1

    def leave(self):
        end = clock()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        entry = self.totals[self.phase].setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        else:
            self.top_level_s[self.phase] += duration
            parent = -1
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    def add(self, name, amount=1):
        counts = self.counts[self.phase]
        counts[name] = counts.get(name, 0) + amount

    def count(self, name, phase="workload"):
        return self.counts[phase].get(name, 0)

    def total(self, name, phase="workload"):
        return self.totals[phase].get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name, phase="workload"):
        return self.totals[phase].get(name, (0, 0.0, 0.0))[2]

    def wrap(self, owner, attr, span=None, count=None, after=None):
        """Replace ``owner.attr`` by a probe.  A missing attribute is noted
        in ``missing``, and the worker counts each one as a failed check."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append("%s.%s" % (getattr(owner, "__name__", owner), attr))
            return

        @functools.wraps(original)
        def probe(*args, **kwargs):
            if count:
                self.add(count)
            if span:
                self.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                if span:
                    self.leave()
            if after:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, probe)


def install(tracer, full):
    """Install the light probe set, plus every layer probe when *full*."""
    from twisted_hurwitz import cache, cli, factorizations, feynman, fock, radicals, series, tropical

    for attr, pipeline in PIPELINES.items():
        tracer.wrap(cli, attr, span="pipeline." + pipeline, count="pipeline.calls")
    if not full:
        tracer.wrap(factorizations, "count_for_sigma", count="kernel.calls")
        tracer.wrap(series.TruncatedSeries, "__mul__", count="series.mul_calls")
        tracer.wrap(fock, "apply_m", count="fock.apply_m_calls")
        return

    add = tracer.add
    tables = getattr(factorizations, "_twisted_tables", None)

    def symgroup_sizes(args, kwargs, _result):
        if tables is None:
            return
        etas, _, alphas, sigmas = tables(args[0] if args else kwargs["d"])
        add("symgroup.sigmas", len(sigmas))
        add("symgroup.alphas", len(alphas))
        add("symgroup.etas", len(etas))

    def kernel_work(args, _kwargs, result):
        etas, depth = args[1], args[5]
        add("kernel.leaves", len(etas) ** depth)
        add("kernel.tuples", result)

    tracer.wrap(cli, "count_twisted", after=symgroup_sizes)
    tracer.wrap(factorizations, "_twisted_tables", span="symgroup.tables")
    tracer.wrap(factorizations, "_alpha_lookup", span="symgroup.lookup")
    tracer.wrap(factorizations, "count_for_sigma", span="kernel.walk", count="kernel.calls",
                after=kernel_work)

    tracer.wrap(tropical, "_enumerate_multisets",
                after=lambda a, k, r: add("tropical.multisets", len(r)))
    tracer.wrap(tropical, "enumerate_quotient_covers", span="tropical.enumerate",
                after=lambda a, k, r: add("tropical.covers", len(r)))

    def lift_work(_args, _kwargs, result):
        add("tropical.connected", result[1])
        add("tropical.assignments", result[2])

    tracer.wrap(tropical, "lift_classes", span="tropical.lift", after=lift_work)

    tracer.wrap(feynman, "calibrate_normalization", span="feynman.calibrate")
    tracer.wrap(feynman, "enumerate_graphs", span="graphs.enumerate",
                after=lambda a, k, r: add("graphs.classes", len(r)))
    tracer.wrap(feynman, "_integrand", count="feynman.orders")

    def series_terms(_args, _kwargs, result):
        terms = getattr(result, "terms", None)
        if terms is not None:
            add("series.terms", len(terms))

    tracer.wrap(series.TruncatedSeries, "__mul__", span="series.mul", count="series.mul_calls",
                after=series_terms)
    tracer.wrap(radicals.RadicalScalar, "__mul__", count="radicals.mul_calls")
    tracer.wrap(radicals.RadicalScalar, "__rmul__", count="radicals.mul_calls")

    tracer.wrap(fock, "apply_m", span="fock.apply_m", count="fock.apply_m_calls",
                after=lambda a, k, r: add("fock.basis_terms", len(a[0].terms)))

    tracer.wrap(cache.ResultCache, "lookup", span="cache.lookup", count="cache.lookup_calls",
                after=lambda a, k, r: add("cache.hits", r is not None))
    tracer.wrap(cache.ResultCache, "store", span="cache.store")
    tracer.wrap(cache.ResultCache, "entries", after=lambda a, k, r: add("cache.lines_parsed", len(r)))

    tracer.wrap(cli, "cmd_compute", span="cli.compute")
    tracer.wrap(cli, "main", span="cli.main")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of the workload phase (calibration from setup)."""
    t, c = tracer, tracer.count
    return {
        "symgroup.tables_s": t.total("symgroup.tables"),
        "symgroup.lookup_s": t.total("symgroup.lookup"),
        "symgroup.sigmas": c("symgroup.sigmas"),
        "symgroup.alphas": c("symgroup.alphas"),
        "symgroup.etas": c("symgroup.etas"),
        "kernel.walk_s": t.total("kernel.walk"),
        "kernel.calls": c("kernel.calls"),
        "kernel.leaves": c("kernel.leaves"),
        "kernel.tuples": c("kernel.tuples"),
        "kernel.yield": _ratio(c("kernel.tuples"), c("kernel.leaves")),
        "tropical.enumerate_s": t.self_time("tropical.enumerate"),
        "tropical.lift_s": t.total("tropical.lift"),
        "tropical.multisets": c("tropical.multisets"),
        "tropical.covers": c("tropical.covers"),
        "tropical.assignments": c("tropical.assignments"),
        "tropical.connected_ratio": _ratio(c("tropical.connected"), c("tropical.assignments")),
        "graphs.enumerate_s": t.total("graphs.enumerate"),
        "graphs.classes": c("graphs.classes"),
        "feynman.calibrate_s": t.total("feynman.calibrate", phase="setup"),
        "feynman.orders": c("feynman.orders"),
        "series.mul_s": t.total("series.mul"),
        "series.mul_calls": c("series.mul_calls"),
        "series.terms": c("series.terms"),
        "radicals.mul_calls": c("radicals.mul_calls"),
        "fock.apply_m_s": t.total("fock.apply_m"),
        "fock.apply_m_calls": c("fock.apply_m_calls"),
        "fock.basis_terms": c("fock.basis_terms"),
        "cache.lookup_s": t.total("cache.lookup"),
        "cache.lookup_calls": c("cache.lookup_calls"),
        "cache.lines_parsed": c("cache.lines_parsed"),
        "cache.store_s": t.total("cache.store"),
        "cache.hit_ratio": _ratio(c("cache.hits"), c("cache.lookup_calls")),
        "cli.self_s": t.self_time("cli.compute"),
        "cli.parse_s": t.self_time("cli.main"),
        "trace.uncovered_s": wall_s - t.top_level_s["workload"],
    }
