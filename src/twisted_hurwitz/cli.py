"""Command-line interface: compute, validate, export-covers, cache.

``compute`` runs one pipeline at one (d, g) and prints the exact value
with a run record; results are served from an append-only cache when the
same query (including tool version and, for the graph-sum method, the
derived normalization reading) has been answered before.  ``validate``
runs every applicable pipeline over a (d, g) rectangle, which must not be
empty, and reports the pairwise identities.  ``export-covers`` writes the
tropical quotient covers as JSON or DOT.  Exact rationals are always
printed as numerator/denominator strings, never floats.

Each method's domain is written once, in DOMAINS: every method needs
degree d >= 1 and genus g at least its least genus (tropical enumeration
places g-1 branch points, so g >= 2; the graph sum needs g > 2), and
computes connected counts, disconnected counts or both; the first
connectivity listed is ``compute``'s default.  ``compute`` refuses a query
outside its method's domain, and ``validate`` leaves such a cell ``-``.

``compute`` answers uncached, with a warning, when its cache file cannot
be read or appended to.  Warnings (that one, a damaged cached record, a
corrupt cache line) are printed by the command line as one line each on
stderr, ``warning:`` and the message, without the source location.

Exit codes: 0 success, 1 a ``validate`` identity FAILs, 2 incompatible
parameters (or, from argparse, a malformed argument such as ``--budget
abc``), 3 step budget exceeded, 4 unwritable export path, or a cache file
that ``cache show|clear`` cannot use, 5 standard output closed before
everything was written to it (a ``compute`` result is stored first).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import warnings
from functools import lru_cache
from pathlib import Path

from . import __version__
from .cache import DEFAULT_CACHE_PATH, ResultCache, RunRecord
from .factorizations import BudgetExceeded, count_twisted
from .feynman import generating_series_coefficient, normalization_reading
from .fock import elliptic_disconnected
from .tropical import count_tropical, cover_to_dot, cover_to_json, enumerate_quotient_covers

#: method -> (least genus, the connectivities it computes, default first)
DOMAINS = {
    "symgroup": (1, (True, False)),
    "tropical": (2, (True,)),
    "feynman": (3, (True,)),
    "fock": (1, (False,)),
}
METHODS = tuple(DOMAINS)

#: validate's value columns as (label, method, connected); every column
#: after the two symgroup ones is checked against the symgroup column of
#: its connectivity
_COLUMNS = (
    ("sym", "symgroup", True),
    ("sym_disc", "symgroup", False),
    ("tropical", "tropical", True),
    ("feynman", "feynman", True),
    ("fock", "fock", False),
)

EXIT_OK = 0
EXIT_INCOMPATIBLE = 2
EXIT_BUDGET = 3
EXIT_UNWRITABLE = 4
EXIT_BROKEN_PIPE = 5


def _replayable(hit: dict):
    """The cached record as a RunRecord, or None when it is damaged: a
    field missing or malformed, the numerator not an integer or the
    denominator zero."""
    try:
        record = RunRecord.from_dict(hit)
        record.value  # raises on a bad numerator or a zero denominator
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None
    return record


def _incompatibility(method: str, d: int, g: int, connected: bool) -> str:
    """One-line reason the query is outside the method's domain, or ''."""
    least_genus, connectivities = DOMAINS[method]
    if d < 1:
        return "the %s pipeline needs degree d >= 1" % method
    if g < least_genus:
        return "the %s pipeline needs genus g >= %d" % (method, least_genus)
    if connected not in connectivities:
        return "the %s pipeline computes %s counts only" % (
            method, "connected" if connectivities[0] else "disconnected")
    return ""


def _compute_value(method, d, g, connected, budget):
    """The exact value of one query."""
    if method == "symgroup":
        return count_twisted(d, g, connected=connected, budget=budget).value
    if method == "tropical":
        return count_tropical(d, g)
    if method == "feynman":
        return generating_series_coefficient(d, g)
    if method == "fock":
        return elliptic_disconnected(d, g)
    raise ValueError("unknown method %r" % (method,))


def _emit(record: RunRecord, fmt: str) -> None:
    data = record.as_dict()
    if fmt == "json":
        print(json.dumps(data, sort_keys=False))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(data))
        writer.writeheader()
        writer.writerow(data)
        sys.stdout.write(buffer.getvalue())
    else:
        print(record.value)
        print(
            " ".join(
                "%s=%s" % (k, str(v).lower() if isinstance(v, bool) else v)
                for k, v in data.items()
                if k not in ("numerator", "denominator") and v != ""
            )
        )


def _unusable(cache: ResultCache, exc: OSError) -> str:
    """One line naming the cache file and the OS error that makes it unusable."""
    return "cache file %s unusable: %s" % (cache.path, exc.strerror or exc)


def cmd_compute(args) -> int:
    connected = args.connected
    if connected is None:
        connected = DOMAINS[args.method][1][0]
    reason = _incompatibility(args.method, args.degree, args.genus, connected)
    if reason:
        print("incompatible parameters: %s" % reason, file=sys.stderr)
        return EXIT_INCOMPATIBLE

    cache = ResultCache(args.cache_file)
    key = {
        "method": args.method,
        "d": args.degree,
        "g": args.genus,
        "connected": connected,
        "tool_version": __version__,
        "normalization_reading": normalization_reading() if args.method == "feynman" else "",
    }
    try:
        hit = cache.lookup(key)
    except OSError as exc:
        warnings.warn("%s; answering uncached" % _unusable(cache, exc))
        cache = hit = None
    if hit is not None:
        cached = _replayable(hit)
        if cached is not None:
            _emit(cached, args.format)
            return EXIT_OK
        warnings.warn("ignoring damaged cache record in %s; recomputing" % cache.path)

    start = time.perf_counter()
    try:
        value = _compute_value(args.method, args.degree, args.genus, connected, args.budget)
    except BudgetExceeded as exc:
        print("step budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    wall_ms = int(round((time.perf_counter() - start) * 1000))

    record = RunRecord(numerator=str(value.numerator), denominator=str(value.denominator),
                       wall_time_ms=wall_ms, **key)
    if cache is not None:
        try:
            cache.store(record.as_dict())
        except OSError as exc:
            warnings.warn("%s; the result is not stored" % _unusable(cache, exc))
    _emit(record, args.format)
    return EXIT_OK


def cmd_validate(args) -> int:
    """Cross-method value matrix with PASS/FAIL per identity."""
    for bound, name in ((args.d_max, "degree d"), (args.g_max, "genus g")):
        if bound < 1:
            print("incompatible parameters: validate needs %s >= 1" % name, file=sys.stderr)
            return EXIT_INCOMPATIBLE
    failures = 0
    skips = 0
    for g in range(1, args.g_max + 1):
        for d in range(1, args.d_max + 1):
            values = {}
            for label, method, connected in _COLUMNS:
                values[label] = None  # outside the method's domain, or over budget
                if not _incompatibility(method, d, g, connected):
                    try:
                        values[label] = _compute_value(method, d, g, connected, args.budget)
                    except BudgetExceeded:
                        skips += 1
            cells = ["d=%d g=%d" % (d, g)]
            cells += ["%s=%s" % (label, "-" if v is None else v) for label, v in values.items()]

            verdicts = []
            for label, _method, connected in _COLUMNS[2:]:
                left = values[label]
                if left is None:
                    continue  # method not applicable at this (d, g)
                reference = "sym" if connected else "sym_disc"
                right = values[reference]
                identity = "%s==%s" % (label, reference)
                if right is None:
                    verdicts.append("%s:SKIP" % identity)
                elif left == right:
                    verdicts.append("%s:PASS" % identity)
                else:
                    verdicts.append("%s:FAIL" % identity)
                    failures += 1
            print("  ".join(cells) + "  |  " + (" ".join(verdicts) or "-"))
    summary = "validate: %s" % ("all identities PASS" if failures == 0 else "%d FAIL" % failures)
    if skips:
        summary += " (%d budget SKIPs)" % skips
    print(summary)
    return EXIT_OK if failures == 0 else 1


def cmd_export_covers(args) -> int:
    reason = _incompatibility("tropical", args.degree, args.genus, True)
    if reason:
        print("incompatible parameters: %s" % reason, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    covers = enumerate_quotient_covers(args.degree, args.genus)
    target = Path(args.out)
    try:
        if args.format == "json":
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(cover_to_json(covers) + "\n", encoding="utf-8")
        else:
            target.mkdir(parents=True, exist_ok=True)
            for i, cover in enumerate(covers):
                path = target / ("cover_%03d.dot" % i)
                path.write_text(cover_to_dot(cover, name="cover_%03d" % i), encoding="utf-8")
    except OSError as exc:
        print("cannot write %s: %s" % (target, exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    print("%d covers at d=%d g=%d -> %s" % (len(covers), args.degree, args.genus, target))
    return EXIT_OK


def cmd_cache(args) -> int:
    cache = ResultCache(args.cache_file)
    try:
        if args.action == "clear":
            cache.clear()
        else:
            entries = cache.entries()
    except OSError as exc:
        print(_unusable(cache, exc), file=sys.stderr)
        return EXIT_UNWRITABLE
    if args.action == "clear":
        print("cache cleared: %s" % cache.path)
        return EXIT_OK
    print("%d cached results in %s" % (len(entries), cache.path))
    for record in entries:
        print(json.dumps(record, sort_keys=False))
    return EXIT_OK


_BUDGET_HELP = ("projected-step budget of the symgroup search (default 10^9); "
                "the other methods ignore it")


def _add_cache_flag(parser):
    parser.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="result cache location (default: %s)" % DEFAULT_CACHE_PATH,
    )


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="twisted-hurwitz",
        description="Cross-validating pipelines for twisted elliptic covering counts.",
    )
    parser.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run one pipeline at one (d, g)")
    compute.add_argument("--method", choices=METHODS, required=True)
    compute.add_argument("-d", "--degree", type=int, required=True)
    compute.add_argument("-g", "--genus", type=int, required=True)
    conn = compute.add_mutually_exclusive_group()
    conn.add_argument("--connected", dest="connected", action="store_true", default=None)
    conn.add_argument("--disconnected", dest="connected", action="store_false", default=None)
    compute.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    compute.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)
    compute.add_argument("--threads", type=int, default=1,
                         help="ignored: every count runs in one process")
    _add_cache_flag(compute)

    validate = sub.add_parser("validate", help="cross-method identity matrix")
    validate.add_argument("-d", "--d-max", type=int, required=True)
    validate.add_argument("-g", "--g-max", type=int, required=True)
    validate.add_argument("--budget", type=int, default=None, help=_BUDGET_HELP)

    export = sub.add_parser("export-covers", help="write quotient covers as JSON or DOT")
    export.add_argument("-d", "--degree", type=int, required=True)
    export.add_argument("-g", "--genus", type=int, required=True)
    export.add_argument("--out", required=True, metavar="PATH")
    export.add_argument("--format", choices=("json", "dot"), default="json")

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("show", "clear"))
    _add_cache_flag(cache)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the command line prints it: one line, no source location."""
    return "warning: %s\n" % message


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up per call, not bound into the shared parser
    return globals()["cmd_" + args.command.replace("-", "_")](args)


def console() -> int:
    """The command line: ``main`` with each printed warning on one line.
    Only the printed form changes; warning filters still apply.  When the
    reader of stdout has gone away, the rest of the output is sent to
    os.devnull, so the interpreter's last flush stays quiet, and the exit
    code is EXIT_BROKEN_PIPE."""
    warnings.formatwarning = _warning_line
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(console())
