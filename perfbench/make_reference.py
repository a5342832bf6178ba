#!/usr/bin/env python3
"""Regenerate ``reference.json``, the frozen values every run checks against.

Computes every (method, d, g, connected) any workload asks for with the
package under ``src/`` and admits a value only where the independent
pipelines agree on it:

* connected: symgroup = tropical (g >= 2) = graph sum (g >= 3);
* disconnected: Fock = symgroup;
* the published golden value 16 at d=2, g=3.

Points that only one pipeline reaches (symgroup connected at g=1, Fock at
d > 3) are kept and marked ``single-pipeline``.  Graph-sum values at the
four calibration anchors are marked, since calibration forces them to
match symgroup.  Takes about 25 s on the Python kernel.

Usage:
    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import ref_key  # noqa: E402

from twisted_hurwitz import (  # noqa: E402
    __version__,
    count_tropical,
    count_twisted,
    elliptic_disconnected,
    generating_series_coefficient,
)
from twisted_hurwitz.feynman import ANCHOR_POINTS  # noqa: E402


def compute(method, d, g, connected):
    if method == "symgroup":
        return count_twisted(d, g, connected=connected, budget=workloads.BUDGET).value
    if method == "tropical":
        return count_tropical(d, g)
    if method == "feynman":
        return generating_series_coefficient(d, g)
    return elliptic_disconnected(d, g)


def main():
    points = workloads.reference_points()
    # every pipeline that reaches a point, so each value has its witnesses
    wanted = set(points)
    for method, d, g, connected in points:
        if connected:
            wanted.add(("symgroup", d, g, True))
            if g >= 2:
                wanted.add(("tropical", d, g, True))
            if g >= 3:
                wanted.add(("feynman", d, g, True))
        elif d <= 3:
            wanted.update({("symgroup", d, g, False), ("fock", d, g, False)})
    computed = {ref_key(*p): compute(*p) for p in sorted(wanted)}

    if computed[ref_key("symgroup", 2, 3, True)] != 16:
        raise SystemExit("golden value at d=2 g=3 is not 16")
    values = {}
    for point in points:
        method, d, g, connected = point
        value = computed[ref_key(*point)]
        if connected:
            witnesses = [m for m in ("symgroup", "tropical", "feynman")
                         if ref_key(m, d, g, True) in computed]
        else:
            witnesses = [m for m in ("symgroup", "fock") if ref_key(m, d, g, False) in computed]
        disagree = [m for m in witnesses if computed[ref_key(m, d, g, connected)] != value]
        if disagree:
            raise SystemExit("pipelines disagree at %s: %s" % (ref_key(*point), disagree))
        entry = {"value": str(value), "pipelines": witnesses}
        if len(witnesses) == 1:
            entry["single-pipeline"] = True
        if method == "feynman" and (d, g) in ANCHOR_POINTS:
            entry["calibration-anchor"] = True
        values[ref_key(*point)] = entry

    table = {
        "about": "Exact values the benchmark checks every answer against; "
                 "regenerate with perfbench/make_reference.py.",
        "tool_version": __version__,
        "golden": {ref_key("symgroup", 2, 3, True): "16"},
        "values": dict(sorted(values.items())),
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    print("%d values written to %s" % (len(values), HERE / "reference.json"))


if __name__ == "__main__":
    main()
