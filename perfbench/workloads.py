"""The queries each workload issues, made from a seed.

Every query is one ``twisted-hurwitz compute`` call through
``twisted_hurwitz.cli.main``.  A workload is a list of queries, each
marked with the answer source it should have: ``miss`` (computed, then
stored in the cache) or ``hit`` (replayed from the cache).  The seed only
orders the hits and, on cache-replay, places them among the misses and
picks which cached keys are asked for.  The misses run in a fixed order
for every seed, because the
package's tables and memoised sums are built by whichever query needs
them first: the cost of each query, not only their sum, is then the same
for every seed, and run-to-run spread measures the program, not the draw.

This module imports nothing from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("desk-grid", "frontier", "cache-replay")

#: explicit step budget passed with every query (the program's default)
BUDGET = 10**9

#: seeded cache size for cache-replay
CACHE_RECORDS = {"full": 20000, "smoke": 2000}

#: cache-replay misses: cheap points spread over the four methods, in the
#: order they are asked.  There are more than 20, so the store tail is a
#: percentile with ten samples beyond it.  Each method ends with a point
#: of 0.05 to 0.2 s, long enough to be timed steadily, so that its
#: pipeline's summed time does not rest on calls of a few milliseconds.
#: Feynman points avoid the four calibration anchors, whose vertex-order
#: sums setup has already cached.
MISS_POOL = {
    "full": (
        ("symgroup", 2, 3, True), ("symgroup", 2, 4, True), ("symgroup", 2, 5, False),
        ("symgroup", 2, 5, True), ("symgroup", 3, 2, True), ("symgroup", 3, 3, False),
        ("symgroup", 3, 3, True), ("symgroup", 3, 4, False), ("symgroup", 3, 4, True),
        ("tropical", 1, 4, True), ("tropical", 1, 5, True), ("tropical", 2, 2, True),
        ("tropical", 2, 3, True), ("tropical", 2, 4, True), ("tropical", 3, 2, True),
        ("tropical", 3, 3, True), ("tropical", 3, 4, True), ("tropical", 2, 5, True),
        ("feynman", 1, 5, True), ("feynman", 3, 3, True), ("feynman", 3, 4, True),
        ("feynman", 2, 5, True),
        ("fock", 1, 5, False), ("fock", 2, 2, False), ("fock", 2, 3, False),
        ("fock", 2, 4, False), ("fock", 2, 5, False), ("fock", 3, 1, False),
        ("fock", 3, 2, False), ("fock", 3, 3, False), ("fock", 3, 4, False),
        ("fock", 3, 5, False), ("fock", 4, 6, False), ("fock", 5, 6, False),
        ("fock", 6, 6, False),
    ),
    "smoke": (
        ("symgroup", 3, 3, True), ("tropical", 3, 3, True),
        ("feynman", 3, 3, True), ("fock", 3, 3, False),
    ),
}

#: seeded-key hits per method and per run of cache-replay
HITS_PER_METHOD = {"full": 4, "smoke": 2}

#: replays of every desk-grid and frontier query after the grid was
#: computed; hits are cheap there, and more of them steady the hit
#: percentiles
REPLAYS = 3

METHODS = ("symgroup", "tropical", "feynman", "fock")


def ref_key(method, d, g, connected):
    """Key of one value in the reference table, e.g. ``symgroup:2:3:connected``."""
    return "%s:%d:%d:%s" % (method, d, g, "connected" if connected else "disconnected")


@dataclass(frozen=True)
class Query:
    method: str
    d: int
    g: int
    connected: bool
    expect: str  # "miss" or "hit"

    @property
    def point(self):
        return (self.method, self.d, self.g, self.connected)

    @property
    def key(self):
        return ref_key(*self.point)

    def argv(self, cache_file):
        return [
            "compute", "--method", self.method,
            "-d", str(self.d), "-g", str(self.g),
            "--connected" if self.connected else "--disconnected",
            "--format", "json",
            "--budget", str(BUDGET), "--threads", "1",
            "--cache-file", str(cache_file),
        ]


def desk_points(d_max, g_max):
    """Every pipeline value ``validate -d d_max -g g_max`` computes."""
    out = []
    for g in range(1, g_max + 1):
        for d in range(1, d_max + 1):
            out.append(("symgroup", d, g, True))
            out.append(("symgroup", d, g, False))
            if g >= 2:
                out.append(("tropical", d, g, True))
            if g >= 3:
                out.append(("feynman", d, g, True))
            out.append(("fock", d, g, False))
    return out


def frontier_points(scale="full"):
    d, g = (4, 4) if scale == "full" else (3, 4)
    fock_degrees = range(4, 9) if scale == "full" else range(4, 6)
    out = [("symgroup", d, g, True), ("tropical", d, g, True), ("feynman", d, g, True)]
    out.extend(("fock", k, 6, False) for k in fock_degrees)
    return out


def identities(points):
    """Cross-method identities among *points*: (label, left key, right key)."""
    have = {ref_key(*p) for p in points}
    out = []
    for method, d, g, connected in points:
        if method in ("tropical", "feynman"):
            pair = (ref_key(method, d, g, True), ref_key("symgroup", d, g, True))
            label = "%s==symgroup" % method
        elif method == "fock":
            pair = (ref_key("fock", d, g, False), ref_key("symgroup", d, g, False))
            label = "fock==symgroup_disconnected"
        else:
            continue
        if pair[1] in have:
            out.append(("%s d=%d g=%d" % (label, d, g),) + pair)
    return out


def desk_grid(seed, scale="full"):
    return computed_then_replayed(desk_points(3, 5 if scale == "full" else 3), random.Random(seed))


def frontier(seed, scale="full"):
    return computed_then_replayed(frontier_points(scale), random.Random(seed))


def computed_then_replayed(points, rng):
    """Every point computed in the given order, as ``validate`` does, then
    replayed REPLAYS times in a seeded order.  Replays come last so that
    the misses' allocations, and with them the garbage collections that
    land inside each miss, are the same for every seed."""
    replays = points * REPLAYS
    rng.shuffle(replays)
    return [Query(*p, "miss") for p in points] + [Query(*p, "hit") for p in replays]


def with_replays(queries, points, rng):
    """Insert a hit for each of *points* at a seeded place after its miss."""
    for p in points:
        first = queries.index(Query(*p, "miss"))
        queries.insert(rng.randint(first + 1, len(queries)), Query(*p, "hit"))
    return queries


def seeded_points(scale="full"):
    """Current-version keys present in the seeded cache: every point the
    other two workloads compute, minus the cache-replay misses."""
    misses = set(MISS_POOL[scale])
    points = desk_points(3, 5) + frontier_points("full")
    return [p for p in points if p not in misses]


def cache_replay(seed, scale="full"):
    """Seeded-key hits in a seeded order, the fixed misses in their fixed
    order at seeded places among them, and one replay of each miss at a
    seeded place after it."""
    rng = random.Random(seed)
    by_method = {}
    for p in seeded_points(scale):
        by_method.setdefault(p[0], []).append(p)
    hits = [
        Query(*rng.choice(by_method[m]), "hit")
        for m in METHODS
        for _ in range(HITS_PER_METHOD[scale])
    ]
    rng.shuffle(hits)
    misses = [Query(*p, "miss") for p in MISS_POOL[scale]]
    total = len(hits) + len(misses)
    at = set(rng.sample(range(total), len(misses)))
    hits, misses = iter(hits), iter(misses)
    queries = [next(misses) if i in at else next(hits) for i in range(total)]
    return with_replays(queries, MISS_POOL[scale], rng)


def queries_for(workload, seed, scale="full"):
    if workload == "desk-grid":
        return desk_grid(seed, scale)
    if workload == "frontier":
        return frontier(seed, scale)
    if workload == "cache-replay":
        return cache_replay(seed, scale)
    raise ValueError("unknown workload %r" % (workload,))


def reference_points():
    """Every (method, d, g, connected) any workload computes, at any scale."""
    points = desk_points(3, 5) + frontier_points("full") + frontier_points("smoke")
    return list(dict.fromkeys(points))


def seeded_cache_fields(seed, reference, version, reading, scale="full"):
    """Field dicts (RunRecord field names) for the seeded cache file.

    The file holds a record for every seeded point at the current version
    (a quarter of them stored twice, the later copy winning), feynman
    records under a stale normalization reading with wrong values, and
    filler from older tool versions with wrong values.  A lookup that
    ignores any key field therefore returns a wrong value, which the run
    catches.
    """
    rng = random.Random(seed * 7919 + 1)
    out = []

    def record(method, d, g, connected, value, tool_version, reading_label):
        num, _, den = value.partition("/")
        return {
            "method": method,
            "d": d,
            "g": g,
            "connected": connected,
            "numerator": num,
            "denominator": den or "1",
            "wall_time_ms": rng.randint(0, 9000),
            "tool_version": tool_version,
            "normalization_reading": reading_label,
        }

    def junk():
        return "%d/%d" % (rng.randint(1, 10**9), rng.randint(1, 10**4))

    for method, d, g, connected in seeded_points(scale):
        value = reference[ref_key(method, d, g, connected)]
        label = reading if method == "feynman" else ""
        copies = 2 if rng.random() < 0.25 else 1
        out.extend(record(method, d, g, connected, value, version, label) for _ in range(copies))
        if method == "feynman":
            out.append(record(method, d, g, connected, junk(), version, "stale " + reading))
    while len(out) < CACHE_RECORDS[scale]:
        method = rng.choice(METHODS)
        connected = method != "fock" and (method != "symgroup" or rng.random() < 0.5)
        label = reading if method == "feynman" else ""
        out.append(
            record(method, rng.randint(1, 6), rng.randint(1, 7), connected, junk(),
                   "0.0.%d" % rng.randint(1, 60), label)
        )
    rng.shuffle(out)
    return out
