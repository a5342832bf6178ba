"""The benchmark's probes still find and read every function they wrap.

``perfbench/probes.py`` replaces program functions by name and reads their
arguments and results; a renamed target, or a changed argument or return
shape, is only reported when a benchmark run fails.  This runs the full
probe installation on a fresh import, in a subprocess so that no wrapper
leaks into the other tests, drives one small query of every pipeline
through the CLI, and requires that nothing is missing and that the
counters of each layer moved.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import probes
from twisted_hurwitz import cli
tracer = probes.Tracer()
probes.install(tracer, full=True)
tracer.phase = "workload"
points = [
    ("symgroup", 2, 3, ["--connected"]),
    ("symgroup", 2, 3, ["--disconnected"]),
    ("tropical", 2, 3, []),
    ("feynman", 3, 3, []),
    ("fock", 2, 3, []),
]
codes = [
    cli.main(["compute", "--method", method, "-d", str(d), "-g", str(g), *flags,
              "--cache-file", sys.argv[3]])
    for method, d, g, flags in points
]
print(json.dumps({"codes": codes, "missing": tracer.missing,
                  "counts": tracer.counts["workload"]}))
"""

#: one counter per layer the probes read arguments or results of
COUNTERS = (
    "kernel.calls", "kernel.tuples", "symgroup.sigmas",
    "series.mul_calls", "tropical.assignments", "fock.apply_m_calls",
)


def test_every_probe_target_exists(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "results.jsonl")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 5
    assert report["missing"] == []
    assert {name: report["counts"].get(name, 0) > 0 for name in COUNTERS} == dict.fromkeys(
        COUNTERS, True
    )
