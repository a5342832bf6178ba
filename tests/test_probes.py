"""The benchmark's probes still find every function they wrap.

``perfbench/probes.py`` replaces program functions by name; a renamed or
removed target is only reported when a benchmark run fails.  This runs
the full probe installation on a fresh import, in a subprocess so that
no wrapper leaks into the other tests, and requires that nothing is
missing.
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
tracer = probes.Tracer()
probes.install(tracer, full=True)
print(json.dumps(tracer.missing))
"""


def test_every_probe_target_exists():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []
