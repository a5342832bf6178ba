"""Tests of the benchmark itself, not of the package.

    python3 -m pytest perfbench -q

Smoke runs shrink every workload to seconds; they check the output
contract, that a wrong reference value fails the run, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# frontier is not in BENCHMARK.json but stays runnable by hand
WORKLOADS = list(workloads.WORKLOADS)


def bench(*argv, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace=0):
    return smoke_in(ROOT, workload, trace)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    lines = proc.stdout.splitlines()
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = smoke("desk-grid", 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        counts.append({name: m["value"] for name, m in last_json(proc)["metrics"].items()
                       if m["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["kernel.calls"] > 0 and counts[0]["fock.apply_m_calls"] > 0


def copy_checkout(tmp_path, program=True):
    """A copy of the benchmark, and of the program when *program*, that a
    test may change."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=skip)
    if program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=skip)
    return tmp_path


def smoke_in(checkout, workload, trace=0):
    return bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke", cwd=checkout, script=checkout / HERE.name / "run.py")


def assert_failed_run(proc):
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"] and result["failed"] > 0
    rate = [line for line in proc.stdout.splitlines() if line.startswith("error_rate ")]
    assert float(rate[0].split()[1]) > 0


def test_tampered_reference_fails(tmp_path):
    checkout = copy_checkout(tmp_path)
    path = checkout / HERE.name / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    table["values"][workloads.ref_key("symgroup", 2, 3, True)]["value"] = "17"
    path.write_text(json.dumps(table), encoding="utf-8")
    assert_failed_run(smoke_in(checkout, "desk-grid"))


@pytest.mark.parametrize("trace, name, files", [
    (0, "apply_m", ["fock.py", "__init__.py"]),
    (1, "_enumerate_multisets", ["tropical.py"]),
])
def test_missing_probe_fails(tmp_path, trace, name, files):
    # the program still works, but a function the probes wrap was renamed
    checkout = copy_checkout(tmp_path)
    for file in files:
        module = checkout / "src" / "twisted_hurwitz" / file
        text = module.read_text(encoding="utf-8")
        assert name in text
        module.write_text(text.replace(name, name + "_renamed"), encoding="utf-8")
    proc = smoke_in(checkout, "desk-grid", trace)
    assert_failed_run(proc)
    assert ".%s not installed" % name in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = copy_checkout(tmp_path, program=False)
    proc = bench("--workload", "desk-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=checkout, script=checkout / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.queries_for(workload, 7) == workloads.queries_for(workload, 7)
    # the seed moves order and which cached keys are asked, not the amount of work
    misses = [sorted(q.point for q in workloads.queries_for(workload, s) if q.expect == "miss")
              for s in (1, 2)]
    assert misses[0] == misses[1]


def test_seeded_cache_is_deterministic():
    reference = {k: e["value"] for k, e in
                 json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["values"].items()}
    made = [workloads.seeded_cache_fields(4, reference, "0.1.0", "reading", "smoke")
            for _ in range(2)]
    assert made[0] == made[1] and len(made[0]) == workloads.CACHE_RECORDS["smoke"]


def test_reference_covers_every_query():
    keys = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["values"]
    for workload in WORKLOADS:
        for scale in ("full", "smoke"):
            assert {q.key for q in workloads.queries_for(workload, 1, scale)} <= set(keys)


def test_benchmark_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile = run.tail(values)
    assert sum(v > value for v in values) == 10 and percentile == 90.0
    assert run.tail([3.0, 1.0] * 10) == (3.0, 100.0)


def test_kernel_inside_a_stretch_is_not_counted():
    meter = speed.Meter()
    meter.start()
    start, clock_start = time.perf_counter(), speed.clock()
    while time.perf_counter() - start < 0.2:
        pass
    factor = meter.stop()
    wall, counted = time.perf_counter() - start, speed.clock() - clock_start
    inside = meter.kernels_s[1:-1]
    assert len(inside) >= 3 and factor > 0
    assert counted == pytest.approx(wall - sum(inside), abs=0.02)
