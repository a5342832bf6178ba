"""End-to-end CLI behaviour through main(argv)."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twisted_hurwitz import cli, factorizations
from twisted_hurwitz.cli import RunRecord, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compute_args(tmp_path, *extra):
    return ("compute", "--cache-file", str(tmp_path / "cache.jsonl")) + extra


# -- compute ---------------------------------------------------------------------


def test_plain_output(tmp_path, capsys):
    code, out, err = run(
        capsys, *compute_args(tmp_path, "--method", "symgroup", "-d", "2", "-g", "3")
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "16"
    assert "method=symgroup" in lines[1]
    assert "connected=true" in lines[1]
    assert "numerator" not in lines[1]


def test_plain_output_fractional_value(tmp_path, capsys):
    code, out, _ = run(
        capsys, *compute_args(tmp_path, "--method", "symgroup", "-d", "2", "-g", "1")
    )
    assert code == 0
    assert out.splitlines()[0] == "3/4"


def test_json_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        *compute_args(
            tmp_path, "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json"
        ),
    )
    assert code == 0
    data = json.loads(out)
    record = RunRecord.from_dict(data)
    assert record.value == 16
    assert (record.method, record.d, record.g, record.connected) == (
        "symgroup",
        2,
        3,
        True,
    )
    assert record.as_dict() == data


def test_csv_output(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        *compute_args(
            tmp_path, "--method", "fock", "-d", "2", "-g", "3", "--format", "csv"
        ),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["numerator"] == "20" and rows[0]["denominator"] == "1"
    assert rows[0]["connected"] == "False"  # fock defaults to disconnected


def test_method_defaults_and_overrides(tmp_path, capsys):
    _, out, _ = run(
        capsys, *compute_args(tmp_path, "--method", "fock", "-d", "2", "-g", "2")
    )
    assert out.splitlines()[0] == "2"
    _, out, _ = run(
        capsys,
        *compute_args(
            tmp_path, "--method", "symgroup", "-d", "2", "-g", "2", "--disconnected"
        ),
    )
    assert out.splitlines()[0] == "2"
    _, out, _ = run(
        capsys, *compute_args(tmp_path, "--method", "feynman", "-d", "2", "-g", "3")
    )
    assert out.splitlines()[0] == "16"
    assert "normalization_reading=2^(g-1) multiplies, #Aut divides" in out.splitlines()[1]


def test_methods_agree_through_the_cli(tmp_path, capsys):
    values = {}
    for method in ("symgroup", "tropical", "feynman"):
        _, out, _ = run(
            capsys, *compute_args(tmp_path, "--method", method, "-d", "2", "-g", "4")
        )
        values[method] = out.splitlines()[0]
    assert values == {"symgroup": "56", "tropical": "56", "feynman": "56"}


def test_threads_flag_keeps_values(tmp_path, capsys):
    outs = []
    for i, threads in enumerate(("1", "2")):
        _, out, _ = run(
            capsys,
            "compute",
            "--cache-file",
            str(tmp_path / ("c%d.jsonl" % i)),  # separate caches: force recompute
            "--method",
            "symgroup",
            "-d",
            "2",
            "-g",
            "3",
            "--threads",
            threads,
        )
        outs.append(out.splitlines()[0])
    assert outs[0] == outs[1] == "16"


# -- incompatible queries ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("compute", "--method", "tropical", "-d", "2", "-g", "1"),
         "the tropical pipeline needs genus g >= 2"),
        (("compute", "--method", "tropical", "-d", "2", "-g", "3", "--disconnected"),
         "the tropical pipeline computes connected counts only"),
        (("compute", "--method", "feynman", "-d", "2", "-g", "2"),
         "the feynman pipeline needs genus g >= 3"),
        (("compute", "--method", "feynman", "-d", "2", "-g", "3", "--disconnected"),
         "the feynman pipeline computes connected counts only"),
        (("compute", "--method", "fock", "-d", "2", "-g", "3", "--connected"),
         "the fock pipeline computes disconnected counts only"),
        (("compute", "--method", "symgroup", "-d", "0", "-g", "3"),
         "the symgroup pipeline needs degree d >= 1"),
        (("compute", "--method", "symgroup", "-d", "2", "-g", "0"),
         "the symgroup pipeline needs genus g >= 1"),
        (("export-covers", "-d", "2", "-g", "1"),
         "the tropical pipeline needs genus g >= 2"),
        (("export-covers", "-d", "0", "-g", "3"),
         "the tropical pipeline needs degree d >= 1"),
    ],
)
def test_incompatible_parameters_exit_2(tmp_path, capsys, argv, reason):
    where = ("--cache-file", str(tmp_path / "cache.jsonl")) if argv[0] == "compute" else (
        "--out", str(tmp_path / "covers.json"))
    code, out, err = run(capsys, *argv, *where)
    assert (code, out, err) == (2, "", "incompatible parameters: %s\n" % reason)
    assert list(tmp_path.iterdir()) == []


def test_explicit_connected_flag_is_accepted_where_valid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        *compute_args(
            tmp_path, "--method", "tropical", "-d", "2", "-g", "3", "--connected"
        ),
    )
    assert code == 0 and out.splitlines()[0] == "16"


# -- budget ---------------------------------------------------------------------


def test_budget_flag_exit_3(tmp_path, capsys):
    code, out, err = run(
        capsys,
        *compute_args(
            tmp_path, "--method", "symgroup", "-d", "3", "-g", "4", "--budget", "10"
        ),
    )
    assert code == 3
    assert out == ""
    assert "step budget exceeded" in err


def test_malformed_budget_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(compute_args(
            tmp_path, "--method", "symgroup", "-d", "2", "-g", "3", "--budget", "abc")))
    assert exc.value.code == 2
    assert "--budget: invalid int value: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "cache.jsonl").exists()


def test_tiny_budget_still_replays_cache_hits(tmp_path, capsys):
    # a hit is served before any search, so the budget never reaches it
    argv = compute_args(
        tmp_path, "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json"
    )
    _, first, _ = run(capsys, *argv)
    code, again, err = run(capsys, *argv, "--budget", "1")
    assert (code, again, err) == (0, first, "")


@pytest.mark.parametrize("method, value", [("tropical", "16"), ("fock", "20")])
def test_budget_bounds_no_tropical_or_fock_miss(tmp_path, capsys, method, value):
    # the budget bounds the symmetric-group searches only: a miss of the
    # other pipelines answers under --budget 1 as under the default
    code, out, err = run(
        capsys, *compute_args(tmp_path, "--method", method, "-d", "2", "-g", "3",
                              "--budget", "1")
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == value
    assert (tmp_path / "cache.jsonl").read_text().count("\n") == 1


def _symgroup_forbidden(*_args, **_kwargs):
    raise AssertionError("a graph-sum query ran the symmetric-group pipeline")


def test_feynman_queries_run_no_symgroup(tmp_path, capsys, monkeypatch):
    # the prefactor is derived, not calibrated: neither a miss nor its hit
    # (whose key carries the reading) counts in the symmetric group, so a
    # tiny budget reaches neither
    for module, name in ((factorizations, "count_twisted"), (cli, "count_twisted"),
                         (factorizations, "count_for_sigma")):
        monkeypatch.setattr(module, name, _symgroup_forbidden)
    argv = compute_args(
        tmp_path, "--method", "feynman", "-d", "2", "-g", "3", "--format", "json",
        "--budget", "1"
    )
    code, first, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert RunRecord.from_dict(json.loads(first)).value == 16
    code, again, err = run(capsys, *argv)
    assert (code, again, err) == (0, first, "")
    assert (tmp_path / "cache.jsonl").read_text().count("\n") == 1


# -- cache ----------------------------------------------------------------------


def test_record_from_dict_converts_each_field():
    record = RunRecord.from_dict({
        "method": "fock", "d": "2", "g": 3.0, "connected": 0, "numerator": 16,
        "denominator": 1, "wall_time_ms": "4", "tool_version": "0.1",
        "normalization_reading": "",
    })
    assert record == RunRecord("fock", 2, 3, False, "16", "1", 4, "0.1", "")
    assert [type(v) for v in record.as_dict().values()] == [
        str, int, int, bool, str, str, int, str, str]


def test_record_without_the_reading_neither_loads_nor_serves(tmp_path, capsys):
    # one rule: a line without normalization_reading matches no lookup key,
    # and it does not load as a RunRecord either
    stale = {
        "method": "fock", "d": 2, "g": 3, "connected": False, "numerator": "99",
        "denominator": "1", "wall_time_ms": 4, "tool_version": cli.__version__,
    }
    with pytest.raises(KeyError):
        RunRecord.from_dict(stale)
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(stale) + "\n")
    code, out, err = run(capsys, *compute_args(tmp_path, "--method", "fock", "-d", "2", "-g", "3"))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "20"
    assert cache.read_text().count("\n") == 2


def test_cached_rerun_is_byte_identical(tmp_path, capsys):
    argv = compute_args(
        tmp_path, "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json"
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # including wall_time_ms: the record is replayed verbatim
    assert (tmp_path / "cache.jsonl").read_text().count("\n") == 1


def test_feynman_record_with_the_reading_label_replays(tmp_path, capsys, monkeypatch):
    # a graph-sum record as written while the reading was still calibrated:
    # the label is unchanged, so the record is a hit
    line = json.dumps({
        "method": "feynman", "d": 2, "g": 3, "connected": True,
        "numerator": "16", "denominator": "1", "wall_time_ms": 5,
        "tool_version": cli.__version__,
        "normalization_reading": "2^(g-1) multiplies, #Aut divides",
    }) + "\n"
    (tmp_path / "cache.jsonl").write_text(line)

    def graph_sum_forbidden(*_args, **_kwargs):
        raise AssertionError("a cached graph-sum record was recomputed")

    monkeypatch.setattr(cli, "generating_series_coefficient", graph_sum_forbidden)
    code, out, err = run(capsys, *compute_args(
        tmp_path, "--method", "feynman", "-d", "2", "-g", "3", "--format", "json"))
    assert (code, out, err) == (0, line, "")
    assert (tmp_path / "cache.jsonl").read_text() == line


def test_version_bump_misses_the_cache(tmp_path, capsys, monkeypatch):
    argv = compute_args(tmp_path, "--method", "symgroup", "-d", "2", "-g", "2")
    run(capsys, *argv)
    monkeypatch.setattr(cli, "__version__", "99.0")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "2"
    assert "tool_version=99.0" in out.splitlines()[1]
    entries = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(entries) == 2  # a second record was computed and stored


def test_corrupt_cache_lines_are_skipped(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    argv = (
        "compute", "--cache-file", str(cache_file),
        "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json",
    )
    _, out1, _ = run(capsys, *argv)
    cache_file.write_text("{not json}\n" + cache_file.read_text())
    with pytest.warns(UserWarning, match="skipping corrupt cache line 1"):
        code, out2, _ = run(capsys, *argv)
    assert code == 0
    assert out2 == out1  # the valid record still hits


def test_non_utf8_cache_line_is_skipped(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    argv = (
        "compute", "--cache-file", str(cache_file),
        "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json",
    )
    _, first, _ = run(capsys, *argv)
    with open(cache_file, "ab") as handle:
        handle.write(b"\xff\xfe garbage\n")
    with pytest.warns(UserWarning, match="skipping corrupt cache line 2"):
        code, again, _ = run(capsys, *argv)
    assert (code, again) == (0, first)
    with pytest.warns(UserWarning, match="skipping corrupt cache line 2"):
        code, out, _ = run(capsys, "cache", "show", "--cache-file", str(cache_file))
    assert code == 0
    assert out.splitlines()[0].startswith("1 cached results")
    assert out.splitlines()[1] + "\n" == first


def test_torn_last_cache_line_keeps_the_next_record(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    torn = '{"method": "symgroup", "d": 2, "g"'  # a write cut off mid-line
    cache_file.write_text(torn)
    argv = (
        "compute", "--cache-file", str(cache_file),
        "--method", "symgroup", "-d", "2", "-g", "3", "--format", "json",
    )
    with pytest.warns(UserWarning, match="skipping corrupt cache line 1"):
        code, first, _ = run(capsys, *argv)
    assert code == 0 and json.loads(first)["numerator"] == "16"
    assert cache_file.read_text() == torn + "\n" + first
    # the stored record hits: replayed verbatim, nothing appended
    with pytest.warns(UserWarning, match="skipping corrupt cache line 1"):
        code, again, _ = run(capsys, *argv)
    assert (code, again) == (0, first)
    assert cache_file.read_text() == torn + "\n" + first


def _damage_cached_record(cache_file, change):
    record = json.loads(cache_file.read_text())
    change(record)
    cache_file.write_text(json.dumps(record) + "\n")


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.pop("numerator"),
        lambda r: r.update(denominator="0"),
    ],
    ids=["no-numerator", "zero-denominator"],
)
def test_damaged_matching_record_is_recomputed(tmp_path, capsys, fmt, change):
    cache_file = tmp_path / "cache.jsonl"
    argv = (
        "compute", "--cache-file", str(cache_file),
        "--method", "symgroup", "-d", "2", "-g", "3", "--format", fmt,
    )
    run(capsys, *argv)
    _damage_cached_record(cache_file, change)
    with pytest.warns(UserWarning, match="ignoring damaged cache record"):
        code, out, _ = run(capsys, *argv)
    assert code == 0
    value = out.splitlines()[0] if fmt == "plain" else json.loads(out)["numerator"]
    assert value == "16"
    lines = cache_file.read_text().splitlines()
    assert len(lines) == 2  # the recomputed record was appended
    assert RunRecord.from_dict(json.loads(lines[1])).value == 16
    # the appended record now hits and replays verbatim
    code, again, _ = run(capsys, *argv)
    assert (code, again) == (0, out)


def test_cache_show_and_clear(tmp_path, capsys):
    cache_file = str(tmp_path / "cache.jsonl")
    run(
        capsys, "compute", "--cache-file", cache_file,
        "--method", "symgroup", "-d", "1", "-g", "1",
    )
    code, out, _ = run(capsys, "cache", "show", "--cache-file", cache_file)
    assert code == 0
    assert out.splitlines()[0].startswith("1 cached results in")
    assert json.loads(out.splitlines()[1])["numerator"] == "1"
    code, out, _ = run(capsys, "cache", "clear", "--cache-file", cache_file)
    assert code == 0 and "cache cleared" in out
    code, out, _ = run(capsys, "cache", "show", "--cache-file", cache_file)
    assert out.splitlines()[0].startswith("0 cached results")


def _unusable_cache_file(tmp_path, kind):
    """A cache path that cannot be read ("directory", "under a file") or
    that reads as empty but cannot be appended to ("dangling link")."""
    if kind == "directory":
        return tmp_path
    if kind == "under a file":
        (tmp_path / "plain").write_text("")
        return tmp_path / "plain" / "r.jsonl"
    link = tmp_path / "r.jsonl"
    link.symlink_to(tmp_path / "missing" / "r.jsonl")
    return link


@pytest.mark.parametrize("kind", ["directory", "under a file", "dangling link"])
@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_unusable_cache_file_answers_uncached(tmp_path, capsys, kind, fmt):
    cache_file = _unusable_cache_file(tmp_path, kind)
    argv = ("compute", "--cache-file", str(cache_file), "--format", fmt,
            "--method", "symgroup", "-d", "2", "-g", "3")
    with pytest.warns(UserWarning, match="cache file %s unusable: " % re.escape(str(cache_file))) as caught:
        code, out, err = run(capsys, *argv)
    assert len(caught) == 1
    assert (code, err) == (0, "")
    value = out.splitlines()[0] if fmt == "plain" else json.loads(out)["numerator"]
    assert value == "16"
    assert not (tmp_path / "missing").exists()


def run_command_line(*argv, stdout=subprocess.PIPE):
    """One command-line run in a fresh interpreter, with default warning
    filters: (exit code, stdout, stderr); stdout is None when the run
    writes to the given `stdout` instead of a pipe read here."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run([sys.executable, "-m", "twisted_hurwitz.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("case", ["unusable file", "corrupt line", "damaged record"])
def test_cache_warnings_print_one_line_each(tmp_path, case):
    cache_file = tmp_path / "cache.jsonl"
    if case == "unusable file":
        cache_file = tmp_path
        message = "cache file %s unusable: .+; answering uncached" % re.escape(str(cache_file))
    elif case == "corrupt line":
        cache_file.write_text("{not json}\n")
        message = "skipping corrupt cache line 1 in %s" % re.escape(str(cache_file))
    else:
        record = RunRecord("symgroup", 2, 3, True, "16", "0", 0, cli.__version__, "").as_dict()
        cache_file.write_text(json.dumps(record) + "\n")
        message = "ignoring damaged cache record in %s; recomputing" % re.escape(str(cache_file))
    code, out, err = run_command_line("compute", "--method", "symgroup", "-d", "2", "-g", "3",
                                      "--cache-file", str(cache_file))
    assert (code, out.splitlines()[0]) == (0, "16")
    assert re.fullmatch("warning: %s\n" % message, err), err


@pytest.mark.parametrize("command", ["compute", "validate"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(tmp_path, monkeypatch, command, unbuffered):
    # the reader is gone before the first write, which fails in a print
    # (unbuffered) or in the last flush: no traceback on stderr, the
    # documented exit code, and compute has stored its record first
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    cache_file = tmp_path / "cache.jsonl"
    argv = {"compute": ("compute", "--method", "fock", "-d", "2", "-g", "3",
                        "--cache-file", str(cache_file)),
            "validate": ("validate", "-d", "3", "-g", "4")}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _out, err = run_command_line(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (cli.EXIT_BROKEN_PIPE, "")
    if command == "compute":
        (line,) = cache_file.read_text().splitlines()
        assert json.loads(line)["numerator"] == "20"


@pytest.mark.parametrize("kind", ["directory", "under a file"])
@pytest.mark.parametrize("action", ["show", "clear"])
def test_cache_command_on_an_unusable_file_exit_4(tmp_path, capsys, kind, action):
    cache_file = _unusable_cache_file(tmp_path, kind)
    code, out, err = run(capsys, "cache", action, "--cache-file", str(cache_file))
    assert (code, out) == (4, "")
    assert err.startswith("cache file %s unusable: " % cache_file)
    assert err.count("\n") == 1
    assert cache_file.parent.exists()


# -- validate ---------------------------------------------------------------------


def test_validate_small_grid(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", "-d", "2", "-g", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7  # 6 grid rows + summary
    assert lines[-1] == "validate: all identities PASS"
    assert any("tropical==sym:PASS" in line for line in lines)
    assert any("fock==sym_disc:PASS" in line for line in lines)
    row11 = [line for line in lines if line.startswith("d=1 g=1")][0]
    assert "tropical=-" in row11 and "feynman=-" in row11


VALIDATE_D3_G5 = """\
d=1 g=1  sym=1/2  sym_disc=1  tropical=-  feynman=-  fock=1  |  fock==sym_disc:PASS
d=2 g=1  sym=3/4  sym_disc=2  tropical=-  feynman=-  fock=2  |  fock==sym_disc:PASS
d=3 g=1  sym=2/3  sym_disc=3  tropical=-  feynman=-  fock=3  |  fock==sym_disc:PASS
d=1 g=2  sym=0  sym_disc=0  tropical=0  feynman=-  fock=0  |  tropical==sym:PASS fock==sym_disc:PASS
d=2 g=2  sym=2  sym_disc=2  tropical=2  feynman=-  fock=2  |  tropical==sym:PASS fock==sym_disc:PASS
d=3 g=2  sym=6  sym_disc=8  tropical=6  feynman=-  fock=8  |  tropical==sym:PASS fock==sym_disc:PASS
d=1 g=3  sym=0  sym_disc=0  tropical=0  feynman=0  fock=0  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=2 g=3  sym=16  sym_disc=20  tropical=16  feynman=16  fock=20  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=3 g=3  sym=132  sym_disc=184  tropical=132  feynman=132  fock=184  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=1 g=4  sym=0  sym_disc=0  tropical=0  feynman=0  fock=0  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=2 g=4  sym=56  sym_disc=56  tropical=56  feynman=56  fock=56  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=3 g=4  sym=1464  sym_disc=1520  tropical=1464  feynman=1464  fock=1520  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=1 g=5  sym=0  sym_disc=0  tropical=0  feynman=0  fock=0  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=2 g=5  sym=256  sym_disc=272  tropical=256  feynman=256  fock=272  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=3 g=5  sym=20496  sym_disc=22048  tropical=20496  feynman=20496  fock=22048  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
validate: all identities PASS
"""

VALIDATE_D2_G4_BUDGET_10 = """\
d=1 g=1  sym=1/2  sym_disc=1  tropical=-  feynman=-  fock=1  |  fock==sym_disc:PASS
d=2 g=1  sym=-  sym_disc=-  tropical=-  feynman=-  fock=2  |  fock==sym_disc:SKIP
d=1 g=2  sym=0  sym_disc=0  tropical=0  feynman=-  fock=0  |  tropical==sym:PASS fock==sym_disc:PASS
d=2 g=2  sym=-  sym_disc=-  tropical=2  feynman=-  fock=2  |  tropical==sym:SKIP fock==sym_disc:SKIP
d=1 g=3  sym=0  sym_disc=0  tropical=0  feynman=0  fock=0  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=2 g=3  sym=-  sym_disc=-  tropical=16  feynman=16  fock=20  |  tropical==sym:SKIP feynman==sym:SKIP fock==sym_disc:SKIP
d=1 g=4  sym=0  sym_disc=0  tropical=0  feynman=0  fock=0  |  tropical==sym:PASS feynman==sym:PASS fock==sym_disc:PASS
d=2 g=4  sym=-  sym_disc=-  tropical=56  feynman=56  fock=56  |  tropical==sym:SKIP feynman==sym:SKIP fock==sym_disc:SKIP
validate: all identities PASS (8 budget SKIPs)
"""


def test_validate_desk_grid_output(capsys):
    assert run(capsys, "validate", "-d", "3", "-g", "5") == (0, VALIDATE_D3_G5, "")


def test_validate_malformed_budget_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "-d", "1", "-g", "1", "--budget", "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget: invalid int value: 'abc'" in captured.err


@pytest.mark.parametrize("argv, reason", [
    (("-d", "0", "-g", "3"), "validate needs degree d >= 1"),
    (("-d", "2", "-g", "0"), "validate needs genus g >= 1"),
])
def test_validate_empty_grid_exit_2(capsys, argv, reason):
    # an empty grid checks no identity, so it must not report them all PASS
    code, out, err = run(capsys, "validate", *argv)
    assert (code, out, err) == (2, "", "incompatible parameters: %s\n" % reason)


def test_validate_reports_a_wrong_value_as_fail(capsys, monkeypatch):
    real = cli.count_tropical
    monkeypatch.setattr(cli, "count_tropical", lambda d, g: real(d, g) + 1)
    code, out, err = run(capsys, "validate", "-d", "1", "-g", "2")
    lines = out.splitlines()
    assert "tropical==sym:FAIL" in lines[1]
    assert (code, lines[-1], err) == (1, "validate: 1 FAIL", "")


def test_validate_budget_skips(capsys):
    code, out, err = run(capsys, "validate", "-d", "2", "-g", "4", "--budget", "10")
    assert (code, out, err) == (0, VALIDATE_D2_G4_BUDGET_10, "")


# -- export ----------------------------------------------------------------------


def test_export_covers_json(tmp_path, capsys):
    target = tmp_path / "covers.json"
    code, out, _ = run(
        capsys, "export-covers", "-d", "2", "-g", "3", "--out", str(target)
    )
    assert code == 0
    assert out.startswith("5 covers at d=2 g=3")
    records = json.loads(target.read_text())
    assert len(records) == 5
    assert sorted(
        int(r["multiplicity"]["numerator"]) for r in records if r["multiplicity"]["denominator"] == "1"
    ) == [2, 2, 4, 4, 4]


def test_export_covers_dot(tmp_path, capsys):
    target = tmp_path / "dots"
    code, out, _ = run(
        capsys,
        "export-covers", "-d", "2", "-g", "3", "--out", str(target), "--format", "dot",
    )
    assert code == 0
    files = sorted(target.glob("cover_*.dot"))
    assert len(files) == 5
    for path in files:
        text = path.read_text()
        assert text.startswith("digraph %s {" % path.stem)
        assert text.count("{") == text.count("}") == 1
        assert text.rstrip().endswith("}")


def test_export_covers_dot_without_covers(tmp_path, capsys):
    # degree 1 has no contributing covers; the directory is still reported
    target = tmp_path / "covers"
    code, out, err = run(
        capsys,
        "export-covers", "-d", "1", "-g", "3", "--out", str(target), "--format", "dot",
    )
    assert code == 0 and err == ""
    assert out.strip() == "0 covers at d=1 g=3 -> %s" % target
    assert list(target.iterdir()) == []


def test_export_covers_unwritable_path_exit_4(capsys):
    code, _, err = run(
        capsys,
        "export-covers", "-d", "2", "-g", "3", "--out", "/proc/nope/covers.json",
    )
    assert code == 4
    assert err.startswith("cannot write")


# -- misc ------------------------------------------------------------------------


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            code, _, _ = run(capsys, "cache", "show", "--cache-file", str(tmp_path / "c.jsonl"))
            assert code == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("twisted-hurwitz") == 1


def test_handlers_are_looked_up_when_called(tmp_path, capsys, monkeypatch):
    argv = ("cache", "show", "--cache-file", str(tmp_path / "c.jsonl"))
    run(capsys, *argv)  # the parser exists from here on
    monkeypatch.setattr(cli, "cmd_cache", lambda args: 7)
    assert main(list(argv)) == 7


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().startswith("twisted-hurwitz ")


# -- parsing ---------------------------------------------------------------------

#: valid argv per subcommand, as main parses them with the subcommand's parser
VALID_ARGVS = {
    "compute": [
        ["compute", "--method", "fock", "-d", "2", "-g", "3"],
        ["compute", "--method", "symgroup", "-d", "2", "-g", "3", "--connected", "--format", "json",
         "--budget", "5", "--threads", "2", "--cache-file", "c.jsonl"],
        ["compute", "--method=symgroup", "-d2", "-g", "3", "--disc", "--form", "csv"],
        ["compute", "-g", "-1", "-d", "0", "--method", "tropical"],
    ],
    "validate": [["validate", "-d", "3", "-g", "5", "--budget", "10"], ["validate", "--g-max=2", "-d", "1"]],
    "export-covers": [["export-covers", "-d", "2", "-g", "3", "--out", "x.json", "--format", "dot"]],
    "cache": [["cache", "show"], ["cache", "clear", "--cache-file", "c.jsonl"]],
}

FIT = ["--method", "fock", "-d", "2", "-g", "3"]

#: argvs every one of which ends in a SystemExit
EXITING_ARGVS = [
    ["compute", "--help"],
    ["cache", "-h"],
    ["compute", "--method", "fock", "-d", "2"],  # a required argument missing
    ["compute", "--method", "fack", "-d", "2", "-g", "3"],
    ["compute", *FIT, "--budget", "abc"],
    ["compute", *FIT, "--connected", "--disconnected"],
    ["compute", *FIT, "--bogus"],
    ["compute", *FIT, "--bogus", "x", "--", "y"],
    ["compute", *FIT, "--version"],
    ["compute", *FIT, "--=x"],  # ambiguous at the top level, before the subcommand
    ["cache", "show", "extra"],
    ["cache", "shaw"],
    ["validate", "-d", "3"],
    [],
    ["--version"],
    ["--help"],
    ["comp"],
    ["--version", "compute", *FIT],
]


@pytest.fixture
def handled(monkeypatch):
    """Each command handler replaced by one that records its arguments."""
    seen = []
    for name in cli.build_parser().subcommands:
        monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"), lambda args: seen.append(args) or 0)
    return seen


def _outcome(call, argv, capsys):
    """What parsing *argv* with *call* gives: the Namespace or the SystemExit
    code, then stdout and stderr."""
    try:
        result = call(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_the_valid_argvs_cover_every_subcommand():
    assert set(VALID_ARGVS) == set(cli.build_parser().subcommands)


@pytest.mark.parametrize("argv", [argv for argvs in VALID_ARGVS.values() for argv in argvs] + EXITING_ARGVS)
def test_main_parses_as_the_full_parser(capsys, handled, argv):
    """Namespace or exit code, stdout and stderr are the full parser's, byte for byte."""
    def through_main(argv):
        assert main(list(argv)) == 0
        return handled.pop()

    expected = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert _outcome(through_main, argv, capsys) == expected
    if argv in EXITING_ARGVS:
        assert expected[0][0] == "exit"
    else:
        assert expected[0].command == argv[0]


@pytest.mark.parametrize("argv", [argv for argvs in VALID_ARGVS.values() for argv in argvs] + [
    ["compute", *FIT, "--bogus"], ["compute", *FIT, "--budget", "abc"], ["cache", "show", "extra"]])
def test_a_named_subcommand_never_runs_the_top_level_parse(capsys, monkeypatch, handled, argv):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the top-level parser parsed")

    parser = cli.build_parser()
    for name in ("parse_args", "parse_known_args", "parse_intermixed_args", "parse_known_intermixed_args"):
        monkeypatch.setattr(parser, name, refuse)
    try:
        assert main(list(argv)) == 0
    except SystemExit as exc:
        assert exc.code == 2
    capsys.readouterr()
