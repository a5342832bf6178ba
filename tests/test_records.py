"""The seven record types: immutable, equal only within their own type,
hashed and shown by their fields; and no command imports dataclasses or
typing."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twisted_hurwitz import cli
from twisted_hurwitz.cache import RunRecord
from twisted_hurwitz.factorizations import HurwitzResult
from twisted_hurwitz.feynman import OrientedEdge
from twisted_hurwitz.graphs import FeynmanGraph, GraphClass
from twisted_hurwitz.tropical import CoverMultiplicity, QuotientCover

THETA = FeynmanGraph(2, ((0, 1), (0, 1), (0, 1)))

#: each record type with the keyword fields of one instance and that
#: instance's repr
CASES = [
    (HurwitzResult, dict(tuple_count=32, normalization=2, value=Fraction(16)),
     "HurwitzResult(tuple_count=32, normalization=2, value=Fraction(16, 1))"),
    (OrientedEdge, dict(index=1, tail=0, head=1, tail_valence=3, head_valence=2, vertex_count=2),
     "OrientedEdge(index=1, tail=0, head=1, tail_valence=3, head_valence=2, vertex_count=2)"),
    (FeynmanGraph, dict(vertex_count=2, edges=((0, 1), (0, 1), (0, 1))),
     "FeynmanGraph(vertex_count=2, edges=((0, 1), (0, 1), (0, 1)))"),
    (GraphClass, dict(graph=THETA, automorphism_count=12),
     "GraphClass(graph=FeynmanGraph(vertex_count=2, edges=((0, 1), (0, 1), (0, 1))), "
     "automorphism_count=12)"),
    (QuotientCover,
     dict(d=2, g=3, edges=((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2)), lift=(0, 0, 1),
          lift_automorphisms=4),
     "QuotientCover(d=2, g=3, edges=((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 2)), "
     "lift=(0, 0, 1), lift_automorphisms=4)"),
    (CoverMultiplicity, dict(value=Fraction(1, 2)), "CoverMultiplicity(value=Fraction(1, 2))"),
    (RunRecord,
     dict(method="fock", d=2, g=3, connected=False, numerator="20", denominator="1",
          wall_time_ms=4, tool_version="0.1.0", normalization_reading=""),
     "RunRecord(method='fock', d=2, g=3, connected=False, numerator='20', denominator='1', "
     "wall_time_ms=4, tool_version='0.1.0', normalization_reading='')"),
]
IDS = [kind.__name__ for kind, _, _ in CASES]


@pytest.mark.parametrize("kind,fields,shown", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(kind, fields, shown):
    record = kind(**fields)
    assert record == kind(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert repr(record) == shown


@pytest.mark.parametrize("kind,fields,shown", CASES, ids=IDS)
def test_equal_only_within_the_type(kind, fields, shown):
    record, twin = kind(**fields), kind(**fields)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin)
    values = tuple(fields.values())
    assert record != values and values != record
    if len(values) == 1:
        assert record != values[0]
    others = [other(**other_fields) for other, other_fields, _ in CASES if other is not kind]
    assert all(record != other and other != record for other in others)


#: one field of each case's instance changed
CHANGED = {
    HurwitzResult: dict(tuple_count=34),
    OrientedEdge: dict(head_valence=3),
    FeynmanGraph: dict(edges=((0, 0), (0, 1), (1, 1))),
    GraphClass: dict(automorphism_count=6),
    QuotientCover: dict(lift_automorphisms=2),
    CoverMultiplicity: dict(value=Fraction(1, 4)),
    RunRecord: dict(numerator="21"),
}


@pytest.mark.parametrize("kind,fields,shown", CASES, ids=IDS)
def test_records_differing_in_one_field_differ(kind, fields, shown):
    assert kind(**fields) != kind(**dict(fields, **CHANGED[kind]))


@pytest.mark.parametrize("kind,fields,shown", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(kind, fields, shown):
    record = kind(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("kind,fields,shown", CASES, ids=IDS)
def test_missing_repeated_or_unknown_fields_are_refused(kind, fields, shown):
    values = list(fields.values())
    first = next(iter(fields))
    for args, kwargs in ((values[:-1], {}), (values + [0], {}),
                         (values, {first: values[0]}), (values, {"extra": 0})):
        with pytest.raises(TypeError):
            kind(*args, **kwargs)


def test_record_hashes_serve_as_keys():
    table = {kind(**fields): kind.__name__ for kind, fields, _ in CASES}
    assert all(table[kind(**fields)] == kind.__name__ for kind, fields, _ in CASES)
    assert len({FeynmanGraph(3, ((2, 1), (1, 0))), FeynmanGraph(3, [[0, 1], [2, 1]])}) == 1


def test_quotient_cover_shape_is_computed_once_and_is_not_a_field():
    fields = CASES[4][1]
    cover = QuotientCover(**fields)
    assert cover.shape is cover.shape and cover.shape.e33 == (0, 1, 2)
    assert "shape" not in repr(cover)
    with pytest.raises(AttributeError):
        cover.shape = None
    # the edges are sorted on construction, so the order given does not matter
    shuffled = dict(fields, edges=list(reversed(fields["edges"])), lift=[0, 0, 1])
    assert QuotientCover(**shuffled) == cover and hash(QuotientCover(**shuffled)) == hash(cover)


def test_commands_import_neither_dataclasses_nor_inspect(tmp_path):
    """A command-line process never imports dataclasses or inspect."""
    cache = str(tmp_path / "cache.jsonl")
    script = "\n".join([
        "import sys",
        "from twisted_hurwitz import cli",
        "for method in ('symgroup', 'tropical', 'feynman', 'fock'):",
        "    cli.main(['compute', '--method', method, '-d', '2', '-g', '3',",
        "              '--cache-file', %r])" % cache,
        "cli.main(['validate', '-d', '2', '-g', '3'])",
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-s", "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == "validate: all identities PASS"
    assert lines[-1] == "[]"


def test_command_line_imports_no_typing():
    """Importing the command line pulls in no ``typing``, in an isolated
    interpreter without ``site``, which would import it itself."""
    src = str(Path(cli.__file__).resolve().parents[1])
    script = "import sys; sys.path.insert(0, %r); import twisted_hurwitz.cli; " \
             "print('typing' in sys.modules)" % src
    done = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
