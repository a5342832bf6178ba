"""ResultCache.lookup reads canonical lines by their bytes, decodes the
rest and keeps its scan of the file for later lookups; on every file, and
after every change to it, it must answer and warn exactly as decoding
every line does."""

import json
import os
import random
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twisted_hurwitz import cache
from twisted_hurwitz.cache import KEY_FIELDS, LINE_FIELDS, ResultCache
from twisted_hurwitz.cli import RunRecord, main


def decode_every_line(path, key):
    """The lookup rule itself: decode every line, the last record whose
    KEY_FIELDS equal *key*'s under == wins."""
    found = None
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                record = None
            if not isinstance(record, dict):
                warnings.warn("skipping corrupt cache line %d in %s" % (lineno, path))
                continue
            if all(record.get(f) == key.get(f) for f in KEY_FIELDS):
                found = record
    return found


def answer_and_warnings(lookup, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found = lookup(*args)
    # repr tells True from 1 and 2.0 from 2
    return repr(found), [str(w.message) for w in caught]


# -- random damaged files ---------------------------------------------------------

#: few values per field, so that keys and lines collide often
POOLS = {
    "method": ("symgroup", "fock", 'say "fock"', "symgroup", "fock"),
    "d": (0, 1, 2),
    "g": (3, 4),
    "connected": (True, False),
    "numerator": ("16", "-3", "x\\y"),
    "denominator": ("1", "0"),
    "wall_time_ms": (0, 7, 10**20),
    "tool_version": ("0.1", "0.2"),
    "normalization_reading": ("", "r", "é", "", "r"),
}

#: lines that are not a record at all
ODD_LINES = (
    b"", b"   ", b"\r", b"[1, 2]", b"null", b"{}", b"{not json}", b'"text"',
    b"\xff\xfe garbage", b'{"method": "fock\xff"}',
)


def _spell(value, rng):
    """A JSON spelling of *value* other than json.dumps': that of an equal
    value, or invalid JSON."""
    if isinstance(value, bool):
        return rng.choice(["1" if value else "0", " true" if value else "false "])
    if isinstance(value, int):
        return rng.choice(["%d.0" % value, "0%d" % value, "-0" if value == 0 else "%de0" % value,
                           "true" if value == 1 else "%d" % value])
    return rng.choice([
        '"%s"' % "".join("\\u%04x" % ord(c) for c in value),  # every character escaped
        json.dumps(value, ensure_ascii=False),  # raw UTF-8
        '"%s"' % value,  # no escaping at all
    ])


def _record_line(fields, rng):
    fields = list(fields)
    damage = rng.choice(["none"] * 12 + ["reorder", "duplicate", "drop", "compact", "spell"])
    if damage == "reorder":
        rng.shuffle(fields)
    elif damage == "duplicate":
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(fields))
        name, _ = rng.choice(fields)
        fields.append((name, rng.choice(POOLS[name])))
    elif damage == "drop":
        del fields[rng.randrange(len(fields))]
    respelled = rng.randrange(len(fields)) if damage == "spell" else -1
    sep = ("," if damage == "compact" else ", "), (":" if damage == "compact" else ": ")
    text = "{" + sep[0].join(
        '"%s"%s%s' % (n, sep[1], _spell(v, rng) if i == respelled else json.dumps(v))
        for i, (n, v) in enumerate(fields)
    ) + "}"
    line = text.encode("utf-8")
    if rng.random() > 0.9:
        line = line[: rng.randrange(len(line))]  # torn
    if rng.random() > 0.9:
        pad = (b" ", b"\t", b"\r", b"\x0c")
        line = rng.choice(pad) * rng.randrange(2) + line + rng.choice(pad) * rng.randrange(2)
    if rng.random() > 0.95:  # glued to the torn start of another write
        line = rng.choice((b"x", b"{", b'{"method": "fock", ', b"\xff")) + line
    return line


def _random_fields(keys, rng):
    """A record's fields in LINE_FIELDS order: one of *keys*, the rest from POOLS."""
    fields = dict(rng.choice(keys))
    return [(name, fields[name] if name in fields else rng.choice(POOLS[name]))
            for name, _ in LINE_FIELDS]


@st.composite
def files_and_keys(draw):
    # one drawn seed: far cheaper to draw than st.randoms(), but a failing
    # example shrinks only in its seed
    rng = random.Random(draw(st.integers(0, 2**64 - 1)))
    # a few keys per file, so that most lookups find several candidates
    keys = [{f: rng.choice(POOLS[f]) for f in KEY_FIELDS} for _ in range(rng.randrange(1, 4))]
    lines = []
    for _ in range(rng.randrange(12)):
        if rng.random() < 0.15:
            lines.append(rng.choice(ODD_LINES))
        else:
            lines.append(_record_line(_random_fields(keys, rng), rng))
    data = b"\n".join(lines) + (b"\n" if lines and rng.random() < 0.8 else b"")
    key = dict(rng.choice(keys))
    roll = rng.random()
    if roll > 0.9:  # values equal to canonical ones under == but of another type
        key[rng.choice(["connected", "d", "g"])] = rng.choice([1, 0, True, False, 1.0, 2.0])
    elif roll > 0.85:
        del key[rng.choice(KEY_FIELDS)]
    return data, key


@pytest.fixture
def no_kept_scan(monkeypatch):
    """No scan is kept from before the test, and none outlives it."""
    monkeypatch.setattr(cache, "_kept", None)


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files_and_keys())
def test_lookup_answers_and_warns_as_decoding_every_line(tmp_path, no_kept_scan, file_and_key):
    """Twice: the second lookup reuses the scan."""
    data, key = file_and_key
    path = tmp_path / "cache.jsonl"
    path.write_bytes(data)
    expected = answer_and_warnings(decode_every_line, path, key)
    store = ResultCache(path)
    assert answer_and_warnings(store.lookup, key) == expected
    assert answer_and_warnings(store.lookup, key) == expected


#: what happens to a cache file between two lookups
STEPS = ("store", "odd line", "torn write", "truncate", "same-length rewrite", "clear", "other file")


def _append(path, data):
    with open(path, "ab") as handle:
        handle.write(data)


def _rewrite_same_length(path, rng):
    """Other bytes of the same length, under the old modification time:
    digits become other digits (still canonical, other values), anything
    else a byte that may break its line."""
    data = bytearray(path.read_bytes())
    if not data:
        return
    stat = path.stat()
    start = rng.randrange(len(data))
    for at in range(start, min(start + rng.randrange(1, 8), len(data))):
        old = data[at]
        data[at] = rng.choice([b for b in (b"0123456789" if old in b"0123456789" else b'x{" \n')
                               if b != old])
    path.write_bytes(bytes(data))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.randoms(use_true_random=True), st.lists(st.sampled_from(STEPS), max_size=12))
def test_lookups_across_file_changes_answer_and_warn_as_decoding_every_line(tmp_path, no_kept_scan, rng, steps):
    """One cache object and one path through a sequence of changes: a scan
    kept from an earlier lookup (or an earlier example) must never show
    through."""
    path = tmp_path / "cache.jsonl"
    path.unlink(missing_ok=True)
    store = ResultCache(path)
    keys = [{f: rng.choice(POOLS[f]) for f in KEY_FIELDS} for _ in range(rng.randrange(1, 4))]

    def check(step):
        for key in keys:
            expected = answer_and_warnings(decode_every_line, path, key) if path.exists() else ("None", [])
            assert answer_and_warnings(store.lookup, key) == expected, step

    for step in ["store"] + steps:
        if step == "store":
            store.store(dict(_random_fields(keys, rng)))
        elif step == "odd line":
            if rng.random() < 0.3:
                line = rng.choice(ODD_LINES)
            else:
                line = _record_line(_random_fields(keys, rng), rng)
            _append(path, line + b"\n")
        elif step == "torn write":
            line = json.dumps(dict(_random_fields(keys, rng))).encode()
            _append(path, line[: rng.randrange(len(line))])
            check(step)
            store.store(dict(_random_fields(keys, rng)))
        elif step == "truncate" and path.exists():
            os.truncate(path, rng.randrange(path.stat().st_size + 1))
        elif step == "same-length rewrite" and path.exists():
            _rewrite_same_length(path, rng)
        elif step == "clear":
            store.clear()
        elif step == "other file":
            path.write_bytes(b"".join(_record_line(_random_fields(keys, rng), rng) + b"\n"
                                      for _ in range(rng.randrange(8))))
        check(step)


RECORD = RunRecord("fock", 0, 3, False, "16", "1", 4, "0.1", "").as_dict()
CANONICAL = json.dumps(RECORD)

#: near misses of RECORD's canonical line: other spellings of an equal
#: record, and lines that look canonical but are not records
NEAR_CANONICAL = (
    CANONICAL.replace('"d": 0', '"d": -0'),
    CANONICAL.replace('"d": 0', '"d": 0.0'),
    CANONICAL.replace('"g": 3', '"g": 03'),
    CANONICAL.replace('"connected": false', '"connected": 0'),
    CANONICAL.replace('"fock"', '"\\u0066ock"'),
    CANONICAL.replace('"16"', '"1\\u0036"'),
    CANONICAL.replace('"wall_time_ms": 4', '"wall_time_ms": 1' + "0" * 30),
    CANONICAL.replace('"wall_time_ms": 4', '"wall_time_ms": ' + "1" * 5000),  # past int parsing
    CANONICAL[:-1] + ', "d": 1}',
    " " + CANONICAL,
    CANONICAL + "\r",
    "x" + CANONICAL,
    CANONICAL[:40] + CANONICAL,
)


@pytest.mark.parametrize("line", NEAR_CANONICAL)
@pytest.mark.parametrize("first", [True, False], ids=["near-first", "near-last"])
def test_near_canonical_lines_read_as_decoded(tmp_path, line, first):
    other = json.dumps(dict(RECORD, numerator="17"))
    path = tmp_path / "cache.jsonl"
    path.write_text("%s\n%s\n" % ((line, other) if first else (other, line)))
    key = {f: RECORD[f] for f in KEY_FIELDS}
    assert answer_and_warnings(ResultCache(path).lookup, key) == answer_and_warnings(
        decode_every_line, path, key
    )


def test_off_type_key_values_match_as_under_equality(tmp_path):
    record = RunRecord("fock", 1, 3, True, "2", "1", 0, "0.1", "").as_dict()
    store = ResultCache(tmp_path / "cache.jsonl")
    store.store(record)
    key = {f: record[f] for f in KEY_FIELDS}

    class EqualToAll:
        def __eq__(self, other):
            return True

    for field, value in (("connected", 1), ("d", True), ("g", 3.0), ("method", EqualToAll())):
        assert store.lookup(dict(key, **{field: value})) == record
    assert store.lookup(dict(key, connected=0)) is None


def test_an_off_type_key_runs_no_regex_and_keeps_no_scan(tmp_path, monkeypatch):
    record = RunRecord("fock", 1, 3, True, "2", "1", 0, "0.1", "").as_dict()
    store = ResultCache(tmp_path / "cache.jsonl")
    store.store(record)
    key = {f: record[f] for f in KEY_FIELDS}
    store.lookup(key)
    kept = cache._kept
    pattern = CountingPattern(cache._canonical_line())
    monkeypatch.setattr(cache, "_canonical_line", lambda: pattern)
    store.store(record)
    assert store.lookup(dict(key, connected=1)) == record
    assert pattern.scanned == [] and cache._kept is kept and kept.lines == 1


# -- the byte path is the path stored records take -------------------------------


def canonical_filler(count):
    """*count* stored lines of 140 keys, none of them a fock key."""
    return [
        json.dumps(RunRecord("symgroup", 1 + i % 5, 3 + i % 4, i % 2 == 0, str(i), "1", i,
                             "0.0.%d" % (i % 7), "").as_dict()) + "\n"
        for i in range(count)
    ]


def test_a_hit_among_canonical_records_decodes_one_line(tmp_path, monkeypatch):
    filler = canonical_filler(5000)
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(filler[:2500]))
    wanted = RunRecord("fock", 2, 3, False, "16", "1", 4, "0.1", "").as_dict()
    store = ResultCache(path)
    store.store(wanted)
    with open(path, "a") as handle:
        handle.write("".join(filler[2500:]))
    decoded = []
    loads = cache.json.loads
    monkeypatch.setattr(cache.json, "loads", lambda *a, **k: decoded.append(1) or loads(*a, **k))
    key = {f: wanted[f] for f in KEY_FIELDS}
    assert store.lookup(key) == wanted
    assert len(decoded) <= 1
    del decoded[:]
    assert store.lookup(dict(key, tool_version="0.2")) is None
    assert decoded == []


class CountingPattern:
    """The canonical-line regex, recording the bytes each ``sub`` runs over
    (``scanned``)."""

    def __init__(self, pattern):
        self.pattern, self.scanned = pattern, []

    def sub(self, repl, data):
        self.scanned.append(bytes(data))
        return self.pattern.sub(repl, data)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


def test_a_later_lookup_scans_only_the_appended_lines(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    filler = canonical_filler(5000)
    path.write_text("".join(filler))
    store = ResultCache(path)
    key = {f: json.loads(filler[2500])[f] for f in KEY_FIELDS}
    assert store.lookup(key) == decode_every_line(path, key)
    pattern = CountingPattern(cache._canonical_line())
    monkeypatch.setattr(cache, "_canonical_line", lambda: pattern)
    decoded = []
    loads = cache.json.loads
    monkeypatch.setattr(cache.json, "loads", lambda *a, **k: decoded.append(1) or loads(*a, **k))

    assert store.lookup(key) is not None
    assert sum(map(len, pattern.scanned)) == 0
    assert len(decoded) <= 1

    record = RunRecord("fock", 2, 3, False, "16", "1", 4, "0.1", "").as_dict()
    del pattern.scanned[:]
    store.store(record)
    assert store.lookup({f: record[f] for f in KEY_FIELDS}) == record
    assert b"".join(pattern.scanned) == (json.dumps(record) + "\n").encode()

    store.clear()
    record = dict(record, numerator="17")
    store.store(record)
    assert store.lookup({f: record[f] for f in KEY_FIELDS}) == record


def test_every_scan_is_indexed(tmp_path, monkeypatch):
    """The pass that scans a file indexes it: on a fresh scan a hit
    decodes only its line and a miss decodes none."""
    path = tmp_path / "cache.jsonl"
    filler = canonical_filler(5000)
    path.write_text("".join(filler))
    store = ResultCache(path)
    hit = {f: json.loads(filler[2500])[f] for f in KEY_FIELDS}
    miss = dict(hit, tool_version="none")
    expected = decode_every_line(path, hit)
    decoded, loads = [], cache.json.loads
    monkeypatch.setattr(cache.json, "loads", lambda *a, **k: decoded.append(1) or loads(*a, **k))
    for key, answer in ((hit, expected), (miss, None)):
        monkeypatch.setattr(cache, "_kept", None)
        del decoded[:]
        assert store.lookup(key) == answer
        assert len(cache._kept.index) == 140  # one entry per distinct key
        assert len(decoded) <= (0 if answer is None else 1)


def test_changing_a_returned_record_changes_no_later_answer(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(NEAR_CANONICAL[0] + "\n")
    store = ResultCache(path)
    key = {f: RECORD[f] for f in KEY_FIELDS}
    store.lookup(key)["numerator"] = "changed"
    assert store.lookup(key) == decode_every_line(path, key)


def test_threads_sharing_the_kept_scan_scan_each_byte_once(tmp_path, monkeypatch):
    """More threads than cores store and look up through one path: each
    must read back what it stored, the regex must run over each byte of
    the file once, and the index must end as one built from the whole
    file would be; an update lost between two
    threads (a line scanned twice, a kept scan that no longer matches the
    file, an appended line missing from the index) breaks one of these."""
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(canonical_filler(2000)))
    pattern = CountingPattern(cache._canonical_line())
    monkeypatch.setattr(cache, "_canonical_line", lambda: pattern)
    errors = []

    def work(d):
        store = ResultCache(path)
        try:
            for i in range(30):
                record = RunRecord("fock", d, 3, False, str(i), "1", i, "0.1", "").as_dict()
                store.store(record)
                assert store.lookup({f: record[f] for f in KEY_FIELDS}) == record
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(d,)) for d in range(2 * (os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert ResultCache(path).lookup(dict({f: RECORD[f] for f in KEY_FIELDS}, tool_version="none")) is None
    data = path.read_bytes()
    assert sum(map(len, pattern.scanned)) == len(data)
    assert bytes(cache._kept.data) == data and cache._kept.lines == data.count(b"\n")
    assert cache._kept.index == {cache._index_key(match.groups()): match.start()
                                 for match in pattern.pattern.finditer(data)}


def test_stored_records_are_canonical_lines(tmp_path, capsys):
    record = RunRecord("fock", 2, 3, False, "16", "1", 4, "0.1", "reading")
    as_dict = record.as_dict()
    assert tuple(as_dict) == tuple(name for name, _ in LINE_FIELDS)
    assert tuple(type(v) for v in as_dict.values()) == tuple(kind for _, kind in LINE_FIELDS)
    path = tmp_path / "cache.jsonl"
    assert main(["compute", "--cache-file", str(path), "--method", "fock", "-d", "2", "-g", "3"]) == 0
    capsys.readouterr()
    assert cache._canonical_line().fullmatch(path.read_bytes())


#: a canonically spelled value of each type
CANONICAL = {
    str: st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')),
    int: st.integers(-(10**18) + 1, 10**18 - 1),
    bool: st.booleans(),
}


def canonical_values(fields):
    return st.fixed_dictionaries({name: CANONICAL[kind] for name, kind in LINE_FIELDS if name in fields})


def _typed(key):
    return [(type(key[f]), key[f]) for f in KEY_FIELDS]


@settings(max_examples=300)
@given(canonical_values(KEY_FIELDS), canonical_values(KEY_FIELDS), st.sets(st.sampled_from(KEY_FIELDS)))
def test_key_spellings_are_equal_exactly_when_the_keys_are(key, values, changed):
    """Distinct keys never share an index entry, so one probe finds a key's
    canonical line: the index key reads back as the key, types included."""
    other = {f: values[f] if f in changed else key[f] for f in KEY_FIELDS}
    spelling = cache._key_spelling(key)
    assert _typed({f: json.loads(v) for f, v in zip(KEY_FIELDS, spelling.split(b"\n"))}) == _typed(key)
    assert (spelling == cache._key_spelling(other)) == (_typed(key) == _typed(other))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(canonical_values(KEY_FIELDS), canonical_values(("numerator", "denominator", "wall_time_ms")))
def test_a_stored_line_is_indexed_under_its_key_spelling(tmp_path, key, result):
    path = tmp_path / "cache.jsonl"
    path.unlink(missing_ok=True)
    ResultCache(path).store(RunRecord(**key, **result).as_dict())
    match = cache._canonical_line().fullmatch(path.read_bytes())
    assert match and cache._index_key(match.groups()) == cache._key_spelling(key)


def test_clear_after_another_clear_removed_the_file(tmp_path, monkeypatch):
    """Two clears at once: the file can be gone by the time one of them
    unlinks it, and that clear must still succeed."""
    path = tmp_path / "cache.jsonl"
    monkeypatch.setattr(type(path), "exists", lambda self: True)
    ResultCache(path).clear()
    assert not os.path.lexists(path)
