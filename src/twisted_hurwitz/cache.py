"""Append-only result cache, one JSON object per line.

A record is a flat dict, a ``RunRecord.as_dict()``; the fields in
KEY_FIELDS identify the computation (method, parameters, tool version and
— for the graph-sum pipeline — the derived normalization reading), the
rest carry the result and timing.  ``RunRecord`` is defined here, next to
the code that writes and reads its bytes: its fields, in order, are the
fields of a canonical line (LINE_FIELDS) and of every record the command
line emits.  Lookups scan the file and the last matching line
wins, so re-storing a key never requires rewriting the file.  Lines that
fail to parse are reported as warnings and skipped: a damaged cache can
cost a recomputation but never produce a wrong answer.

A lookup decodes only the lines it cannot read by their bytes.  ``store``
writes ``json.dumps`` of a ``RunRecord.as_dict()``, so nearly every line
is *canonical*: exactly the bytes

    {"method": S, "d": I, "g": I, "connected": B, "numerator": S,
     "denominator": S, "wall_time_ms": I, "tool_version": S,
     "normalization_reading": S}

and a newline, with the fields in LINE_FIELDS order, ``S`` a string of
printable ASCII without ``"`` or ``\\`` (so it has no escapes and decodes
to its own bytes), ``I`` an integer of at most 18 digits without leading
zeros or ``-0``, and ``B`` ``true`` or ``false``.  Each spelling above has
exactly one value, each value of its type exactly one spelling, and no
spelling contains a newline.  So when every key value has its field's
type (str, an int that is not a bool, a bool) and such a spelling, the
spellings of its six KEY_FIELDS values joined by newlines
(``_key_spelling``) are a canonical line's exactly when the line's key
fields equal the key's under ``==``.  One regex pass over the file blanks
the canonical lines and indexes each as it blanks it: the index maps each
such six-spelling key to the offset of the last line that has it.  A
lookup probes the index once and decodes only the line it points to.

Every other line (blank, hand-edited, reordered, escaped, non-ASCII, CRLF,
torn, not UTF-8, a longer integer) is decoded as ``entries`` decodes it,
warns in file order when it is not a JSON object, and is compared field
by field.  The later of the two winners wins, so the result and the
warnings are those of decoding every line.  A key value of another type,
such as ``connected=1`` or ``d=True`` (equal to ``True`` and ``1`` under
``==`` but spelled differently), makes the lookup decode every line.

The module keeps the scan of the file it looked up last (one file's at
most, keyed by path; ``clear`` drops it): the bytes of its complete
lines, through the last newline, their count, its non-canonical lines as
(line number, bytes) and its index.  The file only grows by appends, so
a later lookup first reads the file in 64 KiB chunks and checks that it
still starts with exactly those bytes, then reads the rest into the same
buffer and runs the regex over the appended complete lines only, which
blanks and indexes them.  If any byte of the prefix differs (the file
was truncated, rewritten, cleared or replaced) it scans afresh; no size,
time stamp or checksum is trusted.  Bytes after the last newline (a torn
or still-being-written line) are decoded on every lookup and never kept.
The kept non-canonical lines are decoded again on each lookup and warn
in file order, so the result and the warnings are still those of
decoding every line and every record returned is freshly decoded.

Every lookup thus takes the same steps: the prefix check, the regex pass
over the new bytes, one probe of the index, one match and one decode.
Memory: the new bytes are read into the buffer that is kept, so the kept
scan holds the file's complete lines once, its non-canonical lines a
second time, one six-spelling key and one offset per distinct key, and
no decoded record, until the process ends or looks up another file.  On
the benchmark's seeded cache file (20,000 lines, 3.8 MB) the index holds
9,777 keys in 1.3 MB (by ``tracemalloc``).  A key value of another type
bypasses the kept scan and decodes the file as read.

Indexing as it scans costs a process that looks up once, such as each
``compute`` run of the command line.  On that file, on a 2-core VM with
Python 3.11, the regex pass takes about 20 ms alone and 52 ms with the
indexing; a first lookup in a fresh interpreter took 41-73 ms (median
56 ms) and a second 1.5-1.9 ms.  On a file of a few hundred lines a
first lookup takes 2-3 ms.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .record import Record

KEY_FIELDS = ("method", "d", "g", "connected", "tool_version", "normalization_reading")

#: the fields of a ``RunRecord`` and of a canonical line, in the order
#: ``store`` writes them, with the type each decodes to
LINE_FIELDS = (
    ("method", str),
    ("d", int),
    ("g", int),
    ("connected", bool),
    ("numerator", str),
    ("denominator", str),
    ("wall_time_ms", int),
    ("tool_version", str),
    ("normalization_reading", str),
)


class RunRecord(Record):
    """One answered query: its KEY_FIELDS, its exact value as numerator and
    denominator strings, and the milliseconds it took, as the fields named
    in LINE_FIELDS."""

    __slots__ = _fields = tuple(name for name, _ in LINE_FIELDS)

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    @classmethod
    def from_dict(cls, record: dict) -> "RunRecord":
        """The record of a decoded line, each field converted to its type;
        KeyError when a field is missing, as for a line without a key
        field, which matches no lookup key either."""
        return cls(*(kind(record[name]) for name, kind in LINE_FIELDS))

    @property
    def value(self) -> Fraction:
        return Fraction(int(self.numerator), int(self.denominator))


#: canonical JSON spelling of a value of each type
_SPELLING = {
    str: rb'"[ !#-\[\]-~]*"',
    int: rb"(?:0|-?[1-9][0-9]{0,17})",
    bool: rb"(?:true|false)",
}

DEFAULT_CACHE_PATH = Path.home() / ".cache" / "twisted-hurwitz" / "results.jsonl"


@lru_cache(maxsize=1)
def _canonical_line():
    """The regex of one canonical line and its newline, compiled on first
    use (it takes about a millisecond) rather than at import.  Its groups
    are the spellings of the line's KEY_FIELDS values, in order."""
    fields = [b'"%s": %s' % (name.encode(), b"(%s)" % _SPELLING[kind] if name in KEY_FIELDS
                             else _SPELLING[kind]) for name, kind in LINE_FIELDS]
    return re.compile(rb"^\{%s\}\n" % b", ".join(fields), re.M)


def _index_key(spellings) -> bytes:
    """The key under which a scan's index holds the lines whose key values
    are spelled *spellings*: no spelling contains a newline, so two keys
    that differ never share one."""
    return b"\n".join(spellings)


def _key_spelling(key: dict):
    """The index key of the canonical lines whose key fields equal *key*'s,
    or None when a key value is not canonically spelled."""
    kinds = dict(LINE_FIELDS)
    spellings = []
    for name in KEY_FIELDS:
        value = key.get(name)
        if type(value) is not kinds[name]:
            return None
        try:
            text = json.dumps(value).encode()
        except ValueError:  # an int past the str conversion limit
            return None
        if not re.fullmatch(_SPELLING[kinds[name]], text):
            return None
        spellings.append(text)
    return _index_key(spellings)


class _Scan:
    """What lookups learned from the complete lines of one file: their
    bytes, their count, the non-canonical lines among them as (line
    number, bytes), in file order, and the index: for each ``_index_key``
    of a canonical line, the offset of the last such line."""

    __slots__ = ("path", "data", "lines", "odd", "index")

    def __init__(self, path):
        self.path, self.data, self.lines, self.odd, self.index = path, bytearray(), 0, [], {}


#: the scan of the file looked up last (one file's at most), and the lock
#: that makes bringing it up to date and searching it one step
_kept = None
_kept_lock = threading.Lock()

#: bytes per read when checking that a file still starts with a kept scan
_CHUNK = 1 << 18


def _starts_with(handle, data) -> bool:
    """Whether the file open as *handle* starts with exactly *data*,
    compared chunk by chunk through one buffer that every read fills;
    leaves *handle* just past the prefix."""
    buffer = memoryview(bytearray(min(_CHUNK, len(data))))
    at = 0
    while at < len(data):
        got = handle.readinto(buffer[:len(data) - at])
        if not got or not data.startswith(buffer[:got], at):
            return False
        at += got
    return True


class ResultCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else DEFAULT_CACHE_PATH

    def _read(self) -> bytes:
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    @staticmethod
    def _lines(data, lineno=1):
        """(line number, bytes) for every line of *data* that is not blank,
        in file order and numbered from *lineno*; the bytes are stripped."""
        at = 0
        for match in re.finditer(rb"[^\n]+", data):
            lineno += data.count(b"\n", at, match.start())
            at = match.start()
            line = match.group().strip()
            if line:
                yield lineno, line

    def _records(self, lines):
        """(line number, record) for every (line number, bytes) of *lines*
        that holds a JSON object, in order; any other line is skipped with
        a warning."""
        for lineno, line in lines:
            # bytes: a line that is not UTF-8 fails to decode and is skipped
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                record = None
            if not isinstance(record, dict):
                warnings.warn("skipping corrupt cache line %d in %s" % (lineno, self.path))
                continue
            yield lineno, record

    def _scan(self):
        """The kept scan of this file brought up to date, and the bytes
        after its last newline.  A kept scan is extended by the complete
        lines appended since, if the file still starts with its bytes;
        otherwise, and for another file, the file is scanned afresh."""
        global _kept
        scan = _kept if _kept is not None and _kept.path == self.path else None
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            _kept = _Scan(self.path)
            return _kept, b""
        with handle:
            if scan is None or not _starts_with(handle, scan.data):
                scan = _Scan(self.path)
                handle.seek(0)
            # the new bytes become or extend the kept buffer: the file is held once
            new = bytearray(max(os.fstat(handle.fileno()).st_size - len(scan.data), 0))
            del new[handle.readinto(new):]
        cut = new.rfind(b"\n") + 1
        tail = new[cut:]
        del new[cut:]
        index, at = scan.index, len(scan.data)

        def blank(match):
            index[_index_key(match.groups())] = at + match.start()
            return b"\n"

        # canonical lines become blank lines, so line numbers are kept, and
        # enter the index as they are blanked
        rest = _canonical_line().sub(blank, new)
        scan.odd += self._lines(rest, scan.lines + 1)
        if scan.data:
            scan.data += new
        else:
            scan.data = new
        scan.lines += rest.count(b"\n")
        _kept = scan
        return scan, tail

    def _last_decoded(self, key: dict, lines):
        """The last of *lines* whose record matches all KEY_FIELDS of *key*,
        as (record, line number), or (None, 0)."""
        found, found_line = None, 0
        for lineno, record in self._records(lines):
            if all(record.get(f) == key.get(f) for f in KEY_FIELDS):
                found, found_line = record, lineno
        return found, found_line

    def entries(self) -> list:
        """All parseable records, in file order."""
        return [record for _, record in self._records(self._lines(self._read()))]

    def lookup(self, key: dict):
        """The most recent record matching all KEY_FIELDS of *key*, or None."""
        spelling = _key_spelling(key)
        if spelling is None:
            return self._last_decoded(key, self._lines(self._read()))[0]
        with _kept_lock:
            scan, tail = self._scan()
            found, found_line = self._last_decoded(
                key, itertools.chain(scan.odd, self._lines(tail, scan.lines + 1)))
            at = scan.index.get(spelling)
            # the canonical line's number is its count of earlier newlines + 1
            if at is not None and (found is None or scan.data.count(b"\n", 0, at) >= found_line):
                return json.loads(_canonical_line().match(scan.data, at).group())
        return found

    def store(self, record: dict) -> None:
        """Append *record* as one line.  A last line left without its newline
        (an interrupted write) is closed first, so the torn line is skipped
        as corrupt and the new record stays readable."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = (json.dumps(record, sort_keys=False) + "\n").encode("utf-8")
        with open(self.path, "ab+") as handle:
            if handle.seek(0, 2):
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)

    def clear(self) -> None:
        global _kept
        with _kept_lock:
            _kept = None
        self.path.unlink(missing_ok=True)
