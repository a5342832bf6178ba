"""Append-only result cache, one JSON object per line.

A record is a flat dict, a ``RunRecord.as_dict()``; the fields in
KEY_FIELDS identify the computation (method, parameters, tool version and
— for the graph-sum pipeline — the derived normalization reading), the
rest carry the result and timing.  ``RunRecord`` is defined here, next to
the code that writes and reads its bytes: its annotated fields, in order,
are the fields of a canonical line (LINE_FIELDS) and of every record the
command line emits.  Lookups scan the file and the last matching line
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
zeros or ``-0``, and ``B`` ``true`` or ``false``.  One regex pass over
the file marks these lines.  Each spelling above has exactly one value
and each value of its type exactly one spelling, so when every key value
has its field's type (str, an int that is not a bool, a bool) and such a
spelling, a canonical line's key fields equal the key's under ``==``
exactly when the line starts with the head ``{"method": …, "d": …,
"g": …, "connected": …, "numerator": "`` and ends with the tail
``, "tool_version": …, "normalization_reading": …}`` spelled from the
key.  ``lookup`` finds the last such line and decodes only that one: on
a scan it has just made, with ``rfind``; on a kept scan (below), from the
scan's index.

Every other line (blank, hand-edited, reordered, escaped, non-ASCII, CRLF,
torn, not UTF-8, a longer integer) is decoded as ``entries`` decodes it,
warns in file order when it is not a JSON object, and is compared field
by field.  The later of the two winners wins, so the result and the
warnings are those of decoding every line.  A key value of another type,
such as ``connected=1`` or ``d=True`` (equal to ``True`` and ``1`` under
``==`` but spelled differently), makes the lookup decode every line.

A process that looks up many keys runs the regex over each byte once
with ``sub``, plus one indexing pass over the kept bytes when it first
reuses a scan.  The module keeps the scan of the file it looked up last
(one file's at most, keyed by path; ``clear`` drops it): the bytes of its
complete lines, through the last newline, their count and its
non-canonical lines as (line number, bytes).  The file only grows by
appends, so a later lookup first reads the file in 64 KiB chunks and
checks that it still starts with exactly those bytes, then reads the
rest into the same buffer and runs the regex over the appended complete
lines only.  If any byte of the prefix differs (the
file was truncated, rewritten, cleared or replaced) it scans afresh; no
size, time stamp or checksum is trusted.  Bytes after the last newline (a
torn or still-being-written line) are decoded on every lookup and never
kept.  The kept non-canonical lines are decoded again on each lookup and
warn in file order, so the result and the warnings are still those of
decoding every line and every record returned is freshly decoded.

The first lookup that reuses a kept scan indexes it: one ``finditer``
pass maps the hash of each canonical line's head and tail to the offset
of the last such line, and from then on the ``sub`` over appended lines
adds each line it blanks.  An indexed lookup is the prefix check and one
probe: no entry means no canonical line of the key, and an entry whose
line has the key's head and tail is the last one.  Keys whose hashes
collide share an entry holding the later of their lines, so an entry
whose line is another key's sends the lookup back to the ``rfind``
search.  Memory: the new bytes are read into the buffer that is kept, so
the kept scan holds the file's complete lines once, its non-canonical
lines a second time, one hash and one offset per distinct key, and no
decoded record, until the process ends or looks up another file.  A key
value of another type bypasses the kept scan and decodes the file as
read.  One lookup per process, as in each ``compute`` run of the command
line, reads the file once, runs one regex pass and one ``rfind`` search,
and builds no index, as it would without the kept scan; the gain is for
a process that looks up many keys, such as a script that calls
``cli.main`` or ``ResultCache.lookup`` in a loop.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import get_type_hints

KEY_FIELDS = ("method", "d", "g", "connected", "tool_version", "normalization_reading")


@dataclass(frozen=True)
class RunRecord:
    """One answered query: its KEY_FIELDS, its exact value as numerator and
    denominator strings, and the milliseconds it took."""

    method: str
    d: int
    g: int
    connected: bool
    numerator: str
    denominator: str
    wall_time_ms: int
    tool_version: str
    normalization_reading: str

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name, _ in LINE_FIELDS}

    @classmethod
    def from_dict(cls, record: dict) -> "RunRecord":
        """The record of a decoded line, each field converted to its type;
        KeyError when a field is missing, as for a line without a key
        field, which matches no lookup key either."""
        return cls(*(kind(record[name]) for name, kind in LINE_FIELDS))

    @property
    def value(self) -> Fraction:
        return Fraction(int(self.numerator), int(self.denominator))


#: the fields of a canonical line in the order ``store`` writes a
#: ``RunRecord``, with the type each decodes to
LINE_FIELDS = tuple(get_type_hints(RunRecord).items())

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
    use (it takes about a millisecond) rather than at import.  Group 1 is
    the line's head and group 2 its tail, as ``_head_and_tail`` spells
    them."""
    fields = [b'"%s": %s' % (name.encode(), _SPELLING[kind]) for name, kind in LINE_FIELDS]
    head = rb'\{%s, %s, %s, %s, "numerator": "' % tuple(fields[:4])
    tail = rb", %s, %s\}" % tuple(fields[7:])
    # between them: the numerator after its opening quote, the denominator and the time
    middle = rb"%s, %s, %s" % (_SPELLING[str][1:], fields[5], fields[6])
    return re.compile(rb"^(%s)%s(%s)\n" % (head, middle, tail), re.M)


def _head_and_tail(key: dict):
    """The bytes that start and end every canonical line whose key fields
    equal *key*'s, or None when a key value is not canonically spelled."""
    kinds = dict(LINE_FIELDS)
    spelled = {}
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
        spelled[name] = b'"%s": %s' % (name.encode(), text)
    head = b"{%s, %s, %s, %s, " % tuple(spelled[f] for f in KEY_FIELDS[:4]) + b'"numerator": "'
    tail = b", %s, %s}" % tuple(spelled[f] for f in KEY_FIELDS[4:])
    return head, tail


def _last_canonical(data: bytes, head: bytes, tail: bytes):
    """The match of the last canonical line that starts with *head* and
    ends with *tail*, or None."""
    line = _canonical_line()
    end = len(data)
    while (start := data.rfind(head, 0, end)) >= 0:
        match = line.match(data, start)  # fails unless *start* begins a line
        if match and data.endswith(tail, start, match.end() - 1):
            return match
        end = start + len(head) - 1
    return None


def _index_key(head: bytes, tail: bytes) -> int:
    """The key under which a scan's index holds the lines of *head* and *tail*."""
    return hash(head + tail)


class _Scan:
    """What lookups learned from the complete lines of one file: their
    bytes, their count, the non-canonical lines among them as (line
    number, bytes), in file order, and, once the scan is reused, its index:
    for each ``_index_key`` of a canonical line's head and tail, the offset
    of the last such line."""

    __slots__ = ("path", "data", "lines", "odd", "index")

    def __init__(self, path):
        self.path, self.data, self.lines, self.odd, self.index = path, bytearray(), 0, [], None

    def last_canonical(self, head: bytes, tail: bytes):
        """The match of the last canonical line that starts with *head* and
        ends with *tail*, or None: read from the index when there is one
        and its line is that key's (other keys may share its entry),
        searched for otherwise."""
        if self.index is None:
            return _last_canonical(self.data, head, tail)
        at = self.index.get(_index_key(head, tail))
        if at is None:
            return None
        match = _canonical_line().match(self.data, at)
        return match if match.group(1, 2) == (head, tail) else _last_canonical(self.data, head, tail)


#: the scan of the file looked up last (one file's at most), and the lock
#: that makes bringing it up to date and searching it one step
_kept = None
_kept_lock = threading.Lock()

#: bytes per read when checking that a file still starts with a kept scan
_CHUNK = 1 << 16


def _starts_with(handle, data) -> bool:
    """Whether the file open as *handle* starts with exactly *data*,
    compared chunk by chunk; leaves *handle* just past the prefix."""
    at = 0
    while at < len(data):
        chunk = handle.read(min(_CHUNK, len(data) - at))
        if not chunk or not data.startswith(chunk, at):
            return False
        at += len(chunk)
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
            elif scan.index is None:
                # reused for the first time: index the kept lines once
                scan.index = {_index_key(*match.group(1, 2)): match.start()
                              for match in _canonical_line().finditer(scan.data)}
            # the new bytes become or extend the kept buffer: the file is held once
            new = bytearray(max(os.fstat(handle.fileno()).st_size - len(scan.data), 0))
            del new[handle.readinto(new):]
        cut = new.rfind(b"\n") + 1
        tail = new[cut:]
        del new[cut:]
        # canonical lines become blank lines, so line numbers are kept; an
        # index takes in the appended ones as they are blanked
        if scan.index is None:
            rest = _canonical_line().sub(b"\n", new)
        else:
            index, at = scan.index, len(scan.data)

            def blank(match):
                index[_index_key(*match.group(1, 2))] = at + match.start()
                return b"\n"

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
        ends = _head_and_tail(key)
        if ends is None:
            return self._last_decoded(key, self._lines(self._read()))[0]
        with _kept_lock:
            scan, tail = self._scan()
            found, found_line = self._last_decoded(
                key, itertools.chain(scan.odd, self._lines(tail, scan.lines + 1)))
            match = scan.last_canonical(*ends)
            # the canonical line's number is its count of earlier newlines + 1
            if match and (found is None or scan.data.count(b"\n", 0, match.start()) >= found_line):
                return json.loads(match.group())
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
