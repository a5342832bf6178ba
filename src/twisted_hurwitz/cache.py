"""Append-only result cache, one JSON object per line.

A record is a flat dict; the fields in KEY_FIELDS identify the
computation (method, parameters, tool version and — for the graph-sum
pipeline — the derived normalization reading), the rest carry the
result and timing.  Lookups scan the file and the last matching line
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
key.  ``lookup`` finds the last such line with ``rfind`` and decodes
only that one.

Every other line (blank, hand-edited, reordered, escaped, non-ASCII, CRLF,
torn, not UTF-8, a longer integer) is decoded as ``entries`` decodes it,
warns in file order when it is not a JSON object, and is compared field
by field.  The later of the two winners wins, so the result and the
warnings are those of decoding every line.  A key value of another type,
such as ``connected=1`` or ``d=True`` (equal to ``True`` and ``1`` under
``==`` but spelled differently), makes the lookup decode every line.
"""

from __future__ import annotations

import json
import re
import warnings
from functools import lru_cache
from pathlib import Path

KEY_FIELDS = ("method", "d", "g", "connected", "tool_version", "normalization_reading")

#: the fields of a canonical line in the order ``store`` writes a
#: ``RunRecord``, with the type each decodes to
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
    use (it takes about a millisecond) rather than at import."""
    fields = b", ".join(b'"%s": %s' % (name.encode(), _SPELLING[kind]) for name, kind in LINE_FIELDS)
    return re.compile(rb"^\{%s\}\n" % fields, re.M)


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


class ResultCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else DEFAULT_CACHE_PATH

    def _read(self) -> bytes:
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    def _records(self, data: bytes):
        """(line number, record) for every line of *data* holding a JSON
        object, in file order; a line that is neither blank nor such an
        object is skipped with a warning."""
        lineno, at = 1, 0
        for match in re.finditer(rb"[^\n]+", data):
            lineno += data.count(b"\n", at, match.start())
            at = match.start()
            # bytes: a line that is not UTF-8 fails to decode and is skipped
            line = match.group().strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                record = None
            if not isinstance(record, dict):
                warnings.warn("skipping corrupt cache line %d in %s" % (lineno, self.path))
                continue
            yield lineno, record

    def entries(self) -> list:
        """All parseable records, in file order."""
        return [record for _, record in self._records(self._read())]

    def lookup(self, key: dict):
        """The most recent record matching all KEY_FIELDS of *key*, or None."""
        data = self._read()
        ends = _head_and_tail(key)
        # canonical lines become blank lines, so line numbers are kept
        rest = data if ends is None else _canonical_line().sub(b"\n", data)
        found, found_line = None, 0
        for lineno, record in self._records(rest):
            if all(record.get(f) == key.get(f) for f in KEY_FIELDS):
                found, found_line = record, lineno
        if ends is not None:
            match = _last_canonical(data, *ends)
            # the canonical line's number is its count of earlier newlines + 1
            if match and (found is None or data.count(b"\n", 0, match.start()) >= found_line):
                found = json.loads(match.group())
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
        if self.path.exists():
            self.path.unlink()
