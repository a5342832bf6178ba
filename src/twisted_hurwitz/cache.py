"""Append-only result cache, one JSON object per line.

A record is a flat dict; the fields in KEY_FIELDS identify the
computation (method, parameters, tool version and — for the graph-sum
pipeline — the calibrated normalization reading), the rest carry the
result and timing.  Lookups scan the file and the last matching line
wins, so re-storing a key never requires rewriting the file.  Lines that
fail to parse are reported as warnings and skipped: a damaged cache can
cost a recomputation but never produce a wrong answer.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

KEY_FIELDS = ("method", "d", "g", "connected", "tool_version", "normalization_reading")

DEFAULT_CACHE_PATH = Path.home() / ".cache" / "twisted-hurwitz" / "results.jsonl"


class ResultCache:
    def __init__(self, path=None):
        self.path = Path(path) if path is not None else DEFAULT_CACHE_PATH

    def entries(self) -> list:
        """All parseable records, in file order."""
        if not self.path.exists():
            return []
        out = []
        # bytes: a line that is not UTF-8 fails to decode and is skipped
        with open(self.path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    warnings.warn(
                        "skipping corrupt cache line %d in %s" % (lineno, self.path)
                    )
                    continue
                out.append(record)
        return out

    def lookup(self, key: dict):
        """The most recent record matching all KEY_FIELDS of *key*, or None."""
        found = None
        for record in self.entries():
            if all(record.get(f) == key.get(f) for f in KEY_FIELDS):
                found = record
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
