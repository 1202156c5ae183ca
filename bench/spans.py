"""The benchmark's own in-memory spans.

Recorded only in a ``--trace 1`` run, from the benchmark's files, around
its calls into the program: a root span per client call, a child span
per layer-replay call.  The program's already-public trace outputs (the
client's span records, the nodes' flight records) hang off the root
spans as derived children, so one operation's spans share ``op``.
Nothing is written until the run has ended.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

from loadgen import clock


class Spans:
    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op: Any = None) -> int:
        """Record one finished span; returns its id (for children)."""
        self.records.append({"id": len(self.records), "name": name,
                             "start": start, "end": end, "parent": parent,
                             "op": op})
        return len(self.records) - 1

    def timed(self, name: str, call, parent: Optional[int] = None):
        """``call()`` under a span named ``name``; returns its result."""
        start = clock()
        try:
            return call()
        finally:
            self.add(name, start, clock(), parent)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the part of it that its
        child spans cover (overlapping children are not counted twice).
        """
        children: Dict[int, List[Dict]] = defaultdict(list)
        for record in self.records:
            if record["parent"] is not None:
                children[record["parent"]].append(record)
        out: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            covered = _covered(record["start"], record["end"],
                               children.get(record["id"], ()))
            entry = out.setdefault(record["name"],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += record["end"] - record["start"]
            entry["self_s"] += record["end"] - record["start"] - covered
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _covered(start: float, end: float, children: Iterable[Dict]) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(cursor, child["start"])
        hi = min(end, child["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
