"""Append-only JSON-lines log of registry snapshots.

The minimal metrics sidecar: one line per scrape, each a self-contained
``{"ts": <unix seconds>, "snapshot": <MetricRegistry.snapshot()>}``
document.  ``repro metrics dump --watch`` appends one line per interval
while a cluster serves, and the load rig's coordinator appends every
worker snapshot it receives over the IPC pipe -- either way the result
is a replayable time series a notebook (or a later Prometheus importer)
can walk without holding the whole run in memory.

Two optional behaviours turn the sidecar into a long-run artifact:

* **Rotation** (``max_bytes``): when a path-backed log would grow past
  the limit, the active file rolls to ``<path>.1`` (older segments
  shifting to ``.2`` ... ``.keep``, the oldest dropped), so a
  ``--watch`` loop can run for days bounded at roughly
  ``(keep + 1) * max_bytes``.  :func:`read_snapshot_log` and
  :func:`iter_snapshot_log` transparently read across segments, oldest
  first.

* **Windows** (``windows=True``): each appended record additionally
  carries the per-window histogram *deltas* since the previous append
  of the same series (series = the ``extra`` labels, so interleaved
  per-worker appends each get their own baseline).  Deltas store raw
  bucket counts -- cheap to write, exact to merge -- and the percentile
  summaries (p50/p99/p999) are computed at *read* time by
  ``read_snapshot_log(..., windows=True)``.  A cumulative counter
  reset (process restart) makes the deltas negative; the window adopts
  the fresh cumulative counts instead, mirroring Prometheus ``rate()``
  semantics.
"""

from __future__ import annotations

import json
import os
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from repro.telemetry.stats import bucket_percentile


def _series_key(extra: Optional[Dict]) -> Tuple:
    return tuple(sorted((str(k), str(v)) for k, v in (extra or {}).items()))


def _hist_key(entry: Dict) -> Tuple:
    return (entry["name"],
            tuple(sorted((str(k), str(v))
                         for k, v in entry.get("labels", {}).items())))


class SnapshotLog:
    """Writer for a snapshot time-series file (JSON lines, append mode).

    Accepts a path (opened in append mode, so successive runs extend the
    series) or an already-open text stream (left open on :meth:`close`,
    so ``stdout`` works).  Every :meth:`append` is one flushed line --
    a crashed run keeps every snapshot recorded before the crash.

    ``max_bytes`` enables size-based rotation and requires a path
    target (a stream cannot be rolled).  ``windows`` adds per-append
    histogram deltas (see the module docstring).
    """

    def __init__(self, target: Union[str, IO[str]],
                 max_bytes: Optional[int] = None, keep: int = 4,
                 windows: bool = False) -> None:
        if isinstance(target, str):
            self._path: Optional[str] = target
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
            self._size = self._fh.tell()
        else:
            if max_bytes is not None:
                raise ValueError("rotation requires a path target")
            self._path = None
            self._fh = target
            self._owns = False
            self._size = 0
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if keep < 1:
            raise ValueError("must keep at least one rolled segment")
        self.max_bytes = max_bytes
        self.keep = keep
        self.windows = windows
        #: series key -> histogram key -> (cumulative counts, sum).
        self._prev: Dict[Tuple, Dict[Tuple, Tuple[List[int], float]]] = {}
        self.lines = 0

    def append(self, snapshot: Dict, ts: float,
               extra: Optional[Dict] = None) -> None:
        """Write one ``{"ts", "snapshot", **extra}`` line, flushed."""
        record: Dict = {"ts": ts, "snapshot": snapshot}
        if extra:
            record.update(extra)
        if self.windows:
            deltas = self._window_deltas(snapshot, extra)
            if deltas:
                record["window"] = {"histograms": deltas}
        data = json.dumps(record, separators=(",", ":"),
                          sort_keys=True) + "\n"
        if (self.max_bytes is not None and self._size > 0
                and self._size + len(data) > self.max_bytes):
            self._rotate()
        self._fh.write(data)
        self._fh.flush()
        self._size += len(data)
        self.lines += 1

    def _window_deltas(self, snapshot: Dict,
                       extra: Optional[Dict]) -> List[Dict]:
        prev = self._prev.setdefault(_series_key(extra), {})
        deltas: List[Dict] = []
        for entry in snapshot.get("histograms", ()):
            key = _hist_key(entry)
            counts = [int(c) for c in entry["counts"]]
            total = float(entry["sum"])
            last = prev.get(key)
            prev[key] = (counts, total)
            if (last is None or len(last[0]) != len(counts)
                    or any(c < p for c, p in zip(counts, last[0]))):
                # First sight of the series, or a cumulative reset
                # (restarted process): the window is the fresh totals.
                window_counts, window_sum = counts, total
            else:
                window_counts = [c - p for c, p in zip(counts, last[0])]
                window_sum = total - last[1]
            if not sum(window_counts):
                continue
            deltas.append({
                "name": entry["name"],
                "labels": dict(entry.get("labels", {})),
                "buckets": list(entry["buckets"]),
                "counts": window_counts,
                "sum": window_sum,
                # Cumulative max: an upper bound on the window max,
                # used only to clamp the overflow-bucket percentile.
                "max": float(entry.get("max", 0.0)),
            })
        return deltas

    def _rotate(self) -> None:
        assert self._path is not None
        self._fh.close()
        oldest = f"{self._path}.{self.keep}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for n in range(self.keep - 1, 0, -1):
            src = f"{self._path}.{n}"
            if os.path.exists(src):
                os.replace(src, f"{self._path}.{n + 1}")
        os.replace(self._path, f"{self._path}.1")
        self._fh = open(self._path, "a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "SnapshotLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def window_summary(entry: Dict) -> Dict:
    """p50/p99/p999 summary of one stored window-delta entry."""
    counts = entry["counts"]
    bounds = entry["buckets"]
    count = sum(counts)
    maximum = float(entry.get("max") or (bounds[-1] if bounds else 0.0))
    return {
        "count": count,
        "mean": (entry["sum"] / count) if count else 0.0,
        "p50": bucket_percentile(bounds, counts, 0.50, maximum),
        "p99": bucket_percentile(bounds, counts, 0.99, maximum),
        "p999": bucket_percentile(bounds, counts, 0.999, maximum),
    }


def read_snapshot_log(path: str, windows: bool = False) -> List[Dict]:
    """Parse every line of a snapshot log (blank lines skipped).

    Reads across rotation segments (``path.N`` oldest-first, then the
    active file).  With ``windows=True``, every stored window-delta
    histogram gains a ``"summary"`` dict (count/mean/p50/p99/p999)
    computed from its bucket deltas.
    """
    return list(iter_snapshot_log(path, windows=windows))


def iter_snapshot_log(path: str, windows: bool = False) -> Iterator[Dict]:
    """Yield each record of a snapshot log without loading the file."""
    for segment in _segments(path):
        with open(segment, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if windows:
                    for entry in record.get("window", {}).get(
                            "histograms", ()):
                        entry["summary"] = window_summary(entry)
                yield record


def _segments(path: str) -> List[str]:
    """Files making up one logical log: rolled segments oldest first."""
    rolled: List[str] = []
    n = 1
    while os.path.exists(f"{path}.{n}"):
        rolled.append(f"{path}.{n}")
        n += 1
    ordered = list(reversed(rolled))
    if os.path.exists(path):
        ordered.append(path)
    return ordered
