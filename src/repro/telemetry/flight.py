"""Bounded in-memory flight recorder for server-side span records.

Each node keeps the last ``capacity`` per-operation service records --
what phase a frame carried, how long it waited behind earlier frames in
the same burst, how long the protocol handler ran, and whether the
frame was served or shed -- in a ring buffer that costs two dict writes
and a deque append per sampled operation.  The records are scraped over
the wire (``TraceDump`` -> ``TraceAck``) and joined with client-side
``OpSpan`` records by :mod:`repro.obs.stitch` into one causal timeline
per operation.

Sampling is deterministic: an operation is recorded iff
``op_id % sample == 0``.  The client side uses the same predicate
(:class:`repro.telemetry.tracing.SamplingSink`), so client and servers always
sample the *same* operations and every sampled op can be stitched
end-to-end without coordination.

Timestamps are ``loop.time()`` instants (``time.monotonic`` --
CLOCK_MONOTONIC, which on Linux is system-wide since boot), so records
from different processes on the same host share one clock and align
absolutely; the stitcher falls back to duration-only rendering when
clocks are not comparable.

Like the rest of :mod:`repro.telemetry` this module imports nothing from the
rest of the repository.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional

__all__ = ["FlightRecorder"]

#: Default ring capacity (records, not operations: one record per
#: sampled frame a node serves).
DEFAULT_CAPACITY = 1024

#: Default sampling modulus: record one in 64 operations.
DEFAULT_SAMPLE = 64


class FlightRecorder:
    """Bounded ring of per-frame service records, scrapeable by op_id.

    ``sample == 0`` disables recording entirely (``wants`` is always
    false); ``sample == 1`` records every operation.  ``record`` accepts
    any dict -- by convention the node writes::

        {"op_id": int, "party": str, "node": str, "phase": str,
         "recv": float, "queue_wait": float, "service": float,
         "verdict": "served" | "throttled", "repeat": bool}

    ``party`` is who sent the frame: op_ids are numbered per party, so
    an operation is ``(party, op_id)``.

    Mutation happens under a lock; the operations are a deque append and
    an int increment, so contention is negligible at frame rates, and
    ``dump`` snapshots the ring without blocking writers for long.
    """

    __slots__ = ("node_id", "capacity", "sample", "_records", "_total",
                 "_lock")

    def __init__(self, node_id: str = "", capacity: int = DEFAULT_CAPACITY,
                 sample: int = DEFAULT_SAMPLE) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        if sample < 0:
            raise ValueError("sampling modulus must be >= 0")
        self.node_id = node_id
        self.capacity = capacity
        self.sample = sample
        self._records: deque = deque(maxlen=capacity)
        self._total = 0
        self._lock = threading.Lock()

    def wants(self, op_id) -> bool:
        """True when ``op_id`` falls in the deterministic sample."""
        return (self.sample > 0 and type(op_id) is int
                and op_id % self.sample == 0)

    def record(self, entry: Dict) -> None:
        """Retain one service record (evicting the oldest at capacity)."""
        with self._lock:
            self._records.append(entry)
            self._total += 1

    def dump(self, op_id: Optional[int] = None, limit: int = 0) -> List[Dict]:
        """Retained records, oldest first.

        ``op_id`` filters to one operation (``None`` or ``-1`` keeps
        all); ``limit > 0`` keeps only the *newest* that many records
        after filtering.
        """
        with self._lock:
            records = list(self._records)
        if op_id is not None and op_id >= 0:
            records = [r for r in records if r.get("op_id") == op_id]
        if limit > 0:
            records = records[-limit:]
        return records

    @property
    def total(self) -> int:
        """Records ever captured (including ones the ring evicted)."""
        return self._total

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
