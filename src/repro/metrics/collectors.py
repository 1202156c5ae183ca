"""Latency/round statistics extracted from execution traces.

The order statistics themselves (:class:`LatencySummary`,
:func:`percentile`, :func:`summarize_latencies`) live in
:mod:`repro.telemetry.stats` -- one nearest-rank implementation shared with
the live histogram snapshots -- and are re-exported here for
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.trace import OpKind, Trace
from repro.telemetry.stats import (  # noqa: F401 -- re-exported compatibility names
    LatencySummary,
    percentile,
    summarize_latencies,
)


@dataclass
class OperationSummary:
    """Aggregate statistics for one operation kind within a trace."""

    kind: str
    latency: LatencySummary
    rounds: Dict[int, int] = field(default_factory=dict)
    incomplete: int = 0

    @property
    def mean_rounds(self) -> float:
        """Average rounds per completed operation."""
        total = sum(count for count in self.rounds.values())
        if not total:
            return 0.0
        return sum(r * c for r, c in self.rounds.items()) / total


def summarize_trace(trace: Trace) -> Dict[str, OperationSummary]:
    """Per-kind latency and round statistics for a whole execution."""
    summaries: Dict[str, OperationSummary] = {}
    for kind in (OpKind.READ, OpKind.WRITE):
        records = [op for op in trace if op.kind is kind]
        completed = [op for op in records if op.complete]
        rounds: Dict[int, int] = {}
        for op in completed:
            rounds[op.rounds] = rounds.get(op.rounds, 0) + 1
        summaries[kind.value] = OperationSummary(
            kind=kind.value,
            latency=summarize_latencies([op.latency for op in completed]),
            rounds=rounds,
            incomplete=len(records) - len(completed),
        )
    return summaries
