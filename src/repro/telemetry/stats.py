"""Order statistics shared by simulated and live telemetry.

This module is the single home of the nearest-rank percentile logic: the
trace summaries in :mod:`repro.metrics.collectors` and the fixed-bucket
histogram snapshots in :mod:`repro.telemetry.registry` both resolve ranks
through :func:`nearest_rank`, so a p99 printed from a simulated trace
and a p99 scraped from a live node mean exactly the same thing.

It deliberately imports nothing from the rest of the package (no sim, no
runtime) so every layer can depend on it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of a latency sample (seconds, simulated or wall)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        """Summary of an empty sample (all zeros)."""
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0,
                   minimum=0.0, maximum=0.0)

    def to_dict(self) -> dict:
        """JSON-ready rendering (the scrape and report paths share it)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }


def nearest_rank(count: int, fraction: float) -> int:
    """Zero-based nearest-rank index of the ``fraction`` percentile.

    The one rank formula behind every percentile in the repository:
    ``percentile`` indexes a sorted sample with it and the histogram
    snapshots walk cumulative bucket counts with it.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    return max(0, math.ceil(fraction * count) - 1)


def percentile(sorted_sample: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not sorted_sample:
        return 0.0
    return sorted_sample[nearest_rank(len(sorted_sample), fraction)]


def summarize_latencies(latencies: Sequence[float]) -> LatencySummary:
    """Summarize a latency sample."""
    if not latencies:
        return LatencySummary.empty()
    ordered = sorted(latencies)
    return LatencySummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        minimum=ordered[0],
        maximum=ordered[-1],
    )


def bucket_percentile(bounds: Sequence[float], counts: Sequence[int],
                      fraction: float, maximum: float) -> float:
    """Nearest-rank percentile estimated from fixed histogram buckets.

    ``counts`` has one entry per bound plus a final overflow bucket.  The
    estimate is the upper bound of the bucket holding the rank (clamped
    by the exact observed ``maximum``, which the histogram tracks), so it
    errs upward by at most one bucket width -- good enough for p50/p95/p99
    reporting without retaining every sample.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = nearest_rank(total, fraction)
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative > rank:
            return min(bound, maximum)
    return maximum  # rank fell in the overflow bucket


def summarize_buckets(bounds: Sequence[float], counts: Sequence[int],
                      total: float, minimum: float,
                      maximum: float) -> LatencySummary:
    """A :class:`LatencySummary` built from a histogram snapshot.

    Count, mean, min and max are exact (the histogram tracks them);
    the percentiles come from :func:`bucket_percentile`.
    """
    count = sum(counts)
    if count == 0:
        return LatencySummary.empty()
    return LatencySummary(
        count=count,
        mean=total / count,
        p50=bucket_percentile(bounds, counts, 0.50, maximum),
        p95=bucket_percentile(bounds, counts, 0.95, maximum),
        p99=bucket_percentile(bounds, counts, 0.99, maximum),
        minimum=minimum,
        maximum=maximum,
    )
