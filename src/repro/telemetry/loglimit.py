"""Rate-limited warnings: a Byzantine peer must not own your log volume.

A node facing a peer that spews garbage frames would otherwise emit one
``logger.warning`` per frame -- megabytes a second of log I/O that is
itself a denial of service.  :class:`LogGate` wraps a logger with one
token bucket *per reason*: the first few warnings of each kind get
through (you still see that something is wrong and what), the flood is
swallowed, and every suppressed line is counted in the metric registry
(``log_suppressed_total{reason=...}``) so the volume of abuse stays
measurable even though it is no longer printed.

The bucket is self-contained (no import of :mod:`repro.node.limits`)
because the runtime imports this package -- observability sits below
everything else in the dependency order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.telemetry.registry import MetricRegistry


class _Bucket:
    """Minimal refill-at-rate token bucket (monotonic clock)."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now

    def allow(self, now: float) -> bool:
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class LogGate:
    """Per-reason rate limit in front of ``logger.warning``.

    ``rate`` warnings/second (burst ``burst``) pass through per reason;
    the rest increment ``log_suppressed_total{component=..., reason=...}``
    in ``registry``.  Suppression announces itself once per dry spell --
    the first swallowed line of a burst logs a single "suppressing
    further ..." marker so readers know the gate closed.
    """

    def __init__(self, logger, registry: Optional[MetricRegistry] = None,
                 component: str = "", rate: float = 1.0, burst: float = 5.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self._logger = logger
        self._registry = registry
        self.component = str(component)
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._buckets: Dict[str, _Bucket] = {}
        self._suppressing: Dict[str, bool] = {}

    def suppressed(self, reason: str) -> int:
        """How many warnings of ``reason`` were swallowed so far."""
        if self._registry is None:
            return 0
        return int(self._registry.counter_value(
            "log_suppressed_total", component=self.component, reason=reason))

    def warning(self, reason: str, message: str, *args) -> bool:
        """Log unless ``reason`` is over budget; returns True when logged."""
        now = self._clock()
        bucket = self._buckets.get(reason)
        if bucket is None:
            bucket = _Bucket(self.rate, self.burst, now)
            self._buckets[reason] = bucket
        if bucket.allow(now):
            self._suppressing[reason] = False
            self._logger.warning(message, *args)
            return True
        if not self._suppressing.get(reason):
            self._suppressing[reason] = True
            self._logger.warning(
                "%s: suppressing further %r warnings (rate limit %g/s; "
                "see log_suppressed_total)", self.component or "log",
                reason, self.rate)
        if self._registry is not None:
            self._registry.counter("log_suppressed_total",
                                   component=self.component,
                                   reason=reason).inc()
        return False
