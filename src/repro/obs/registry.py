"""A thread/asyncio-safe metric registry for the live runtime.

Every live component (client, node, proxy, nemesis, supervisor) records
its counters, gauges and fixed-bucket histograms into a
:class:`MetricRegistry`.  A registry serializes to a plain-JSON snapshot
(the :class:`~repro.core.messages.StatsAck` payload nodes answer scrapes
with) and renders to Prometheus text exposition; histogram snapshots
summarize to the same :class:`~repro.obs.stats.LatencySummary` the
simulator's trace metrics use, so live and simulated numbers flow
through one report path.

Metrics are identified by ``(name, labels)``.  Registration is
idempotent: asking for an existing metric returns it, so call sites can
``registry.counter("frames_total", node="s000").inc()`` on the hot path
-- though components that care pre-resolve their metrics once.  All
mutation happens under a per-registry lock; the operations are tiny
(float adds, one bisect for histograms), so contention is negligible at
the runtime's frame rates.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.stats import LatencySummary, summarize_buckets

#: Default histogram bounds (seconds): sub-millisecond to tens of seconds,
#: roughly logarithmic -- sized for op/phase latencies on localhost and
#: LAN deployments alike.  A final overflow bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Dict[str, str]) -> LabelPairs:
    if len(labels) < 2:
        # Hot path: most metrics carry zero or one label, where sorting
        # is a no-op by definition.
        return tuple((str(k), str(v)) for k, v in labels.items())
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format requires escaping inside quoted label values; anything else
    passes through verbatim.  Hostile register names (a key is
    client-chosen) surface in per-key table metrics, so this is a
    correctness fix, not cosmetics.
    """
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(pairs: LabelPairs, extra: str = "") -> str:
    parts = [f'{key}="{_escape_label_value(value)}"' for key, value in pairs]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (live connections, queue depth)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in an implicit overflow bucket whose percentile
    estimate is the exact observed maximum.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, labels: LabelPairs,
                 bounds: Sequence[float], lock: threading.Lock) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be ascending and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._counts[bisect_left(self.bounds, value)] += 1
            self._count += 1
            self._sum += value
            if self._count == 1 or value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    def summary(self) -> LatencySummary:
        """A :class:`LatencySummary` estimated from the buckets."""
        with self._lock:
            return summarize_buckets(self.bounds, self._counts, self._sum,
                                     self._min, self._max)

    def snapshot(self) -> Dict:
        with self._lock:
            return {
                "buckets": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


class MetricRegistry:
    """Create-once, mutate-often store of counters, gauges and histograms."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}

    # -- registration ------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_pairs(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = Counter(name, key[1], self._lock)
                self._counters[key] = metric
            return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_pairs(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = Gauge(name, key[1], self._lock)
                self._gauges[key] = metric
            return metric

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_pairs(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = Histogram(name, key[1], buckets, self._lock)
                self._histograms[key] = metric
            return metric

    # -- read access -------------------------------------------------------
    def counter_value(self, name: str, **labels: str) -> float:
        """Current value, 0.0 when the counter was never created."""
        metric = self._counters.get((name, _label_pairs(labels)))
        return metric.value if metric is not None else 0.0

    def sum_counters(self, name: str) -> float:
        """Sum of ``name`` across every label set."""
        return sum(metric.value for (n, _), metric in self._counters.items()
                   if n == name)

    def histograms_named(self, name: str) -> List[Histogram]:
        """Every histogram registered under ``name`` (any labels)."""
        return [metric for (n, _), metric in self._histograms.items()
                if n == name]

    # -- exposition --------------------------------------------------------
    def snapshot(self) -> Dict:
        """Plain-JSON rendering of every metric (the scrape payload)."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(pairs), "value": metric._value}
                for (name, pairs), metric in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(pairs), "value": metric._value}
                for (name, pairs), metric in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": name,
                    "labels": dict(pairs),
                    "buckets": list(metric.bounds),
                    "counts": list(metric._counts),
                    "sum": metric._sum,
                    "min": metric._min,
                    "max": metric._max,
                }
                for (name, pairs), metric in sorted(self._histograms.items())
            ]
        return {"namespace": self.namespace, "counters": counters,
                "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return render_prometheus(self.snapshot())


def summarize_histogram_snapshot(entry: Dict) -> LatencySummary:
    """A :class:`LatencySummary` from one snapshot histogram entry."""
    return summarize_buckets(entry["buckets"], entry["counts"], entry["sum"],
                             entry["min"], entry["max"])


def merge_snapshots(snapshots: Iterable[Dict],
                    namespace: str = "repro") -> Dict:
    """Concatenate several snapshots into one document.

    Entries are kept verbatim -- scraped components already distinguish
    themselves through labels (``node=...``, ``client=...``), so merging
    is pure concatenation, not aggregation.
    """
    merged = {"namespace": namespace, "counters": [], "gauges": [],
              "histograms": []}
    for snapshot in snapshots:
        for kind in ("counters", "gauges", "histograms"):
            merged[kind].extend(snapshot.get(kind, ()))
    return merged


def merge_registry_snapshots(snapshots: Iterable[Dict],
                             namespace: str = "repro") -> Dict:
    """*Aggregate* several snapshots into one (same-metric entries fold).

    Unlike :func:`merge_snapshots` (pure concatenation for components
    that already distinguish themselves by label), this is the merge the
    load rig's coordinator applies to per-worker registries shipped over
    IPC: entries with the same ``(name, labels)`` are combined --
    counters and gauges sum, histograms add bucket-wise (their bounds
    must agree; mismatched bounds raise ``ValueError`` rather than
    silently mixing scales).  Min/max/sum stay exact across the fold, so
    a percentile computed from the merged histogram equals one computed
    from a single registry that had observed every worker's samples.
    """
    counters: Dict[Tuple[str, LabelPairs], float] = {}
    gauges: Dict[Tuple[str, LabelPairs], float] = {}
    histograms: Dict[Tuple[str, LabelPairs], Dict] = {}
    for snapshot in snapshots:
        for entry in snapshot.get("counters", ()):
            key = (entry["name"], _label_pairs(entry.get("labels", {})))
            counters[key] = counters.get(key, 0.0) + float(entry["value"])
        for entry in snapshot.get("gauges", ()):
            key = (entry["name"], _label_pairs(entry.get("labels", {})))
            gauges[key] = gauges.get(key, 0.0) + float(entry["value"])
        for entry in snapshot.get("histograms", ()):
            key = (entry["name"], _label_pairs(entry.get("labels", {})))
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "buckets": list(entry["buckets"]),
                    "counts": list(entry["counts"]),
                    "sum": float(entry["sum"]),
                    "min": entry["min"],
                    "max": entry["max"],
                }
                continue
            if list(entry["buckets"]) != merged["buckets"]:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds differ "
                    f"across snapshots; cannot merge")
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], entry["counts"])]
            merged["sum"] += float(entry["sum"])
            if sum(entry["counts"]):
                if sum(merged["counts"]) == sum(entry["counts"]):
                    # The accumulator was empty so far: adopt the
                    # entry's extrema instead of comparing with zeros.
                    merged["min"], merged["max"] = entry["min"], entry["max"]
                else:
                    merged["min"] = min(merged["min"], entry["min"])
                    merged["max"] = max(merged["max"], entry["max"])
    return {
        "namespace": namespace,
        "counters": [{"name": name, "labels": dict(pairs), "value": value}
                     for (name, pairs), value in sorted(counters.items())],
        "gauges": [{"name": name, "labels": dict(pairs), "value": value}
                   for (name, pairs), value in sorted(gauges.items())],
        "histograms": [{"name": name, "labels": dict(pairs), **body}
                       for (name, pairs), body in sorted(histograms.items())],
    }


def counter_sum(snapshot: Dict, name: str, **labels: str) -> float:
    """Sum every ``name`` counter matching ``labels`` (a subset match,
    as in :func:`aggregate_histograms`)."""
    total = 0.0
    for entry in snapshot.get("counters", ()):
        if (entry.get("name") == name
                and all(entry.get("labels", {}).get(k) == v
                        for k, v in labels.items())):
            total += float(entry["value"])
    return total


def aggregate_histograms(snapshot: Dict, name: str,
                         **labels: str) -> Optional[Dict]:
    """Fold every ``name`` histogram matching ``labels`` into one entry.

    ``labels`` is a *subset* match: an entry qualifies when every given
    pair appears among its labels, whatever else it carries (the worker
    / op labels the load rig adds).  Returns one snapshot-shaped entry
    (labels = the filter) or ``None`` when nothing matched.
    """
    wanted = [entry for entry in snapshot.get("histograms", ())
              if entry.get("name") == name
              and all(entry.get("labels", {}).get(k) == v
                      for k, v in labels.items())]
    if not wanted:
        return None
    merged = merge_registry_snapshots(
        [{"histograms": [dict(entry, labels=labels)]} for entry in wanted])
    return merged["histograms"][0]


def render_prometheus(snapshot: Dict) -> str:
    """Prometheus text format from a :meth:`MetricRegistry.snapshot` dict.

    Works on snapshots as well as live registries so the CLI can render
    metrics it scraped from remote nodes.
    """
    namespace = snapshot.get("namespace", "repro")
    lines: List[str] = []
    seen_types: set = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {namespace}_{name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = entry["name"]
        type_line(name, "counter")
        pairs = _label_pairs(entry.get("labels", {}))
        lines.append(f"{namespace}_{name}{_render_labels(pairs)} "
                     f"{_format_value(entry['value'])}")
    for entry in snapshot.get("gauges", ()):
        name = entry["name"]
        type_line(name, "gauge")
        pairs = _label_pairs(entry.get("labels", {}))
        lines.append(f"{namespace}_{name}{_render_labels(pairs)} "
                     f"{_format_value(entry['value'])}")
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        type_line(name, "histogram")
        pairs = _label_pairs(entry.get("labels", {}))
        cumulative = 0
        for bound, count in zip(entry["buckets"], entry["counts"]):
            cumulative += count
            le = _render_labels(pairs, f'le="{_format_value(bound)}"')
            lines.append(f"{namespace}_{name}_bucket{le} {cumulative}")
        cumulative += entry["counts"][len(entry["buckets"])]
        le = _render_labels(pairs, 'le="+Inf"')
        lines.append(f"{namespace}_{name}_bucket{le} {cumulative}")
        lines.append(f"{namespace}_{name}_sum{_render_labels(pairs)} "
                     f"{_format_value(entry['sum'])}")
        lines.append(f"{namespace}_{name}_count{_render_labels(pairs)} "
                     f"{cumulative}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
