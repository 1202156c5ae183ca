"""Runtime observability: metrics, tracing, stitching, export, flood control.

The paper's headline numbers are *round-trip counts* -- one-round BSR
reads versus two-round writes (``get-tag`` + ``put-data``), one-shot
coded BCSR reads -- and this package is how the live runtime shows them:

* :class:`MetricRegistry` -- thread/asyncio-safe counters, gauges and
  fixed-bucket histograms, snapshotting to plain JSON (the ``StatsPing``
  scrape payload) and Prometheus text exposition.  Histogram snapshots
  summarize to the same :class:`LatencySummary` the simulator's trace
  metrics use, so simulated and live numbers render through one path.
* :class:`OpTracer` / :class:`OpSpan` -- per-operation spans with
  per-phase timing, per-server reply latency and the quorum-wait
  breakdown (time to ``f + 1`` witnesses vs ``n - f`` replies), emitted
  as JSONL through pluggable sinks (:class:`SamplingSink` thins them by
  deterministic op_id modulus).
* :class:`FlightRecorder` / :mod:`repro.obs.stitch` -- the server-side
  halves of those spans (recv/queue/service per frame, scraped over
  ``TraceDump``) and the joiner that stitches both sides into one
  causal timeline per operation.
* :class:`~repro.obs.httpd.MetricsExporter` -- a stdlib HTTP sidecar
  serving merged Prometheus text (``/metrics``), JSON snapshots and
  per-op traces.  Not re-exported: it loads ``http.server``, which only
  a process that serves HTTP should pay for.
* :class:`SnapshotLog` -- the JSONL time-series sidecar, with
  size-based rotation and per-window percentile deltas.
* :class:`LogGate` -- per-reason rate limiting on warnings so a
  Byzantine peer cannot turn logging into a denial of service.
* :mod:`repro.telemetry.stats` -- the single nearest-rank percentile
  implementation everything summarizes with.

The recording half -- registry, stats, flight recorder, tracing, log
gate -- lives in :mod:`repro.telemetry`, which a node process imports
without this package's analysis half; every public name is re-exported
here.  The package imports nothing else from the repository, so every
layer -- transport, runtime, chaos, deploy -- can depend on it without
cycles.
"""

from repro.obs.stitch import (
    StitchedOp,
    format_timeline,
    slowest,
    stitch,
    stitch_op,
)
from repro.obs.timeseries import (
    SnapshotLog,
    iter_snapshot_log,
    read_snapshot_log,
    window_summary,
)
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.loglimit import LogGate
from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    aggregate_histograms,
    counter_sum,
    merge_registry_snapshots,
    merge_snapshots,
    render_prometheus,
    summarize_histogram_snapshot,
)
from repro.telemetry.stats import (
    LatencySummary,
    bucket_percentile,
    nearest_rank,
    percentile,
    summarize_buckets,
    summarize_latencies,
)
from repro.telemetry.phases import (
    PHASE_BY_MESSAGE,
    phase_name,
    register_phase_names,
)
from repro.telemetry.tracing import (
    JsonlSink,
    MemorySink,
    NullSink,
    OpSpan,
    OpTracer,
    SamplingSink,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "LatencySummary",
    "LogGate",
    "MemorySink",
    "MetricRegistry",
    "NullSink",
    "OpSpan",
    "OpTracer",
    "PHASE_BY_MESSAGE",
    "SamplingSink",
    "register_phase_names",
    "SnapshotLog",
    "StitchedOp",
    "aggregate_histograms",
    "bucket_percentile",
    "counter_sum",
    "format_timeline",
    "iter_snapshot_log",
    "merge_registry_snapshots",
    "merge_snapshots",
    "nearest_rank",
    "percentile",
    "phase_name",
    "read_snapshot_log",
    "render_prometheus",
    "slowest",
    "stitch",
    "stitch_op",
    "summarize_buckets",
    "summarize_histogram_snapshot",
    "summarize_latencies",
    "window_summary",
]
