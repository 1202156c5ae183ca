"""MetricRegistry: counters, gauges, histograms, snapshots, exposition."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricRegistry,
    merge_snapshots,
    render_prometheus,
    summarize_histogram_snapshot,
)
from repro.telemetry.stats import (
    bucket_percentile,
    nearest_rank,
    percentile,
    summarize_latencies,
)


# -- shared order statistics ------------------------------------------------

def test_nearest_rank_matches_list_percentile():
    sample = sorted([0.4, 0.1, 0.9, 0.2, 0.7])
    assert percentile(sample, 0.5) == 0.4
    assert percentile(sample, 0.99) == 0.9
    assert nearest_rank(5, 0.5) == 2
    with pytest.raises(ValueError):
        nearest_rank(5, 1.5)


def test_summarize_latencies_empty_and_filled():
    empty = summarize_latencies([])
    assert empty.count == 0 and empty.p99 == 0.0
    summary = summarize_latencies([0.1, 0.2, 0.3, 0.4])
    assert summary.count == 4
    assert summary.mean == pytest.approx(0.25)
    assert summary.minimum == 0.1 and summary.maximum == 0.4


def test_bucket_percentile_clamps_to_observed_maximum():
    bounds = (0.1, 1.0)
    # 3 observations in the first bucket, 1 in overflow; max seen 1.7.
    assert bucket_percentile(bounds, [3, 0, 1], 0.5, maximum=0.07) == 0.07
    assert bucket_percentile(bounds, [3, 0, 1], 0.99, maximum=1.7) == 1.7


# -- registry ----------------------------------------------------------------

def test_counter_and_gauge_basics():
    registry = MetricRegistry()
    counter = registry.counter("frames_total", node="s000")
    counter.inc()
    counter.inc(2)
    assert registry.counter("frames_total", node="s000") is counter
    assert registry.counter_value("frames_total", node="s000") == 3
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = registry.gauge("connections", node="s000")
    gauge.set(4)
    gauge.dec()
    assert gauge.value == 3


def test_histogram_summary_tracks_exact_extremes():
    registry = MetricRegistry()
    histogram = registry.histogram("lat", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.02, 0.02, 0.5, 3.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary.count == 5
    assert summary.minimum == 0.005
    assert summary.maximum == 3.0  # overflow bucket reports the exact max
    assert summary.mean == pytest.approx(sum((0.005, 0.02, 0.02, 0.5, 3.0)) / 5)
    assert summary.p99 == 3.0
    assert summary.p50 <= 0.1  # bucket upper bound containing the median


def test_snapshot_is_json_serializable_and_complete():
    registry = MetricRegistry()
    registry.counter("ops_total", op="read").inc()
    registry.gauge("depth").set(2)
    registry.histogram("lat", op="read").observe(0.02)
    snapshot = registry.snapshot()
    parsed = json.loads(json.dumps(snapshot))
    assert parsed["namespace"] == "repro"
    assert parsed["counters"][0] == {
        "name": "ops_total", "labels": {"op": "read"}, "value": 1}
    [histogram] = parsed["histograms"]
    assert histogram["buckets"] == list(DEFAULT_LATENCY_BUCKETS)
    assert sum(histogram["counts"]) == 1
    assert summarize_histogram_snapshot(histogram).count == 1


def test_prometheus_rendering_cumulative_buckets():
    registry = MetricRegistry()
    registry.counter("ops_total", op="read", outcome="ok").inc(7)
    histogram = registry.histogram("lat", buckets=(0.1, 1.0))
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    text = registry.to_prometheus()
    assert '# TYPE repro_ops_total counter' in text
    assert 'repro_ops_total{op="read",outcome="ok"} 7' in text
    assert 'repro_lat_bucket{le="0.1"} 1' in text
    assert 'repro_lat_bucket{le="1"} 2' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert 'repro_lat_count 3' in text
    # Render from a round-tripped snapshot too (the scrape path).
    assert render_prometheus(json.loads(json.dumps(registry.snapshot()))) == text


def test_merge_snapshots_concatenates():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("frames_total", node="s000").inc()
    b.counter("frames_total", node="s001").inc(2)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    values = {entry["labels"]["node"]: entry["value"]
              for entry in merged["counters"]}
    assert values == {"s000": 1, "s001": 2}


def test_prometheus_escapes_adversarial_label_values():
    """Label values are attacker-influenced (key names, client ids); the
    exposition must escape backslashes, quotes and newlines per the
    Prometheus text format or one hostile key corrupts the whole page."""
    registry = MetricRegistry()
    registry.counter("ops_total", key='evil"} repro_fake 1 #').inc()
    registry.counter("ops_total", key="back\\slash").inc(2)
    registry.counter("ops_total", key="multi\nline").inc(3)
    text = registry.to_prometheus()
    assert 'key="evil\\"} repro_fake 1 #"' in text
    assert 'key="back\\\\slash"' in text
    assert 'key="multi\\nline"' in text
    # No raw newline smuggled into the middle of a sample line: every
    # non-comment line still parses as `name{labels} value`.
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert line.rstrip().rsplit(" ", 1)[1].replace(".", "").isdigit()
