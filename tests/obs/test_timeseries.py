"""Snapshot aggregation and the JSON-lines time-series sidecar."""

import io
import json

import pytest

from repro.obs import (
    MetricRegistry,
    SnapshotLog,
    aggregate_histograms,
    iter_snapshot_log,
    merge_registry_snapshots,
    read_snapshot_log,
)
from repro.telemetry.stats import bucket_percentile


def _worker_registry(values, ops=1):
    registry = MetricRegistry()
    registry.counter("ops_total", op="read").inc(ops)
    registry.gauge("backlog").set(len(values))
    hist = registry.histogram("op_seconds", op="read")
    for value in values:
        hist.observe(value)
    return registry


# -- merge_registry_snapshots ----------------------------------------------

def test_merge_folds_counters_and_gauges_by_identity():
    merged = merge_registry_snapshots([
        _worker_registry([0.1], ops=3).snapshot(),
        _worker_registry([0.2], ops=4).snapshot(),
    ])
    [counter] = [c for c in merged["counters"] if c["name"] == "ops_total"]
    assert counter["value"] == 7
    assert counter["labels"] == {"op": "read"}
    [gauge] = merged["gauges"]
    assert gauge["value"] == 2  # gauges sum too (backlogs add up)


def test_merged_histogram_equals_single_registry_of_all_samples():
    """Percentiles from the merged histogram match a single registry
    that observed every worker's samples -- aggregation, not averaging."""
    worker_a = [0.010, 0.020, 0.500]
    worker_b = [0.001, 0.250]
    merged = merge_registry_snapshots([
        _worker_registry(worker_a).snapshot(),
        _worker_registry(worker_b).snapshot(),
    ])
    oracle = _worker_registry(worker_a + worker_b).snapshot()
    [got] = merged["histograms"]
    [want] = oracle["histograms"]
    assert got["counts"] == list(want["counts"])
    assert got["sum"] == pytest.approx(want["sum"])
    assert got["min"] == want["min"] == 0.001
    assert got["max"] == want["max"] == 0.500
    for fraction in (0.5, 0.99):
        assert (bucket_percentile(got["buckets"], got["counts"], fraction,
                                  got["max"])
                == bucket_percentile(want["buckets"], list(want["counts"]),
                                     fraction, want["max"]))


def test_merge_adopts_extrema_from_first_non_empty_histogram():
    empty = _worker_registry([]).snapshot()
    filled = _worker_registry([0.3]).snapshot()
    [entry] = merge_registry_snapshots([empty, filled])["histograms"]
    assert entry["min"] == 0.3 and entry["max"] == 0.3


def test_merge_rejects_mismatched_bucket_bounds():
    registry = MetricRegistry()
    registry.histogram("op_seconds", op="read",
                       buckets=(1.0, 2.0)).observe(0.5)
    with pytest.raises(ValueError):
        merge_registry_snapshots([
            _worker_registry([0.1]).snapshot(), registry.snapshot()])


def test_merge_keeps_distinct_labels_apart():
    registry = MetricRegistry()
    registry.counter("ops_total", op="read").inc(1)
    registry.counter("ops_total", op="write").inc(2)
    merged = merge_registry_snapshots([registry.snapshot(),
                                       registry.snapshot()])
    by_op = {c["labels"]["op"]: c["value"] for c in merged["counters"]}
    assert by_op == {"read": 2, "write": 4}


# -- aggregate_histograms ---------------------------------------------------

def test_aggregate_histograms_folds_subset_label_matches():
    registry = MetricRegistry()
    registry.histogram("op_seconds", op="read", window="measure").observe(0.1)
    registry.histogram("op_seconds", op="write",
                       window="measure").observe(0.2)
    registry.histogram("op_seconds", op="read", window="warmup").observe(9.0)
    snapshot = registry.snapshot()
    folded = aggregate_histograms(snapshot, "op_seconds", window="measure")
    assert sum(folded["counts"]) == 2
    assert folded["max"] == 0.2          # warmup's 9.0 excluded
    reads = aggregate_histograms(snapshot, "op_seconds", op="read",
                                 window="measure")
    assert sum(reads["counts"]) == 1
    assert aggregate_histograms(snapshot, "nope") is None


# -- SnapshotLog ------------------------------------------------------------

def test_snapshot_log_round_trips_through_a_file(tmp_path):
    path = str(tmp_path / "series.jsonl")
    registry = _worker_registry([0.1])
    with SnapshotLog(path) as log:
        log.append(registry.snapshot(), ts=100.0)
        log.append(registry.snapshot(), ts=101.0, extra={"worker": 3})
        assert log.lines == 2
    # Append mode: a second run extends the series.
    with SnapshotLog(path) as log:
        log.append(registry.snapshot(), ts=102.0)
    records = read_snapshot_log(path)
    assert [r["ts"] for r in records] == [100.0, 101.0, 102.0]
    assert records[1]["worker"] == 3
    assert records[0]["snapshot"]["counters"]
    assert list(iter_snapshot_log(path))[2]["ts"] == 102.0


def test_snapshot_log_leaves_caller_streams_open():
    stream = io.StringIO()
    log = SnapshotLog(stream)
    log.append({"counters": []}, ts=5.0)
    log.close()
    assert not stream.closed
    record = json.loads(stream.getvalue())
    assert record["ts"] == 5.0


# -- partial scrapes ---------------------------------------------------------

def test_merge_registry_snapshots_of_nothing_is_empty():
    merged = merge_registry_snapshots([])
    assert merged["counters"] == []
    assert merged["histograms"] == []


def test_merge_tolerates_empty_and_missing_sections():
    """A partially-scraped cluster mixes full snapshots with empty ones
    (node just restarted) and ones missing whole sections."""
    merged = merge_registry_snapshots([
        _worker_registry([0.1], ops=2).snapshot(),
        {"namespace": "repro", "counters": [], "gauges": [],
         "histograms": []},
        {"namespace": "repro"},  # no sections at all
    ])
    [counter] = [c for c in merged["counters"] if c["name"] == "ops_total"]
    assert counter["value"] == 2
    [hist] = merged["histograms"]
    assert sum(hist["counts"]) == 1


def test_merge_missing_node_keeps_remaining_series_intact():
    """Dropping one node's snapshot (scrape timeout) only loses that
    node's series -- per-node labels keep entries disjoint."""
    def node_snapshot(node, frames):
        registry = MetricRegistry()
        registry.counter("node_frames_total", node=node).inc(frames)
        return registry.snapshot()

    full = merge_registry_snapshots(
        [node_snapshot("s000", 5), node_snapshot("s001", 7)])
    partial = merge_registry_snapshots([node_snapshot("s000", 5)])
    by_node = {c["labels"]["node"]: c["value"] for c in full["counters"]}
    assert by_node == {"s000": 5, "s001": 7}
    [survivor] = partial["counters"]
    assert survivor["labels"]["node"] == "s000"
    assert survivor["value"] == 5


def test_aggregate_histograms_skips_snapshots_without_histograms():
    assert aggregate_histograms({}, "op_seconds") is None
    assert aggregate_histograms({"histograms": []}, "op_seconds") is None


# -- rotation ----------------------------------------------------------------

def _fill(log, count, start=0.0):
    for i in range(count):
        log.append({"counters": [{"name": "x", "labels": {},
                                  "value": i}]}, ts=start + i)


def test_rotation_rolls_segments_and_reads_across_them(tmp_path):
    import os

    path = str(tmp_path / "series.jsonl")
    with SnapshotLog(path, max_bytes=200, keep=3) as log:
        _fill(log, 12)
    assert os.path.exists(path + ".1")
    records = read_snapshot_log(path)
    # Oldest segments beyond ``keep`` were dropped, order is preserved.
    stamps = [r["ts"] for r in records]
    assert stamps == sorted(stamps)
    assert stamps[-1] == 11.0
    assert len(records) < 12
    assert not os.path.exists(path + ".4")


def test_rotation_never_splits_a_record(tmp_path):
    path = str(tmp_path / "series.jsonl")
    with SnapshotLog(path, max_bytes=120, keep=2) as log:
        _fill(log, 8)
    for segment in [path, path + ".1", path + ".2"]:
        with open(segment) as fh:
            for line in fh:
                json.loads(line)  # every line is complete JSON


def test_rotation_requires_a_path_target():
    with pytest.raises(ValueError):
        SnapshotLog(io.StringIO(), max_bytes=100)


def test_rotation_validates_limits(tmp_path):
    path = str(tmp_path / "series.jsonl")
    with pytest.raises(ValueError):
        SnapshotLog(path, max_bytes=0)
    with pytest.raises(ValueError):
        SnapshotLog(path, keep=0)


def test_reading_a_missing_log_yields_nothing(tmp_path):
    assert read_snapshot_log(str(tmp_path / "absent.jsonl")) == []


# -- windowed percentile deltas ----------------------------------------------

def test_windows_store_deltas_and_summaries_come_at_read_time(tmp_path):
    path = str(tmp_path / "series.jsonl")
    registry = _worker_registry([0.010, 0.020])
    with SnapshotLog(path, windows=True) as log:
        log.append(registry.snapshot(), ts=1.0)
        registry.histogram("op_seconds", op="read").observe(0.500)
        log.append(registry.snapshot(), ts=2.0)
        log.append(registry.snapshot(), ts=3.0)  # quiet interval
    first, second, third = read_snapshot_log(path, windows=True)
    # First window = the whole cumulative state (first sight).
    [w1] = first["window"]["histograms"]
    assert sum(w1["counts"]) == 2
    # Second window = just the one new observation.
    [w2] = second["window"]["histograms"]
    assert sum(w2["counts"]) == 1
    assert w2["summary"]["count"] == 1
    assert w2["summary"]["p50"] >= 0.25  # the 0.5s sample, bucketed
    assert {"count", "mean", "p50", "p99", "p999"} <= set(w2["summary"])
    # Quiet interval: zero-delta windows are not stored.
    assert "window" not in third


def test_windows_adopt_fresh_counts_after_counter_reset(tmp_path):
    path = str(tmp_path / "series.jsonl")
    with SnapshotLog(path, windows=True) as log:
        log.append(_worker_registry([0.1, 0.2, 0.3]).snapshot(), ts=1.0)
        # Restarted process: cumulative counts shrink.
        log.append(_worker_registry([0.1]).snapshot(), ts=2.0)
    _, after_reset = read_snapshot_log(path, windows=True)
    [window] = after_reset["window"]["histograms"]
    assert sum(window["counts"]) == 1  # fresh totals, not negative deltas


def test_windows_keep_interleaved_series_apart(tmp_path):
    """Per-worker appends interleave; each ``extra`` keys its own
    baseline so worker A's delta never subtracts worker B's counts."""
    path = str(tmp_path / "series.jsonl")
    worker_a = _worker_registry([0.1])
    worker_b = _worker_registry([0.1, 0.2])
    with SnapshotLog(path, windows=True) as log:
        log.append(worker_a.snapshot(), ts=1.0, extra={"worker": 0})
        log.append(worker_b.snapshot(), ts=1.1, extra={"worker": 1})
        worker_a.histogram("op_seconds", op="read").observe(0.3)
        log.append(worker_a.snapshot(), ts=2.0, extra={"worker": 0})
    records = read_snapshot_log(path, windows=True)
    [w] = records[2]["window"]["histograms"]
    assert sum(w["counts"]) == 1  # only worker A's new sample


def test_window_summary_handles_degenerate_entries():
    from repro.obs import window_summary

    empty = {"name": "x", "labels": {}, "buckets": [1.0], "counts": [0, 0],
             "sum": 0.0, "max": 0.0}
    summary = window_summary(empty)
    assert summary["count"] == 0 and summary["mean"] == 0.0
