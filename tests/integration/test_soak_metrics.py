"""Soak results expose live histograms, not just the post-hoc trace."""

import asyncio

from repro.chaos.soak import run_soak


def run(coro):
    return asyncio.run(coro)


def test_soak_result_carries_live_histograms():
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="none", ops=12, read_ratio=0.5,
        seed=5, start=0.2, period=0.4, timeout=10.0,
    ))
    assert result.errors == []

    # The raw registry snapshot rode back with the result.
    histogram_names = {h["name"] for h in result.metrics["histograms"]}
    assert "client_op_seconds" in histogram_names
    assert "client_phase_seconds" in histogram_names
    assert "node_phase_seconds" in histogram_names

    # latency_summary() keeps its Dict[op, OperationSummary] shape but the
    # latencies now come from the histograms: counts match the trace.
    summary = result.latency_summary()
    assert summary["read"].latency.count == len(result.trace.reads())
    assert summary["write"].latency.count == len(
        result.trace.writes(completed_only=True))
    assert summary["read"].latency.p99 > 0
    assert summary["write"].latency.p99 > 0

    # Per-phase breakdown distinguishes the paper's rounds.
    phases = result.phase_summary()
    assert set(phases["write"]) == {"get-tag", "put-data"}
    assert set(phases["read"]) == {"get-data"}
    writes = len(result.trace.writes(completed_only=True))
    assert phases["write"]["get-tag"].count == writes
    assert phases["write"]["put-data"].count == writes

    # A fault-free soak finishes every operation cleanly.
    outcomes = result.outcome_counts()
    assert outcomes["write"] == {"ok": writes}
    assert sum(outcomes["read"].values()) == 12 - writes


def test_soak_outcomes_count_retries_under_chaos():
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="crash-restart", ops=10,
        read_ratio=0.5, seed=21, start=0.2, period=0.4, timeout=10.0,
    ))
    assert result.errors == []
    outcomes = result.outcome_counts()
    # Every completed operation shows up under a known outcome label;
    # whether a crash lands mid-operation (-> "retried") is timing
    # dependent, so only the totals are asserted.
    finished = sum(count for per_op in outcomes.values()
                   for count in per_op.values())
    assert finished == result.ops_completed
    labels = {label for per_op in outcomes.values() for label in per_op}
    assert labels <= {"ok", "retried", "throttled"}
    # The crashes really severed connections: clients had to heal.
    reconnects = sum(stats.get("reconnects", 0)
                     for stats in result.client_stats.values())
    assert reconnects > 0


def test_soak_timeseries_sidecar_appends_windowed_snapshots(tmp_path):
    from repro.obs import read_snapshot_log

    path = str(tmp_path / "soak-series.jsonl")
    result = run(run_soak(
        algorithm="bsr", f=1, schedule="none", ops=10, read_ratio=0.5,
        seed=7, start=0.2, period=0.4, timeout=10.0,
        timeseries_path=path, timeseries_interval=0.2,
    ))
    assert result.errors == []
    records = read_snapshot_log(path, windows=True)
    assert records, "the soak appended no snapshots"
    assert all(r["schedule"] == "none" for r in records)
    # At least one window saw traffic, and windowed entries summarize
    # to percentiles at read time.
    summaries = [entry["summary"]
                 for record in records
                 for entry in record.get("window", {}).get("histograms", ())
                 if entry["name"] == "client_op_seconds"]
    assert summaries
    assert all(s["count"] > 0 for s in summaries)
    assert any(s["p99"] > 0 for s in summaries)
    # Windows partition the run: their counts sum to the ops completed.
    total = sum(s["count"] for s in summaries)
    assert total == result.ops_completed
