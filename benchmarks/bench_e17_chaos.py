"""E17 -- Operation latency under runtime fault injection.

Runs the same mixed read/write workload on a live TCP cluster under each
named nemesis schedule and compares latency and throughput against the
fault-free baseline (schedule ``none``).  The claim under test is the
runtime analogue of Lemma 6: because clients only ever wait for ``n - f``
replies, a schedule that keeps ``n - f`` servers reachable costs
availability nothing -- every operation completes, safety verdicts stay
clean, and the latency tax of crash-restarts and rolling partitions is
bounded by the reconnect backoff rather than by the fault duration.
"""

import asyncio

from repro.chaos.nemesis import SCHEDULES
from repro.chaos.soak import run_soak
from repro.metrics import format_table

from benchmarks.conftest import emit

OPS = 40
PERIOD = 0.5


def run_experiment():
    rows = []
    for schedule in SCHEDULES:
        result = asyncio.run(run_soak(
            algorithm="bsr", f=1, schedule=schedule, ops=OPS, read_ratio=0.6,
            seed=17, start=0.3, period=PERIOD, timeout=20.0,
        ))
        assert result.errors == [], f"{schedule}: {result.errors}"
        assert result.safety.ok, f"{schedule}: {result.safety}"
        summary = result.latency_summary()
        read = summary.get("read")
        write = summary.get("write")
        reconnects = sum(stats.get("reconnects", 0)
                         for stats in result.client_stats.values())
        rows.append((
            schedule,
            result.ops_completed,
            read.latency.mean * 1000 if read else 0.0,
            read.latency.p99 * 1000 if read else 0.0,
            write.latency.mean * 1000 if write else 0.0,
            write.latency.p99 * 1000 if write else 0.0,
            result.ops_completed / result.wall_time,
            reconnects,
        ))
    return rows


def test_e17_chaos_latency(benchmark, once_per_session):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    if "e17" not in once_per_session:
        once_per_session.add("e17")
        emit(format_table(
            ("schedule", "ops", "read mean(ms)", "read p99(ms)",
             "write mean(ms)", "write p99(ms)", "ops/s", "reconnects"),
            [(s, n, f"{rm:.1f}", f"{rp:.1f}", f"{wm:.1f}", f"{wp:.1f}",
              f"{tput:.1f}", rc) for s, n, rm, rp, wm, wp, tput, rc in rows],
            title=f"E17: latency under nemesis schedules "
                  f"({OPS} ops, period {PERIOD}s, bsr f=1)",
        ))
    by_name = {row[0]: row for row in rows}
    # Every schedule completed the full workload: faults never cost ops.
    for schedule, row in by_name.items():
        assert row[1] >= OPS
    # Faulted schedules actually exercised the reconnect machinery.
    assert by_name["combo"][7] > 0
    assert by_name["none"][7] == 0
