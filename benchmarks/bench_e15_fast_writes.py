"""E15 -- Ablation: one-round SWMR writes vs the paper's two-phase write.

The paper keeps BCSR's write two-phase (Fig 4) although BCSR is stated for
a single writer; for a strict single writer the ``get-tag`` phase buys
nothing -- the writer already knows every tag it issued.  The
:class:`~repro.core.bcsr.BCSRFastWriteOperation` extension mints tags from
a local counter and goes straight to ``put-data``, making the register
*fully* fast (one round for reads and writes) in the SWMR regime.

The bench measures write latency and message count for both write paths
under identical networks, and checks safety of the fast path's executions.
"""

from repro.consistency import check_safety
from repro.core.bcsr import (
    BCSRFastWriteOperation,
    BCSRReadOperation,
    BCSRServer,
    WriterSequence,
    coded_write,
    make_codec,
)
from repro.core.processes import ClientProcess, ServerProcess
from repro.metrics import format_table
from repro.sim.delays import ConstantDelay
from repro.sim.simulator import Simulator
from repro.types import server_id

from benchmarks.conftest import emit

N, F = 6, 1
SERVER_IDS = [server_id(i) for i in range(N)]
WRITES = 10
DELAY = 1.0


def run_write_stream(fast: bool):
    sim = Simulator(seed=5, delay_model=ConstantDelay(DELAY))
    codec = make_codec(N, F)
    for i, pid in enumerate(SERVER_IDS):
        sim.add_process(ServerProcess(pid, BCSRServer(pid, i, codec,
                                                      initial_value=b"v0")))
    writer = sim.add_process(ClientProcess("w000"))
    reader = sim.add_process(ClientProcess("r000"))
    sequence = WriterSequence("w000")
    for i in range(WRITES):
        value = f"{i:010d}-payload".encode()
        if fast:
            writer.submit(i * 10.0, lambda v=value: BCSRFastWriteOperation(
                "w000", SERVER_IDS, F, v, sequence, codec=codec))
        else:
            writer.submit(i * 10.0, lambda v=value: coded_write(
                "w000", SERVER_IDS, F, v, codec))
    reader.submit(WRITES * 10.0 + 5.0, lambda: BCSRReadOperation(
        "r000", SERVER_IDS, F, codec=codec, initial_value=b"v0"))
    sim.run()
    check_safety(sim.trace, initial_value=b"v0").raise_if_violated()
    latencies = [record.latency for _, record in writer.completions]
    (read_op, _) = reader.completions[0]
    assert read_op.result == f"{WRITES - 1:010d}-payload".encode()
    return (sum(latencies) / len(latencies),
            sim.network.stats.messages_sent)


def run_experiment():
    return run_write_stream(fast=False), run_write_stream(fast=True)


def test_e15_fast_swmr_writes(benchmark, once_per_session):
    (two_phase, fast) = benchmark(run_experiment)
    if "e15" not in once_per_session:
        once_per_session.add("e15")
        emit(format_table(
            ("write path", "mean write latency(s)", "messages in run"),
            [
                ("two-phase (paper, Fig 4)", two_phase[0], two_phase[1]),
                ("one-round local-sequence (ext.)", fast[0], fast[1]),
            ],
            title=f"E15: SWMR write paths, {WRITES} writes, "
                  f"{DELAY}s per message",
        ))
    # The fast path halves write latency (one round trip instead of two)...
    assert fast[0] == 2 * DELAY
    assert two_phase[0] == 4 * DELAY
    # ... and removes the get-tag traffic (2 messages per server per write).
    assert fast[1] < two_phase[1] - WRITES * N
