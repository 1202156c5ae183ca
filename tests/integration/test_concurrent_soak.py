"""Acceptance: one multiplexed client under the flaky-links schedule.

A single :class:`AsyncRegisterClient` keeps 64 mixed reads/writes in
flight while the nemesis degrades (drops/delays/duplicates) and then
severs one server's links.  Every operation must complete with a correct
result and the recorded execution must satisfy the paper's safety
definition -- the multiplexed runtime may not trade safety for depth.
"""

import asyncio

from repro.chaos.nemesis import Nemesis, build_schedule
from repro.chaos.soak import run_soak
from repro.consistency import check_safety
from repro.runtime import LocalCluster
from repro.sim.trace import OpKind, Trace


def test_single_client_sustains_64_concurrent_ops_under_flaky_links():
    async def scenario():
        cluster = LocalCluster("bsr", f=1, chaos=True, chaos_seed=11)
        await cluster.start()
        try:
            steps = build_schedule("flaky-links", cluster.server_ids, 1,
                                   seed=11, start=0.2, period=0.5)
            nemesis = Nemesis(cluster, steps, registry=cluster.registry)
            client = cluster.client("w000", timeout=20.0,
                                    backoff_base=0.05, backoff_max=0.5)
            await client.connect()
            trace = Trace()
            loop = asyncio.get_running_loop()

            async def one(index: int) -> None:
                if index % 4 == 0:  # 16 writes among 64 ops
                    value = f"cc:{index}".encode().ljust(32, b".")
                    record = trace.begin("w000", OpKind.WRITE, loop.time(),
                                         value=value)
                    tag = await client.write(value)
                    trace.complete(record, loop.time(), tag=tag)
                else:
                    record = trace.begin("w000", OpKind.READ, loop.time())
                    value = await client.read()
                    trace.complete(record, loop.time(), value=value)

            nemesis_task = asyncio.ensure_future(nemesis.run())
            await asyncio.gather(*(one(index) for index in range(64)))
            await nemesis_task
            cluster.chaos_plan.heal()
            safety = check_safety(trace, initial_value=cluster.initial_value)
        finally:
            await cluster.stop()
        return trace, safety, client.stats()

    trace, safety, stats = asyncio.run(scenario())
    assert len(trace.completed) == 64  # every op finished in time
    assert safety.ok, f"safety violated: {safety}"
    assert stats["inflight"] == 0


def test_soak_open_loop_concurrency_stays_safe():
    """The soak harness's concurrency knob: open-loop load, safety held."""
    result = asyncio.run(run_soak(
        algorithm="bsr", schedule="flaky-links", ops=24, seed=3,
        period=0.4, timeout=20.0, concurrency=4,
        client_kwargs={"max_inflight": 8},
    ))
    assert result.ok, (result.errors, result.safety)
    assert result.ops_completed == 24
