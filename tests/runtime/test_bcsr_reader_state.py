"""The BCSR reader state over real sockets: liars located, memory bounded."""

import asyncio
import random

import pytest

from repro.runtime import LocalCluster
from repro.runtime import client as client_module


def located_servers(client):
    return {c["labels"]["server"]: int(c["value"])
            for c in client.registry.snapshot()["counters"]
            if c["name"] == "client_decode_located_total"}


@pytest.mark.parametrize("liar", [0, 5], ids=["systematic", "parity"])
def test_corrupting_server_is_located_and_every_value_returned(liar):
    async def scenario():
        cluster = LocalCluster("bcsr", f=1, n=8,
                               byzantine={liar: "corrupt_value"})
        await cluster.start()
        try:
            writer, reader = cluster.client("w000"), cluster.client("r000")
            await writer.connect()
            await reader.connect()
            rng = random.Random(liar)
            for _ in range(4):
                value = rng.randbytes(4096)
                await writer.write(value)
                for _ in range(3):
                    assert await reader.read() == value
            stats = reader.stats()
            assert stats["decode_memo_hits"] + stats["decode_memo_misses"] == 12
            # Each version is decoded at least once, and repeats are not.
            assert 4 <= stats["decode_memo_misses"] < 12
            # The liar is named -- whenever its element was among the
            # n - f a decode saw -- and nobody else ever is.
            located = located_servers(reader)
            assert set(located) == {f"s{liar:03d}"}
            assert stats["decode_located"] == located[f"s{liar:03d}"] >= 1
            assert writer.stats()["decode_memo_misses"] == 0
        finally:
            await cluster.stop()

    asyncio.run(scenario())


def test_reader_states_are_evicted_by_bytes_held(monkeypatch):
    """More 64 KiB registers than the byte budget holds: the oldest go."""
    monkeypatch.setattr(client_module, "MAX_STATE_BYTES", 1 << 20)
    registers = [f"blob-{i}" for i in range(9)]

    async def scenario():
        cluster = LocalCluster("bcsr", f=1, n=8, namespaced=True)
        await cluster.start()
        try:
            writer, reader = cluster.client("w000"), cluster.client("r000")
            await writer.connect()
            await reader.connect()
            values = {name: random.Random(name).randbytes(65536)
                      for name in registers}
            for name in registers:
                await writer.write(values[name], register=name)
                assert await reader.read(register=name) == values[name]
                held = sum(state.held_bytes()
                           for state in reader._register_states.values())
                assert held == reader._state_bytes <= 1 << 20
            # Each state holds the value plus n - f columns of a third of
            # it: four fit in 1 MiB, the least recently read were shed.
            assert list(reader._register_states) == registers[-4:]
            # Eviction only resets a hint: an evicted register reads
            # correctly, as a miss.
            before = reader.stats()["decode_memo_misses"]
            assert await reader.read(register=registers[0]) == values[registers[0]]
            assert reader.stats()["decode_memo_misses"] == before + 1
        finally:
            await cluster.stop()

    asyncio.run(scenario())
