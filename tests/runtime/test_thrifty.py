"""Thrifty rounds: n - f servers addressed, the rest held until a hedge.

Everything runs through fake transports (``tests/runtime/test_link``'s
``Dialer``), so what each server was sent is read off its transport and
replies are delivered by hand, when the test says so.
"""

import asyncio
from collections import Counter

import pytest

from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryTag,
    TagReply,
    Throttled,
)
from repro.core.operation import next_op_id
from repro.core.tags import TAG_ZERO, Tag
from repro.deploy import ClusterSpec
from repro.errors import OperationAborted
from repro.runtime import AsyncRegisterClient, LocalCluster
from repro.runtime.client import HEDGE_FLOOR
from repro.runtime.dispatch import ROTATION_RUN, OpState, split_group
from repro.transport.codec import frame_burst
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from tests.runtime.fake_io import deliver
from tests.runtime.test_link import Dialer, FakeOperation, run, until

AUTH = ClusterSpec(algorithm="bsr", f=1).authenticator()
SERVERS = [f"s{i:03d}" for i in range(5)]


def hold_back(held, servers):
    """Burn op_ids up to the start of a rotation run whose ops hold
    ``held`` back from ``servers`` (f = 1): the next ``ROTATION_RUN``
    operations of every thrifty client in this process address all the
    others (while their links are up and nobody is suspected).

    For tests that fault one server (and must see the fault exercised)
    or count what each server was sent.
    """
    while True:
        upcoming = next_op_id() + 1
        if (upcoming % ROTATION_RUN == 0 and split_group(
                servers, upcoming, len(servers) - 1)[1] == (held,)):
            return


async def fake_client(algorithm="bsr", n=5, **kwargs):
    """A connected client and ``{server: its fake transport}``."""
    dialer = Dialer()
    addresses = {f"s{i:03d}": ("127.0.0.1", 1) for i in range(n)}
    kwargs.setdefault("backoff_base", 0.5)
    kwargs.setdefault("backoff_max", 0.5)
    client = AsyncRegisterClient("c000", addresses, 1, AUTH,
                                 algorithm=algorithm, timeout=5.0, **kwargs)
    assert await client.connect() == n
    return client, dict(zip(sorted(addresses), dialer.transports))


async def started(client, operation):
    """Start ``operation`` (a coroutine); its frames are out -> (task, state)."""
    task = asyncio.get_running_loop().create_task(operation)
    await until(lambda: client._dispatcher.inflight == 1)
    [state] = client._dispatcher.states()
    await asyncio.sleep(0)  # the tick's flush
    return task, state


def answer(client, pid, message):
    """Deliver ``message`` to ``client`` as a frame signed by ``pid``."""
    deliver(client._links[pid], frame_burst(
        AUTH.seal_frames(pid, [encode_message_v2(message)])))


def sent(transport):
    """The messages written to one fake transport, in order."""
    return [decode_message_v2(payload)
            for write in range(len(transport.writes))
            for payload in transport.payloads(write)]


async def quick_read(client, value=b"v"):
    task, state = await started(client, client.read())
    for pid in state.addressed:
        answer(client, pid, DataReply(op_id=state.op_id, tag=Tag(1, "w000"),
                                      payload=value))
    assert await task == value
    return state


def test_each_server_is_held_for_one_run_of_op_ids_in_n():
    for start in (0, 7, 2 ** 40 + 3):
        held = Counter()
        for op_id in range(start, start + 5 * ROTATION_RUN):
            addressed, rest = split_group(SERVERS, op_id, 4)
            assert sorted(addressed + rest) == SERVERS
            held.update(rest)
        assert held == Counter({pid: ROTATION_RUN for pid in SERVERS})

    async def scenario():
        client, _ = await fake_client()
        splits = set()
        for _ in range(5):  # consecutive op_ids: nothing else runs here
            state = await quick_read(client)
            assert len(state.addressed) == 4
            splits.add((state.addressed, state.held))
        # Ops close in op_id address the same servers (at most one run
        # boundary falls among five).
        assert len(splits) <= 2
        assert client.stats()["hedges"] == 0
        await client.close()

    run(scenario())


def test_down_links_and_suspects_go_last():
    demoted = {"s001", "s003"}
    for turn in range(10):
        addressed, held = split_group(SERVERS, turn * ROTATION_RUN, 3,
                                      lambda pid: pid in demoted)
        assert set(held) == demoted
        # ... and the others keep their rotated order.
        rotated = SERVERS[turn % 5:] + SERVERS[:turn % 5]
        assert list(addressed) == [p for p in rotated if p not in demoted]

    async def scenario():
        client, _ = await fake_client()
        Dialer().refuse = True  # the lost link stays down
        client._links["s002"].connection_lost(None)
        for _ in range(5):
            assert (await quick_read(client)).held == ("s002",)
        # A suspect as well: one of the two is held, the later in the
        # op's rotation.
        client._suspects["s004"] = (float("inf"), 1)
        now = asyncio.get_running_loop().time()
        held = Counter()
        for turn in range(5):
            state = OpState(FakeOperation(turn * ROTATION_RUN))
            client._address(state, SERVERS, now)
            assert len(state.held) == 1
            held.update(state.held)
        assert held == Counter({"s004": 3, "s002": 2})
        await client.close()

    run(scenario())


def test_a_timer_hedge_sends_only_the_current_round_to_the_held():
    async def scenario():
        client, transports = await fake_client()
        task, state = await started(client, client.write(b"x"))
        [held] = state.held
        assert sent(transports[held]) == []
        for pid in state.addressed:
            answer(client, pid, TagReply(op_id=state.op_id, tag=TAG_ZERO))
        await asyncio.sleep(0)
        assert state.rounds == 2 and state.held == (held,)
        # Nobody acks the put: at its hedge instant the held server is
        # sent the put -- and nothing of the query round before it.
        await until(lambda: client.stats()["hedges"] == 1)
        await asyncio.sleep(0)
        [put] = sent(transports[held])
        assert type(put) is PutData
        assert all(type(m) is not QueryTag for m in sent(transports[held]))
        assert client.registry.counter_value(
            "client_hedges_total", client="c000", cause="timer") == 1
        for pid in SERVERS[:4]:
            answer(client, pid, PutAck(op_id=state.op_id, tag=put.tag))
        assert await task == put.tag
        # Every addressed server that had not acked is now a suspect.
        assert set(client._suspects) == set(state.addressed) - {held}
        await client.close()

    run(scenario())


def test_hedged_rounds_leave_the_estimate_unchanged():
    async def scenario():
        client, _ = await fake_client()
        assert client._srtt is None
        await quick_read(client)
        estimate = (client._srtt, client._rttvar)
        assert estimate[0] > 0
        task, state = await started(client, client.read())
        await until(lambda: client.stats()["hedges"] == 1)
        for pid in SERVERS[:4]:
            answer(client, pid, DataReply(op_id=state.op_id,
                                          tag=Tag(1, "w000"), payload=b"v"))
        assert await task == b"v"
        assert (client._srtt, client._rttvar) == estimate
        assert client._rto_backoff == 2  # Karn: back off until timed again
        # It took at least the floor (the estimate of quick reads is far
        # below it) and no longer than the deadline.
        assert HEDGE_FLOOR - 1e-9 <= state.hedge_at - state.round_start < 5.0
        await quick_read(client)
        assert (client._srtt, client._rttvar) != estimate
        assert client._rto_backoff == 1
        await client.close()

    run(scenario())


def test_an_op_that_needs_no_hedge_arms_one_timer():
    async def scenario():
        client, _ = await fake_client()
        loop = asyncio.get_running_loop()
        armed = []
        call_at = loop.call_at

        def spy(when, callback, *args, **kwargs):
            if getattr(callback, "__func__", None) is type(client)._on_timer:
                armed.append(when)
            return call_at(when, callback, *args, **kwargs)

        loop.call_at = spy
        # A two-round write, both rounds answered at once: the timer
        # armed at round one's hedge instant never fires.
        task, state = await started(client, client.write(b"x"))
        first_hedge_at = state.hedge_at
        for pid in state.addressed:
            answer(client, pid, TagReply(op_id=state.op_id, tag=TAG_ZERO))
        assert state.rounds == 2
        put = decode_message_v2(state.pending[state.addressed[0]][-1][1])
        for pid in state.addressed:
            answer(client, pid, PutAck(op_id=state.op_id, tag=put.tag))
        assert await task == put.tag
        assert armed == [first_hedge_at]
        assert client.stats()["hedges"] == 0
        await client.close()

    run(scenario())


def test_a_later_round_moves_the_timer_to_its_own_hedge_instant():
    """Round two's hedge instant comes from the estimate round one just
    refreshed, not from round one's backed-off instant."""
    async def scenario():
        client, transports = await fake_client()
        client._rto_backoff = 8  # as after three timer hedges
        task, state = await started(client, client.write(b"x"))
        [held] = state.held
        first = state.timer
        assert first.when() - state.round_start >= 8 * HEDGE_FLOOR
        for pid in state.addressed:
            answer(client, pid, TagReply(op_id=state.op_id, tag=TAG_ZERO))
        assert state.rounds == 2 and client._rto_backoff == 1
        # Still one live timer: round one's is cancelled, the put
        # round's armed at its own, much earlier instant.
        assert first.cancelled()
        assert state.timer.when() == state.hedge_at < first.when()
        assert state.hedge_at - state.round_start == pytest.approx(
            HEDGE_FLOOR)
        # One addressed server never acks the put: the held one is sent
        # it long before round one's instant would have come.
        await until(lambda: client.stats()["hedges"] == 1)
        assert asyncio.get_running_loop().time() < first.when()
        await asyncio.sleep(0)
        [put] = sent(transports[held])
        for pid in state.addressed[:3] + (held,):
            answer(client, pid, PutAck(op_id=state.op_id, tag=put.tag))
        assert await task == put.tag
        await client.close()

    run(scenario())


def test_slow_healthy_servers_cost_a_hedge_or_two_not_one_per_round():
    """Rounds slower than the floor: Karn's backoff lets one be timed and
    the estimate then covers them.  With the floor alone most rounds
    would hedge; without the backoff (a hedged round is never timed)
    every round would."""
    async def scenario():
        client, _ = await fake_client()
        slow = 3 * HEDGE_FLOOR
        hedged = []
        for _ in range(6):
            task, state = await started(client, client.read())
            asked = state.addressed
            await asyncio.sleep(slow)
            for pid in asked:
                answer(client, pid, DataReply(
                    op_id=state.op_id, tag=Tag(1, "w000"), payload=b"v"))
            assert await task == b"v"
            hedged.append(state.span.hedges)
        # The first rounds hedge at the floor, then twice it ...
        assert hedged[:2] == [1, 1]
        # ... until one decides unhedged and is timed (a loaded host may
        # need one doubling more); from then on none hedges.
        assert client._srtt > slow
        assert sum(hedged) <= 3 and hedged[-3:] == [0, 0, 0]
        await client.close()

    run(scenario())


@pytest.mark.parametrize("algorithm, n", [("bcsr", 6), ("rb2", 6)])
def test_coded_and_mesh_protocols_hold_nobody(algorithm, n):
    async def scenario():
        client, transports = await fake_client(algorithm, n=n)
        task, state = await started(client, client.read())
        assert state.held == ()
        assert sorted(state.addressed) == sorted(transports)
        for transport in transports.values():
            assert len(sent(transport)) == 1
        await client.close()
        with pytest.raises(OperationAborted):
            await task

    run(scenario())


def test_each_cause_is_counted_and_the_culprit_suspected():
    async def scenario():
        client, _ = await fake_client()
        # throttled: the round is hedged at once, the server suspected.
        task, state = await started(client, client.read())
        shedder = state.addressed[0]
        answer(client, shedder, Throttled(op_id=state.op_id,
                                          retry_after=0.01,
                                          dropped="QueryData"))
        assert state.held == () and shedder in client._suspects
        for pid in SERVERS[:4]:
            answer(client, pid, DataReply(op_id=state.op_id,
                                          tag=Tag(1, "w000"), payload=b"v"))
        assert await task == b"v"
        # down: an addressed link lost mid-round.
        task, state = await started(client, client.read())
        lost = state.addressed[-1]
        client._links[lost].connection_lost(None)
        assert state.held == () and lost in client._suspects
        for pid in SERVERS:
            if pid != lost:
                answer(client, pid, DataReply(
                    op_id=state.op_id, tag=Tag(1, "w000"), payload=b"v"))
        assert await task == b"v"
        counts = {cause: client.registry.counter_value(
            "client_hedges_total", client="c000", cause=cause)
            for cause in ("timer", "down", "throttled")}
        assert counts == {"timer": 0, "down": 1, "throttled": 1}
        assert client.stats()["hedges"] == 2
        await client.close()

    run(scenario())


def test_a_solo_read_is_four_frames_and_four_recvs_at_n5():
    """Live: a lone BSR read on ``n = 5, f = 1`` costs exactly ``n - f``
    request frames at the nodes and ``n - f`` socket reads at the client
    (five of each before thrifty rounds)."""
    async def scenario():
        cluster = LocalCluster("bsr", f=1, n=5)
        await cluster.start()
        try:
            client = cluster.client("r000")
            await client.connect()
            await client.write(b"v" * 64)

            def counts():
                frames = sum(cluster.registry.counter_value(
                    "node_wire_frames_total", node=pid)
                    for pid in cluster.server_ids)
                return frames, client.stats()["recv_calls"]

            for _ in range(10):
                await asyncio.sleep(0.02)  # nothing left in flight
                frames, recvs = counts()
                assert await client.read() == b"v" * 64
                await asyncio.sleep(0.02)
                assert counts() == (frames + 4, recvs + 4)
            assert client.stats()["hedges"] == 0
        finally:
            await cluster.stop()

    run(scenario())


def test_suspicion_ends_on_a_timely_answer_or_runs_out():
    async def scenario():
        client, _ = await fake_client(backoff_base=0.05, backoff_max=0.1)
        loop = asyncio.get_running_loop()
        target = (await quick_read(client)).addressed[0]
        client._suspects[target] = (loop.time() + 60.0, 3)
        # Held while suspected ...
        for _ in range(5):
            assert target not in (await quick_read(client)).addressed
        # ... until a round it is addressed in gets its answer in time.
        client._suspects[target] = (loop.time() - 1.0, 3)  # ran out
        state = None
        while state is None or target not in state.addressed:
            state = await quick_read(client)
        assert target not in client._suspects
        await client.close()

    run(scenario())
