"""Cross-protocol conformance: one contract, every registered protocol.

Parametrized directly over the protocol registry, so registering a new
:class:`~repro.protocols.ProtocolSpec` automatically subjects it to the
same battery: a sequential write/read sim schedule judged by the MWMR
safety checker (Definition 1), a multi-writer concurrency schedule
(skipped for single-writer specs via the capability flag, never by
name), Byzantine sim schedules for specs whose fault model tolerates
them, a flaky-links chaos soak on live TCP for runtime-capable
specs, and a live run with one server silent (or stopped) for specs
whose clients send each round to ``n - f`` servers only.  No test here
may compare an algorithm string -- gating is
always through the spec's declared capabilities, which is the whole
point of the registry.
"""

import asyncio
import importlib.util
import os

import pytest

from repro.chaos import run_soak
from repro.consistency import check_safety
from repro.core.messages import PutAck, QueryTag, TagReply
from repro.core.register import RegisterSystem
from repro.core.tags import TAG_ZERO, Tag
from repro.errors import ConfigurationError
from repro.obs import MemorySink
from repro.protocols import BYZANTINE, CRASH, get_spec, names, specs
from repro.protocols.fleet import Fleet
from repro.runtime import LocalCluster
from tests.runtime.test_thrifty import hold_back

ALL = list(names())
BYZ = [s.name for s in specs() if s.fault_model == BYZANTINE]
MULTI_WRITER = [s.name for s in specs() if not s.single_writer]
#: Specs whose clients send each round to n - f servers only.
THRIFTY = [s.name for s in specs() if s.make_codec is None
           and not s.peer_links]


# -- registry invariants -------------------------------------------------------

def test_registry_covers_the_expected_protocols():
    assert set(ALL) >= {"bsr", "bsr-history", "bsr-2round", "bcsr",
                        "rb", "abd", "mpr", "rb2"}


def test_lint_names_match_registry():
    """tools/check_protocol_dispatch.py keeps its own literal name set so
    it can run even when the package is broken; it must track the
    registry."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "check_protocol_dispatch",
        os.path.join(root, "tools", "check_protocol_dispatch.py"))
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    assert lint.PROTOCOL_NAMES == frozenset(ALL)


@pytest.mark.parametrize("algorithm", ALL)
def test_spec_metadata_is_coherent(algorithm):
    spec = get_spec(algorithm)
    assert spec.name == algorithm
    floor = spec.min_servers(1)
    assert floor > 1
    assert spec.min_servers(2) > floor  # bound grows with the budget
    spec.validate_config(floor, 1)
    with pytest.raises(ConfigurationError):
        spec.validate_config(floor - 1, 1)


@pytest.mark.parametrize("algorithm", ALL)
def test_every_write_takes_its_tag_by_one_rule(algorithm):
    """Every protocol writes through the one walk; only the tag rank
    differs.  Given tag replies whose maximum (9) and second highest (4)
    differ, crash-only specs commit ``max + 1`` and Byzantine-model ones
    the ``(f+1)``-th highest ``+ 1``."""
    fleet = Fleet.build(algorithm, f=1)
    servers, op = fleet.write_op("w000", b"v")
    expected = Tag(10 if fleet.spec.fault_model == CRASH else 5, "w000")
    assert {type(m) for _, m in op.start()} == {QueryTag}
    tags = [Tag(9, "w009"), Tag(4, "w004")] + [TAG_ZERO] * len(servers)
    puts = []
    for server, tag in zip(servers[:op.quorum], tags):
        puts = op.on_reply(server, TagReply(op_id=op.op_id, tag=tag))
    assert puts and {m.tag for _, m in puts} == {expected}
    for server in servers[:op.quorum]:
        op.on_reply(server, PutAck(op_id=op.op_id, tag=expected))
    assert op.done and op.result == expected and op.rounds == 2


# -- fault-free schedules ------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALL)
def test_sequential_write_read_is_safe(algorithm):
    """One writer, reads between writes: every read returns the latest
    value and the trace satisfies Definition 1."""
    system = RegisterSystem(algorithm, f=1, seed=42)
    system.write(b"alpha", writer=0, at=0.0)
    first = system.read(reader=0, at=50.0)
    system.write(b"bravo", writer=0, at=100.0)
    second = system.read(reader=1, at=150.0)
    trace = system.run()
    assert first.value == b"alpha"
    assert second.value == b"bravo"
    assert check_safety(trace, initial_value=b"").ok


@pytest.mark.parametrize("algorithm", MULTI_WRITER)
def test_concurrent_writers_stay_safe(algorithm):
    """Two writers racing plus a concurrent reader: safety must hold,
    and a read after both writes settles on one of them."""
    system = RegisterSystem(algorithm, f=1, seed=7)
    system.write(b"left", writer=0, at=0.0)
    system.write(b"right", writer=1, at=0.0)
    during = system.read(reader=0, at=0.5)
    after = system.read(reader=1, at=200.0)
    trace = system.run()
    assert during.done and after.done
    assert after.value in (b"left", b"right")
    assert check_safety(trace, initial_value=b"").ok


# -- Byzantine schedules (gated by the spec's fault model) ---------------------

@pytest.mark.parametrize("behavior", ["silent", "stale", "forge_tag",
                                      "claim_held", "forge_broadcast",
                                      "malformed"])
@pytest.mark.parametrize("algorithm", BYZ)
def test_byzantine_budget_is_tolerated(algorithm, behavior):
    """f misbehaving servers -- omission, stale replays, forged
    timestamps, a dissemination forged in the writer's name to the peers,
    wrong-typed reply fields -- must cost neither liveness nor safety."""
    system = RegisterSystem(algorithm, f=1, seed=3,
                            byzantine={0: behavior})
    system.write(b"genuine", writer=0, at=0.0)
    read = system.read(reader=0, at=100.0)
    trace = system.run()
    assert read.done, f"{algorithm} read blocked by one {behavior} server"
    assert read.value == b"genuine"
    assert check_safety(trace, initial_value=b"").ok


@pytest.mark.parametrize("behavior", ["claim_held", "corrupt_value",
                                      "history_replay"])
@pytest.mark.parametrize("algorithm", BYZ)
def test_a_reader_holding_a_pair_still_sees_the_next_write(algorithm,
                                                           behavior):
    """The reader already holds ``v1`` when ``v2`` is written, so a
    conditional read names ``v1``: a server that claims to still hold it
    (or replays it) is one voice, never the ``f + 1`` that keep the
    reader on ``v1``."""
    system = RegisterSystem(algorithm, f=1, seed=11,
                            byzantine={0: behavior})
    system.write(b"v1", writer=0, at=0.0)
    first = system.read(reader=0, at=100.0)
    system.write(b"v2", writer=1, at=200.0)
    second = system.read(reader=0, at=300.0)
    third = system.read(reader=0, at=400.0)
    trace = system.run()
    assert (first.value, second.value, third.value) == (b"v1", b"v2", b"v2")
    assert check_safety(trace, initial_value=b"").ok


def test_a_broadcast_forged_over_the_live_mesh_is_not_stored():
    """``forge_broadcast`` on live TCP: the forged start reaches the
    correct ``rb`` servers over the peer mesh, and none of them starts
    a broadcast on a peer's word."""

    async def scenario():
        cluster = LocalCluster("rb", f=1, byzantine={0: "forge_broadcast"})
        await cluster.start()
        try:
            writer, reader = (cluster.client(pid, timeout=10.0)
                              for pid in ("w000", "r000"))
            await writer.connect()
            await reader.connect()
            await writer.write(b"genuine")
            first = await reader.read()
            await writer.write(b"second")
            return first, await reader.read()
        finally:
            await cluster.stop()

    assert asyncio.run(scenario()) == (b"genuine", b"second")


def test_crash_only_specs_are_excluded_from_byzantine_runs():
    """The gate is the declared fault model, not a name comparison."""
    crash_only = [s.name for s in specs() if s.fault_model != BYZANTINE]
    assert crash_only  # abd at minimum
    assert not set(crash_only) & set(BYZ)


# -- live TCP under flaky links (every spec) ----------------------------------

@pytest.mark.parametrize("algorithm", ALL)
def test_flaky_links_soak_conformance(algorithm):
    """Dropped/delayed/duplicated frames on live TCP: every operation
    completes and the trace stays safe, for every protocol."""
    result = asyncio.run(run_soak(
        algorithm=algorithm, f=1, schedule="flaky-links", ops=10,
        read_ratio=0.5, seed=5, start=0.2, period=0.3, timeout=12.0,
    ))
    assert result.errors == [], f"liveness failures: {result.errors}"
    assert result.safety.ok, str(result.safety)
    assert result.ops_completed >= 10


#: Client redial backoff, hence how long a hedged-past server stays a
#: suspect; longer than a run, so each client hedges about once.
SUSPICION = 5.0
#: Iteration before which a crash-only spec's server is stopped.
CRASH_AT = 2


@pytest.mark.parametrize("algorithm", THRIFTY)
def test_thrifty_rounds_route_around_a_silent_or_stopped_server(algorithm):
    """Live TCP with one server out: ``silent`` where the fault model is
    Byzantine, a stopped node where it is crash-only -- one the rotation
    addresses, so clients must notice it.  Every op decides with the
    right value; a client hedges past the server about once per
    suspicion period, and holds it back on every op after that."""
    spec = get_spec(algorithm)
    servers = [f"s{i:03d}" for i in range(spec.min_servers(1))]
    victim = servers[1]
    hold_back(servers[-1], servers)

    async def scenario():
        byzantine = ({victim: "silent"} if spec.fault_model == BYZANTINE
                     else {})
        cluster = LocalCluster(algorithm, f=1, byzantine=byzantine)
        assert cluster.server_ids == servers
        await cluster.start()
        sink = MemorySink()
        try:
            writer, reader = (
                cluster.client(pid, timeout=10.0, trace_sink=sink,
                               backoff_base=SUSPICION, backoff_max=SUSPICION)
                for pid in ("w000", "r000"))
            await writer.connect()
            await reader.connect()
            started = asyncio.get_running_loop().time()
            for index in range(20):
                if index == CRASH_AT and not byzantine:
                    await cluster.crash(victim)
                value = b"value-%d" % index
                await writer.write(value)
                assert await reader.read() == value
            elapsed = asyncio.get_running_loop().time() - started
            return elapsed, [writer.stats(), reader.stats()], sink.records
        finally:
            await cluster.stop()

    elapsed, stats, records = asyncio.run(scenario())
    for client_stats in stats:
        assert client_stats["hedges"] <= 1 + int(elapsed / SUSPICION)
    for client in ("w000", "r000"):
        mine = [r for r in records if r["client"] == client]
        assert len(mine) == 20
        # Never asked again after the first op that had to hedge past it
        # (a silent server is asked until then) or after it was stopped.
        hedged = [i for i, r in enumerate(mine) if r["hedges"]]
        if spec.fault_model == BYZANTINE:
            assert hedged, client
        first = hedged[0] if hedged else CRASH_AT
        assert all(victim in r["held"] for r in mine[first + 1:]), client
