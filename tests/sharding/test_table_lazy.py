"""Lazy demotion: evicting a key costs a serialisation only when it must.

A bounded :class:`RegisterTable` has to be indistinguishable from an
unbounded one on the wire, whatever it does to stay within its cap; and
it has to stay within its cap cheaply -- dropping keys nobody wrote,
putting unchanged records back, snapshotting only new history.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.abd import ABDServer
from repro.core import persistence
from repro.core.bcsr import BCSRServer
from repro.core.bsr import BSRServer
from repro.core.messages import (
    PutData,
    QueryData,
    QueryHistory,
    QueryTag,
    QueryTagHistory,
    QueryValue,
)
from repro.core.namespace import NamespacedMessage
from repro.core.regular import RegularBSRServer
from repro.core.tags import Tag
from repro.erasure.striping import StripedCodec
from repro.protocols.mpr import MPRServer
from repro.protocols.rb2 import Rb2RegisterServer
from repro.sharding import RegisterTable, key_name
from repro.sharding import table as table_module

CODEC = StripedCodec(6, 2)
ELEMENTS = {value: CODEC.encode(value)[2] for value in (b"", b"a", b"bb" * 40)}

FACTORIES = {
    "bsr": lambda name: BSRServer("s002", initial_value=b"", max_history=3),
    "regular": lambda name: RegularBSRServer("s002", initial_value=b""),
    "abd": lambda name: ABDServer("s002", initial_value=b"", max_history=2),
    "bcsr": lambda name: BCSRServer("s002", 2, CODEC, initial_value=b"",
                                    max_history=3),
}

KEYS = ["k0", "k1", "k2", "k3"]


def make_table(kind="bsr", **kwargs):
    return RegisterTable("s002", factory=FACTORIES[kind], **kwargs)


def query(key, op_id=1):
    return NamespacedMessage(key, QueryData(op_id=op_id))


def put(key, seq, value=b"v", op_id=1):
    return NamespacedMessage(
        key, PutData(op_id=op_id, tag=Tag(seq, "w000"), payload=value))


@contextmanager
def counted_snapshots():
    """The servers the table asks ``snapshot_server`` to serialise."""
    calls = []
    real = table_module.snapshot_server
    table_module.snapshot_server = lambda s: calls.append(s) or real(s)
    try:
        yield calls
    finally:
        table_module.snapshot_server = real


@pytest.fixture
def snapshots():
    with counted_snapshots() as calls:
        yield calls


# -- equivalence --------------------------------------------------------------

steps = st.lists(
    st.tuples(st.sampled_from(["data", "tag", "history", "tags", "value",
                               "put"]),
              st.sampled_from(KEYS),
              st.integers(min_value=1, max_value=6),
              st.sampled_from(sorted(ELEMENTS))),
    max_size=40)


def message_for(kind, step, op_id):
    what, key, seq, value = step
    tag = Tag(seq, "w000")
    if what == "put":
        payload = ELEMENTS[value] if kind == "bcsr" else value
        inner = PutData(op_id=op_id, tag=tag, payload=payload)
    elif what == "tag":
        inner = QueryTag(op_id=op_id)
    elif what == "history":
        inner = QueryHistory(op_id=op_id)
    elif what == "tags":
        inner = QueryTagHistory(op_id=op_id)
    elif what == "value":
        inner = QueryValue(op_id=op_id, tag=tag)
    else:
        inner = QueryData(op_id=op_id)
    return NamespacedMessage(key, inner)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@settings(max_examples=60, deadline=None)
@given(steps=steps, cap=st.sampled_from([1, 2, 3]))
def test_bounded_table_replies_like_an_unbounded_one(kind, steps, cap):
    unbounded = make_table(kind)
    bounded = make_table(kind, max_resident=cap)
    for op_id, step in enumerate(steps):
        message = message_for(kind, step, op_id)
        assert (bounded.handle("c0", message)
                == unbounded.handle("c0", message)), (step, op_id)
        assert len(bounded.registers) <= cap
    written = {key for what, key, _, _ in steps if what == "put"}
    assert set(bounded.archived_keys) <= written


@settings(max_examples=60, deadline=None)
@given(steps=steps, cap=st.sampled_from([1, 2, 3]))
def test_snapshots_only_for_keys_written_since_their_record(steps, cap):
    """Count ``snapshot_server`` against an oracle of dirty keys."""
    with counted_snapshots() as calls:
        table = make_table("bsr", max_resident=cap)
        dirty = set()       # written since the key's last archive record
        newest = {}         # key -> highest tag stored so far
        expected = 0
        for op_id, step in enumerate(steps):
            what, key, seq, _ = step
            before = set(table.registers)
            table.handle("c0", message_for("bsr", step, op_id))
            if what == "put" and seq > newest.get(key, 0):
                newest[key] = seq
                dirty.add(key)
            for evicted in before - set(table.registers):
                if evicted in dirty:
                    expected += 1
                    dirty.discard(evicted)
            assert len(calls) == expected, (step, op_id)


# -- the three eviction cases -------------------------------------------------

def test_never_written_keys_leave_nothing_behind(snapshots):
    table = make_table(max_resident=4)
    table.handle("w0", put("written", seq=1, value=b"x" * 50))
    for i in range(4):                               # demotes "written"
        table.handle("r0", query(f"warm-{i}"))
    baseline = table.storage_bytes()
    assert table.archived_keys == ["written"] and baseline > 50
    for i in range(20_000):
        table.handle("r0", query(key_name(i), op_id=i))
    assert table.archived_keys == ["written"]
    assert table.storage_bytes() == baseline
    assert len(snapshots) == 1
    table = make_table(max_resident=1)
    for i in range(20_000):
        table.handle("r0", query(key_name(i), op_id=i))
    assert table._archive == {} and table._clean == {}
    assert table.storage_bytes() == 0


def test_unchanged_rehydrated_key_goes_back_as_the_same_bytes(snapshots):
    table = make_table(max_resident=1)
    table.handle("w0", put("hot", seq=3, value=b"payload"))
    table.handle("r0", query("other"))               # demotes "hot": 1 snapshot
    record = table._archive["hot"]
    for op_id in range(5):                           # read it back, evict it
        [(_, reply)] = table.handle("r0", query("hot", op_id=op_id))
        assert reply.inner.payload == b"payload"
        table.handle("r0", query("other"))
        assert table._archive["hot"] is record
    assert len(snapshots) == 1
    # A stale put changes nothing, so it is still the same record ...
    table.handle("w0", put("hot", seq=2, value=b"late"))
    table.handle("r0", query("other"))
    assert table._archive["hot"] is record and len(snapshots) == 1
    # ... and a newer one is serialised exactly once.
    table.handle("w0", put("hot", seq=4, value=b"newer"))
    table.handle("r0", query("other"))
    assert table._archive["hot"] != record and len(snapshots) == 2
    [(_, reply)] = table.handle("r0", query("hot"))
    assert reply.inner.payload == b"newer" and reply.inner.tag.num == 4
    assert table._clean.keys() <= set(table.registers)


def test_eviction_counters_tell_snapshots_from_free_evictions():
    from repro.obs import MetricRegistry
    registry = MetricRegistry()
    table = make_table(max_resident=1, registry=registry)
    table.handle("w0", put("a", seq=1))
    for key in ("b", "a", "c", "a", "d"):
        table.handle("r0", query(key))
    snap = {c["name"]: c["value"] for c in registry.snapshot()["counters"]}
    assert snap["table_evictions_total"] == 5      # a, b, a, c, a
    assert snap["table_snapshots_total"] == 1      # a's first, and only
    assert snap["table_rehydrations_total"] == 2
    gauges = {g["name"]: g["value"] for g in registry.snapshot()["gauges"]}
    assert gauges["table_keys_archived"] == 1


# -- what must not change -----------------------------------------------------

@pytest.mark.parametrize("make_server", [
    lambda: MPRServer("s000", ["s000", "s001", "s002", "s003"], 1),
    lambda: Rb2RegisterServer(
        "s000", [f"s{i:03d}" for i in range(6)], 1),
], ids=["mpr", "rb2"])
def test_unsnapshotable_protocol_is_pinned_not_dropped(make_server, snapshots):
    table = RegisterTable("s000", factory=lambda name: make_server(),
                          max_resident=1)
    table.handle("r0", query("a", op_id=7))
    first = table.registers["a"]
    assert len(first.history) == 1                   # looks droppable; is not
    table.handle("r0", query("b", op_id=8))
    table.handle("r0", query("c", op_id=9))
    assert table.registers["a"] is first             # pending-reader state kept
    assert set(table.registers) == {"a", "b", "c"}
    assert table.archived_keys == [] and snapshots == []


def test_record_from_an_older_build_rehydrates_or_falls_back():
    table = make_table(max_resident=1)
    # A record of a never-written key, as every build before this one
    # archived them: still a valid record, still rehydrated.
    table._archive["old"] = persistence.snapshot_server(FACTORIES["bsr"]("old"))
    table._archive["junk"] = b'{"type":"NoSuchServer","history":[]}'
    [(_, reply)] = table.handle("r0", query("old"))
    assert reply.inner.payload == b"" and reply.inner.tag.num == 0
    [(_, reply)] = table.handle("r0", query("junk"))     # factory fallback
    assert reply.inner.payload == b"" and reply.inner.tag.num == 0
    table.handle("w0", put("junk", seq=1, value=b"fresh"))
    table.handle("r0", query("old"))
    [(_, reply)] = table.handle("r0", query("junk"))
    assert reply.inner.payload == b"fresh"
