"""RegisterTable unit tests: laziness, validation, eviction, rehydration."""

import pytest

from repro.byzantine.behaviors import StaleBehavior
from repro.core.bsr import BSRServer
from repro.core.messages import DataReply, PutData, QueryData, QueryTag
from repro.core.namespace import NamespacedMessage
from repro.core.tags import TAG_ZERO, Tag
from repro.obs import MetricRegistry
from repro.sharding import RegisterTable, key_name


def make_table(**kwargs):
    return RegisterTable(
        "s000",
        factory=lambda name: BSRServer("s000", initial_value=b""),
        **kwargs,
    )


def query(key, op_id=1):
    return NamespacedMessage(key, QueryData(op_id=op_id))


def put(key, op_id, seq, value):
    return NamespacedMessage(
        key, PutData(op_id=op_id, tag=Tag(seq, "w000"), payload=value))


def test_keys_created_on_first_touch():
    table = make_table()
    assert table.resident_keys == []
    table.handle("r0", query("users"))
    table.handle("r0", query("carts"))
    assert set(table.resident_keys) == {"users", "carts"}


def test_replies_rewrapped_with_key():
    table = make_table()
    [(dest, reply)] = table.handle("w0", NamespacedMessage("a", QueryTag(op_id=1)))
    assert dest == "w0"
    assert isinstance(reply, NamespacedMessage) and reply.register == "a"
    assert reply.inner.tag == TAG_ZERO


def test_bare_messages_ignored():
    table = make_table()
    assert table.handle("w0", QueryTag(op_id=1)) == []
    assert table.resident_keys == []


# -- key-space DoS defence ----------------------------------------------------

def test_invalid_keys_allocate_nothing():
    table = make_table()
    for bad in ("", "has space", "tab\tkey", "nul\x00", "x" * 129,
                "éclair"):
        assert table.handle("r0", query(bad)) == []
    assert table.resident_keys == []


def test_non_string_key_allocates_nothing():
    table = make_table()
    assert table.handle("r0", NamespacedMessage(42, QueryData(op_id=1))) == []
    assert table.resident_keys == []


def test_per_table_length_bound():
    table = make_table(max_key_len=8)
    assert table.handle("r0", query("12345678")) != []
    assert table.handle("r0", query("123456789")) == []
    assert table.resident_keys == ["12345678"]


def test_rejections_counted():
    registry = MetricRegistry()
    table = make_table(registry=registry)
    table.handle("r0", query("ok"))
    table.handle("r0", query("not ok"))
    table.handle("r0", query("also not ok"))
    [entry] = [c for c in registry.snapshot()["counters"]
               if c["name"] == "table_keys_rejected_total"]
    assert entry["value"] == 2


# -- eviction and rehydration -------------------------------------------------

def test_lru_eviction_respects_cap():
    table = make_table(max_resident=3)
    for i in range(6):
        table.handle("w0", put(key_name(i), op_id=i, seq=1, value=b"v"))
    assert len(table.resident_keys) == 3
    assert table.resident_keys == [key_name(3), key_name(4), key_name(5)]
    assert table.archived_keys == [key_name(0), key_name(1), key_name(2)]


def test_touch_refreshes_lru_position():
    table = make_table(max_resident=2)
    table.handle("w0", put("a", op_id=1, seq=1, value=b"v"))
    table.handle("w0", put("b", op_id=2, seq=1, value=b"v"))
    table.handle("r0", query("a", op_id=3))  # a becomes most-recent
    table.handle("r0", query("c", op_id=4))  # evicts b, not a
    assert set(table.resident_keys) == {"a", "c"}
    assert table.archived_keys == ["b"]


def test_rehydrated_key_keeps_its_tag_and_value():
    table = make_table(max_resident=1)
    table.handle("w0", put("hot", op_id=1, seq=7, value=b"payload"))
    table.handle("w0", put("other", op_id=2, seq=1, value=b"v"))  # demotes "hot"
    assert table.archived_keys == ["hot"]
    [(_, reply)] = table.handle("r0", query("hot", op_id=3))
    assert isinstance(reply.inner, DataReply)
    assert reply.inner.payload == b"payload"
    assert reply.inner.tag.num == 7
    assert table.archived_keys == ["other"]


def test_eviction_metrics():
    registry = MetricRegistry()
    table = make_table(max_resident=1, registry=registry)
    table.handle("w0", put("a", op_id=1, seq=1, value=b"v"))
    table.handle("w0", put("b", op_id=2, seq=1, value=b"v"))
    table.handle("r0", query("a", op_id=3))
    snap = {c["name"]: c["value"] for c in registry.snapshot()["counters"]}
    gauges = {g["name"]: g["value"] for g in registry.snapshot()["gauges"]}
    assert snap["table_evictions_total"] == 2
    assert snap["table_rehydrations_total"] == 1
    assert gauges["table_keys_resident"] == 1
    assert gauges["table_keys_archived"] == 1


def test_unbounded_table_never_evicts():
    table = make_table()
    for i in range(50):
        table.handle("r0", query(key_name(i), op_id=i))
    assert len(table.resident_keys) == 50
    assert table.archived_keys == []


def test_behavior_applies_per_key():
    table = RegisterTable(
        "s000",
        factory=lambda name: BSRServer("s000", initial_value=b""),
        behavior=StaleBehavior(),
    )
    table.handle("w0", put("k", op_id=1, seq=5, value=b"new"))
    [(_, reply)] = table.handle("r0", query("k", op_id=2))
    # the stale behaviour suppresses the new value
    assert reply.inner.tag.num != 5 or reply.inner.payload != b"new"


def test_storage_bytes_counts_live_and_archived():
    table = make_table(max_resident=1)
    table.handle("w0", put("a", op_id=1, seq=1, value=b"x" * 100))
    table.handle("w0", put("b", op_id=2, seq=1, value=b"y" * 100))
    assert table.storage_bytes() > 100
