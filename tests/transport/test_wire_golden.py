"""The wire format, pinned byte for byte.

``wire_golden.json`` holds the encoding of one representative instance
per registered message kind -- plus the value shapes the fields carry
(``Tag``, ``TaggedValue``, ``CodedElement``, nested and namespaced
messages, escaped bare fields) -- and the type-id table.  Any change to
how messages are declared or encoded that moves a byte fails here, so a
refactor of the schema or the codec is provably wire-neutral.

Regenerate (only for a deliberate wire change) with::

    PYTHONPATH=src python tests/transport/test_wire_golden.py
"""

import json
import os

import pytest

from repro.core import messages as m
from repro.core.namespace import NamespacedMessage
from repro.core.tags import TAG_MAX, Tag, TaggedValue
from repro.erasure.element import CodedElement
from repro.transport.codec2 import (
    MESSAGE_TYPES,
    CachedDecoder,
    CachedEncoder,
    decode_message_v2,
    encode_message_v2,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "wire_golden.json")

TAG = Tag(7, "w000")
BIG_TAG = Tag(TAG_MAX, "writer-é")
PAIR = TaggedValue(TAG, b"value")
ELEMENT = CodedElement(3, bytes(range(200)))


def samples():
    """``(case, message)`` for every kind, and the shapes fields hold."""
    cases = [
        ("BaseMessage", m.BaseMessage(op_id=0)),
        ("QueryTag", m.QueryTag(op_id=1)),
        ("TagReply", m.TagReply(op_id=2, tag=TAG)),
        ("PutData", m.PutData(op_id=3, tag=TAG, payload=b"x" * 130)),
        ("PutData.coded", m.PutData(op_id=300, tag=BIG_TAG, payload=ELEMENT)),
        ("PutAck", m.PutAck(op_id=4, tag=TAG)),
        ("QueryData", m.QueryData(op_id=5)),
        ("DataReply", m.DataReply(op_id=6, tag=TAG, payload=b"")),
        ("DataReply.none", m.DataReply(op_id=6, tag=TAG, payload=None)),
        ("QueryDataHeld", m.QueryDataHeld(op_id=7, tag=TAG)),
        ("DataHeld", m.DataHeld(op_id=8)),
        ("QueryHistory", m.QueryHistory(op_id=9)),
        ("QueryHistoryAbove", m.QueryHistoryAbove(op_id=10, tag=TAG)),
        ("HistoryReply", m.HistoryReply(op_id=11, history=(
            PAIR, TaggedValue(BIG_TAG, ELEMENT),
            TaggedValue(Tag(0, ""), None)))),
        ("QueryTagHistory", m.QueryTagHistory(op_id=12)),
        ("TagHistoryReply", m.TagHistoryReply(op_id=13, tags=(TAG, BIG_TAG))),
        ("QueryValue", m.QueryValue(op_id=14, tag=TAG)),
        ("ValueReply", m.ValueReply(op_id=15, tag=TAG, payload=PAIR)),
        ("PushData", m.PushData(op_id=16, tag=TAG, payload=b"push")),
        ("HealthPing", m.HealthPing(op_id=17)),
        ("HealthAck", m.HealthAck(op_id=18, node_id="s000", history_len=3,
                                  frames=70000, throttled=1,
                                  snapshot_age=1.5, keys_resident=12)),
        ("HealthAck.defaults", m.HealthAck(op_id=18)),
        ("StatsPing", m.StatsPing(op_id=19)),
        ("StatsAck", m.StatsAck(op_id=20, node_id="s001", metrics={
            "counters": [["frames", {"node": "s001"}, 5]],
            "gauges": {}, "ok": True, "off": False, "neg": -3,
            "big": 2 ** 70, "f": -0.25})),
        ("TraceDump", m.TraceDump(op_id=21, target_op=99, limit=5)),
        ("TraceDump.defaults", m.TraceDump(op_id=21)),
        ("TraceAck", m.TraceAck(op_id=22, node_id="s002", records=(
            {"op_id": 9, "phase": "read", "service_us": 12.5},), total=40)),
        ("Throttled", m.Throttled(op_id=23, retry_after=0.125,
                                  dropped="PutData")),
        ("Namespaced", NamespacedMessage(
            register="key-ü", inner=m.DataReply(op_id=24, tag=TAG,
                                                    payload=b"v"))),
        ("Namespaced.long-register", NamespacedMessage(
            register="k" * 200, inner=m.QueryData(op_id=25))),
        ("Nested", m.ValueReply(op_id=26, tag=TAG,
                                payload=m.PutAck(op_id=1, tag=TAG))),
        ("Escaped.op_id", m.QueryTag(op_id=-5)),
        ("Escaped.op_id-str", m.DataHeld(op_id="op")),
        ("Escaped.register", NamespacedMessage(register=7,
                                               inner=m.QueryTag(op_id=1))),
        ("Escaped.inner", NamespacedMessage(register="r", inner=b"raw")),
    ]
    for cls in (m.RBSend, m.RBEcho, m.RBReady, m.Rb2Send, m.Rb2Witness,
                m.MprWrite, m.MprEcho):
        cases.append((cls.__name__,
                      cls(op_id=27, tag=TAG, payload=b"bcast", source="w001")))
    return cases


CASES = [case for case, _ in samples()]


def golden_document():
    return {
        "type_ids": sorted(MESSAGE_TYPES),
        "messages": {case: encode_message_v2(message).hex()
                     for case, message in samples()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_registered_kind_has_a_sample():
    kinds = {type(message).__name__ for _, message in samples()}
    assert kinds == set(MESSAGE_TYPES)


def test_the_type_id_table_is_pinned(golden):
    assert sorted(MESSAGE_TYPES) == golden["type_ids"]
    for case, message in samples():
        blob = encode_message_v2(message)
        assert blob[1] == golden["type_ids"].index(type(message).__name__), case


@pytest.mark.parametrize("case,message", samples(), ids=CASES)
def test_bytes_match_the_golden_file(golden, case, message):
    assert encode_message_v2(message).hex() == golden["messages"][case]


@pytest.mark.parametrize("case,message", samples(), ids=CASES)
def test_golden_bytes_round_trip(golden, case, message):
    blob = bytes.fromhex(golden["messages"][case])
    assert decode_message_v2(blob) == message
    # Twice through the caches: the second pass may take a learned path.
    encoder, decoder = CachedEncoder(), CachedDecoder()
    for _ in range(2):
        assert encoder(message) == blob
        assert decoder(blob) == message


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as out:
        json.dump(golden_document(), out, indent=1, sort_keys=True)
        out.write("\n")
