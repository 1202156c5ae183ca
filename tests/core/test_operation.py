"""Unit tests for the operation base class and reply collector."""

import os
import subprocess
import sys

import pytest

from repro.core.messages import QueryTag, TagReply
from repro.core.operation import (
    ClientOperation,
    ReplyCollector,
    next_op_id,
    witnessed,
)
from repro.core.tags import Tag, TaggedValue
from repro.errors import ProtocolError


class NoopOperation(ClientOperation):
    kind = "read"

    def start(self):
        return self.broadcast(QueryTag(op_id=self.op_id))

    def on_reply(self, sender, message):
        self._complete("done")
        return []


SERVERS = ["s000", "s001", "s002", "s003", "s004"]


def test_op_ids_are_unique_and_increasing():
    first, second = next_op_id(), next_op_id()
    assert second > first


_CHILD_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
import random
random.seed(0)  # a seeded experiment: the start must not follow it
from repro.core.operation import next_op_id
ids = [next_op_id() for _ in range(5)]
print(*ids)
"""


def _spawn_op_id_child():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SNIPPET.format(src=os.path.abspath(src))],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return [int(x) for x in out]


def test_op_ids_count_per_process_from_a_random_start_below_2_20():
    # An operation is (party, op_id): a process numbers its own, from a
    # start drawn from os.urandom -- two processes seeding the global
    # random state alike still start apart (a clash is 1 in 2**14, and
    # harmless: the ids are told apart by their party).  Below 2**20 an
    # op_id is a three-byte varint at most, where a pid salt made it 8-9.
    starts = {_spawn_op_id_child()[0] for _ in range(3)}
    assert len(starts) > 1
    ids = _spawn_op_id_child()
    assert ids == list(range(ids[0], ids[0] + 5))
    assert all(0 < op_id < 2 ** 20 for op_id in ids)


def test_op_id_start_is_drawn_from_urandom(monkeypatch):
    from repro.core import operation

    monkeypatch.setattr(operation.os, "urandom",
                        lambda size: b"\xff" * size)
    assert operation._op_id_base() == 2 ** 20 - 63
    monkeypatch.setattr(operation.os, "urandom",
                        lambda size: b"\x00" * size)
    assert operation._op_id_base() == 1


def test_op_id_offset_preserves_sampling_alignment():
    # The tracer samples with op_id % sample; the per-process start is
    # 1 mod 64, so low-bit counting is unchanged: the k-th op in any
    # process has the same residue as when every process counted from 1.
    ids = _spawn_op_id_child()
    for sample in (2, 16, 64):
        assert [i % sample for i in ids] == [(k + 1) % sample for k in range(5)]


def test_operation_requires_more_than_f_servers():
    with pytest.raises(ValueError):
        NoopOperation("c", ["s0"], f=1)
    with pytest.raises(ValueError):
        NoopOperation("c", SERVERS, f=-1)


def test_broadcast_targets_every_server():
    op = NoopOperation("c", SERVERS, f=1)
    envelopes = op.start()
    assert [dst for dst, _ in envelopes] == SERVERS
    assert all(msg.op_id == op.op_id for _, msg in envelopes)


def test_result_unavailable_until_done():
    op = NoopOperation("c", SERVERS, f=1)
    with pytest.raises(ProtocolError):
        _ = op.result
    op.on_reply("s000", TagReply(op_id=op.op_id, tag=Tag(0, "")))
    assert op.done and op.result == "done"


def test_accepts_matches_op_id():
    op = NoopOperation("c", SERVERS, f=1)
    assert op.accepts(TagReply(op_id=op.op_id, tag=Tag(0, "")))
    assert not op.accepts(TagReply(op_id=op.op_id + 999, tag=Tag(0, "")))
    assert not op.accepts("garbage")


def test_quorum_property():
    op = NoopOperation("c", SERVERS, f=2)
    assert op.quorum == 3


def test_collector_counts_each_server_once():
    collector = ReplyCollector(SERVERS)
    assert collector.add("s000", "a")
    assert not collector.add("s000", "b")  # duplicate from same server
    assert len(collector) == 1
    assert collector.replies == {"s000": "a"}  # first reply wins


def test_collector_rejects_unknown_senders():
    collector = ReplyCollector(SERVERS)
    assert not collector.add("intruder", "x")
    assert len(collector) == 0


def test_collector_contains_and_values():
    collector = ReplyCollector(SERVERS)
    collector.add("s001", 11)
    collector.add("s002", 22)
    assert "s001" in collector and "s003" not in collector
    assert sorted(collector.values()) == [11, 22]


OLD, NEW = Tag(1, "w000"), Tag(2, "w001")


def alike(servers, tag=OLD, value=b"a"):
    return [(server, tag, value) for server in servers]


# (case, (server, tag, value) entries, f, witnessed pairs in order)
WITNESS_CASES = [
    ("f witnesses are not enough", alike("ab"), 2, []),
    ("f + 1 witnesses are", alike("abc"), 2, [TaggedValue(OLD, b"a")]),
    ("a tag that is not a Tag is junk",
     alike("ab", tag=(1, "w000")), 1, []),
    ("an unhashable value is junk", alike("ab", value=[1]), 1, []),
    ("junk beside a witnessed pair",
     [("a", "junk", b"a"), ("b", OLD, [1])] + alike("cd"), 1,
     [TaggedValue(OLD, b"a")]),
    ("a server repeating a pair witnesses it once", alike("aaa"), 1, []),
    ("... also among other pairs",
     alike("aa", NEW, b"b") + alike("b"), 1, []),
    ("a quiet system", alike("abc"), 1, [TaggedValue(OLD, b"a")]),
    ("a straggler beside the quiet pair",
     alike("ab") + alike("c", NEW, b"b"), 1, [TaggedValue(OLD, b"a")]),
    ("ties come back first seen first",
     alike("a", NEW, b"y") + alike("bc", NEW, b"x") + alike("d", NEW, b"y"),
     1, [TaggedValue(NEW, b"y"), TaggedValue(NEW, b"x")]),
]


@pytest.mark.parametrize("case, entries, f, expected", WITNESS_CASES,
                         ids=[case[0] for case in WITNESS_CASES])
def test_witnessed(case, entries, f, expected):
    assert witnessed(entries, f) == expected
    assert witnessed(iter(entries), f) == expected
    # A trailing junk entry forces the counted path: same answer as the
    # quiet-system fast path.
    assert witnessed(entries + [("z", None, b"a")], f) == expected
    if expected:  # max keeps the first of equal tags
        assert max(expected, key=lambda tv: tv.tag) == expected[0]
