"""Unit and property tests for tags."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tags import TAG_MAX, TAG_ZERO, Tag, TaggedValue, tag_in_range

writers = st.text(alphabet="abcdwrs0123456789", min_size=1, max_size=6)
tags = st.builds(Tag, st.integers(min_value=0, max_value=1000), writers)


def test_tag_orders_by_number_first():
    assert Tag(1, "zzz") < Tag(2, "aaa")


def test_tag_ties_broken_by_writer_id():
    assert Tag(3, "w001") < Tag(3, "w002")
    assert Tag(3, "w002") > Tag(3, "w001")


def test_tag_equality():
    assert Tag(1, "w") == Tag(1, "w")
    assert Tag(1, "w") != Tag(1, "x")
    assert Tag(1, "w") != Tag(2, "w")


def test_tag_zero_smaller_than_any_real_tag():
    assert TAG_ZERO < Tag(1, "w000")
    assert TAG_ZERO < Tag(0, "w000")  # empty writer id sorts first


def test_negative_tag_number_rejected():
    with pytest.raises(ValueError):
        Tag(-1, "w")


def test_next_for_increments_and_rebrands():
    tag = Tag(4, "w001")
    successor = tag.next_for("w007")
    assert successor.num == 5 and successor.writer == "w007"
    assert tag < successor


def test_tag_is_hashable_and_usable_in_sets():
    assert len({Tag(1, "a"), Tag(1, "a"), Tag(2, "a")}) == 2


def test_tagged_value_orders_by_tag():
    low = TaggedValue(Tag(1, "a"), b"first")
    high = TaggedValue(Tag(2, "a"), b"second")
    assert low < high
    assert max([low, high], key=lambda tv: tv.tag) is high


def test_tagged_value_hashable_with_bytes():
    pair = TaggedValue(Tag(1, "w"), b"v")
    assert pair in {pair}


@given(tags, tags)
def test_total_order_antisymmetry(a, b):
    assert (a < b) + (b < a) + (a == b) == 1


@given(tags, tags, tags)
def test_total_order_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


@given(tags, writers)
def test_next_for_strictly_increases(tag, writer):
    assert tag < tag.next_for(writer)


def _servers():
    from repro.core.bcsr import BCSRServer, make_codec
    from repro.core.bsr import BSRServer
    from repro.core.regular import RegularBSRServer

    return (BSRServer("s000"), RegularBSRServer("s000"),
            BCSRServer("s000", 0, make_codec(6, 1)))


def _put(server, num):
    from repro.core.messages import PutData

    payload = (server.codec.encode(b"v")[0] if hasattr(server, "codec")
               else b"v")
    return server.handle("w000", PutData(op_id=1, tag=Tag(num, "w000"),
                                         payload=payload))


def _disseminate(algorithm, num):
    """A writer's start of ``Tag(num, "w000")`` handed to every server of
    an all-correct ``algorithm`` deployment, and the server-to-server
    traffic carried until quiet; the servers, and what they sent the
    writer."""
    from collections import deque

    from repro.core.messages import MprWrite, RBSend, Rb2Send
    from repro.protocols.fleet import Fleet

    start = {"rb": RBSend, "rb2": Rb2Send, "mpr": MprWrite}[algorithm]
    fleet = Fleet.build(algorithm, f=1)
    servers = {pid: fleet.server(pid) for pid in fleet.server_ids}
    message = start(op_id=1, tag=Tag(num, "w000"), payload=b"v",
                    source="w000")
    pending = deque(("w000", pid, message) for pid in servers)
    to_writer = []
    while pending:
        sender, pid, message = pending.popleft()
        for dest, out in servers[pid].handle(sender, message):
            if dest in servers:
                pending.append((pid, dest, out))
            else:
                to_writer.append(out)
    return list(servers.values()), to_writer


def test_every_correct_server_refuses_a_tag_above_tag_max():
    # The simulator hands objects over without the codec, so the store
    # enforces the bound itself: a pair out of range is neither kept nor
    # acknowledged (kept, it would outrank every later write for good).
    from repro.protocols.fleet import Fleet

    mpr = Fleet.build("mpr", f=1).server("s000")  # a reader's write-back
    for server in _servers() + (mpr,):
        assert _put(server, TAG_MAX + 1) == []
        assert server.max_tag == TAG_ZERO
        [(_, ack)] = _put(server, TAG_MAX)
        assert ack.tag.num == TAG_MAX and server.max_tag.num == TAG_MAX
    # A mesh server stores only what its dissemination delivers: a
    # broadcast (rb, rb2) or an echo-validated write (mpr).
    for algorithm in ("rb", "rb2", "mpr"):
        servers, to_writer = _disseminate(algorithm, TAG_MAX + 1)
        assert to_writer == []
        assert all(server.max_tag == TAG_ZERO for server in servers)
        servers, to_writer = _disseminate(algorithm, TAG_MAX)
        assert [ack.tag.num for ack in to_writer] == [TAG_MAX] * len(servers)
        assert all(server.max_tag.num == TAG_MAX for server in servers)


def test_tag_in_range():
    assert tag_in_range(Tag(TAG_MAX, "w")) and tag_in_range(TAG_ZERO)
    assert not tag_in_range(Tag(2 ** 63, "w"))
    assert not tag_in_range(None) and not tag_in_range((1, "w"))
