"""Tests for server snapshot/restore."""

import pytest

from repro.core.bcsr import BCSRServer, make_codec
from repro.core.bsr import BSRServer
from repro.core.messages import PutData, QueryData, QueryTag
from repro.core.persistence import restore_server, snapshot_server
from repro.core.regular import RegularBSRServer
from repro.core.tags import TAG_ZERO, Tag
from repro.errors import ProtocolError


def populated(cls):
    server = cls("s007", initial_value=b"v0")
    server.handle("w0", PutData(op_id=1, tag=Tag(1, "w0"), payload=b"first"))
    server.handle("w1", PutData(op_id=2, tag=Tag(2, "w1"), payload=b"second"))
    return server


@pytest.mark.parametrize("cls", [BSRServer, RegularBSRServer])
def test_roundtrip_replicated_servers(cls):
    original = populated(cls)
    restored = restore_server(snapshot_server(original))
    assert type(restored) is cls
    assert restored.server_id == "s007"
    assert restored.history == original.history
    # The restored server answers queries identically.
    [(_, a)] = original.handle("r", QueryData(op_id=9))
    [(_, b)] = restored.handle("r", QueryData(op_id=9))
    assert (a.tag, a.payload) == (b.tag, b.payload)


def test_an_abd_snapshot_restores_as_a_bsr_server():
    # ABD's servers once had a class of their own; a snapshot on disk that
    # names it is data, and restores as the BSR server ABD now builds.
    original = populated(BSRServer)
    snapshot = snapshot_server(original).replace(b'"BSRServer"',
                                                 b'"ABDServer"')
    restored = restore_server(snapshot)
    assert type(restored) is BSRServer
    assert restored.history == original.history


def test_roundtrip_bcsr_server():
    codec = make_codec(6, 1)
    original = BCSRServer("s002", 2, codec, initial_value=b"seed")
    element = codec.encode(b"coded-value")[2]
    original.handle("w", PutData(op_id=1, tag=Tag(1, "w"), payload=element))
    restored = restore_server(snapshot_server(original))
    assert isinstance(restored, BCSRServer)
    assert restored.index == 2
    assert restored.history == original.history
    assert (restored.codec.n, restored.codec.k) == (6, 1)


def test_bcsr_restore_with_shared_codec():
    codec = make_codec(6, 1)
    original = BCSRServer("s000", 0, codec)
    restored = restore_server(snapshot_server(original), codec=codec)
    assert restored.codec is codec


def test_max_history_survives_snapshot():
    server = BSRServer("s000", max_history=3)
    for i in range(1, 8):
        server.handle("w", PutData(op_id=i, tag=Tag(i, "w"),
                                   payload=f"v{i}".encode()))
    restored = restore_server(snapshot_server(server))
    assert restored.max_history == 3
    assert len(restored.history) == 3
    # Pruning still applies after restore.
    restored.handle("w", PutData(op_id=99, tag=Tag(99, "w"), payload=b"z"))
    assert len(restored.history) == 3


def test_restored_server_continues_protocol():
    """Crash-recovery: a restored server picks up where it left off."""
    server = populated(BSRServer)
    restored = restore_server(snapshot_server(server))
    [(_, tag_reply)] = restored.handle("w9", QueryTag(op_id=50))
    assert tag_reply.tag == Tag(2, "w1")
    restored.handle("w9", PutData(op_id=51, tag=Tag(3, "w9"), payload=b"post"))
    assert restored.latest.value == b"post"


def scribbled(snapshot):
    """``snapshot`` with the newest pair's tag edited by hand to
    ``Tag(2**64, "zz")``, above ``TAG_MAX``."""
    edited = snapshot.replace(b'{"__tag__":[2,"w1"]}',
                              b'{"__tag__":[%d,"zz"]}' % 2 ** 64)
    assert edited != snapshot
    return edited


@pytest.mark.parametrize("cls", [BSRServer, RegularBSRServer])
def test_a_scribbled_tag_is_dropped_on_restore(cls):
    """A pair enters a restored ``L`` through the admission rule: a tag
    out of range stays out, and the server still stores later puts."""
    original = populated(cls)
    restored = restore_server(scribbled(snapshot_server(original)))
    assert restored.history == original.history[:-1]
    assert restored.max_tag == Tag(1, "w0")
    restored.handle("w9", PutData(op_id=51, tag=Tag(3, "w9"), payload=b"post"))
    assert (restored.max_tag, restored.latest.value) == (Tag(3, "w9"), b"post")


def test_restore_keeps_the_newest_pairs_within_the_bound():
    server = BSRServer("s000")
    for i in range(1, 6):
        server.handle("w", PutData(op_id=i, tag=Tag(i, "w"),
                                   payload=f"v{i}".encode()))
    snapshot = snapshot_server(server).replace(b'"max_history":null',
                                               b'"max_history":2')
    assert restore_server(snapshot).history == server.history[-2:]


def test_snapshot_rejects_unknown_types():
    class Impostor:
        server_id = "x"
        history = []

    with pytest.raises(ProtocolError):
        snapshot_server(Impostor())


def test_restore_rejects_garbage():
    with pytest.raises(ProtocolError):
        restore_server(b"not json")
    with pytest.raises(ProtocolError):
        restore_server(b'{"type": "BSRServer", "server_id": "s", "history": []}')


def test_stale_snapshot_is_just_a_slow_server():
    """Restoring an old checkpoint yields an honestly-stale replica."""
    server = populated(BSRServer)
    early_snapshot = snapshot_server(BSRServer("s007", initial_value=b"v0"))
    stale = restore_server(early_snapshot)
    assert stale.max_tag == TAG_ZERO  # lost the two writes: merely slow
    # The protocol treats it like any other laggard: a new put catches it up.
    stale.handle("w", PutData(op_id=9, tag=Tag(2, "w1"), payload=b"second"))
    assert stale.latest.value == b"second"


# -- golden fixtures -----------------------------------------------------------
# Literal snapshot_server output recorded before persistence took over its
# own JSON value encoding: snapshots and table archives written by older
# builds must keep restoring, and the same state must keep producing the
# same bytes (a payload of ``None`` rides along as a JSON-native shape).

GOLDEN_BSR = (
    b'{"type":"BSRServer","server_id":"s007","max_history":8,"history":['
    b'{"__tv__":[{"__tag__":[0,""]},{"__b64__":"djA="}]},'
    b'{"__tv__":[{"__tag__":[1,"w0"]},{"__b64__":"Zmlyc3Q="}]},'
    b'{"__tv__":[{"__tag__":[2,"w1"]},{"__b64__":"AP8gYmlu"}]},'
    b'{"__tv__":[{"__tag__":[3,"w1"]},null]}]}'
)
GOLDEN_BCSR = (
    b'{"type":"BCSRServer","server_id":"s002","max_history":null,"history":['
    b'{"__tv__":[{"__tag__":[0,""]},{"__ce__":[2,{"__b64__":"AAAABHNlZWQ="}]}]},'
    b'{"__tv__":[{"__tag__":[1,"w"]},'
    b'{"__ce__":[2,{"__b64__":"AAAAC2NvZGVkLXZhbHVl"}]}]}],'
    b'"index":2,"codec":{"n":6,"k":1}}'
)


def golden_bsr_server():
    server = BSRServer("s007", initial_value=b"v0", max_history=8)
    server.handle("w0", PutData(op_id=1, tag=Tag(1, "w0"), payload=b"first"))
    server.handle("w1", PutData(op_id=2, tag=Tag(2, "w1"),
                                payload=b"\x00\xff bin"))
    server.handle("w1", PutData(op_id=3, tag=Tag(3, "w1"), payload=None))
    return server


def golden_bcsr_server():
    codec = make_codec(6, 1)
    server = BCSRServer("s002", 2, codec, initial_value=b"seed")
    server.handle("w", PutData(op_id=1, tag=Tag(1, "w"),
                               payload=codec.encode(b"coded-value")[2]))
    return server


@pytest.mark.parametrize("build,golden", [
    (golden_bsr_server, GOLDEN_BSR),
    (golden_bcsr_server, GOLDEN_BCSR),
], ids=["bsr", "bcsr"])
def test_golden_snapshot_bytes(build, golden):
    server = build()
    assert snapshot_server(server) == golden
    restored = restore_server(golden)
    assert type(restored) is type(server)
    assert restored.history == server.history
    assert snapshot_server(restored) == golden
