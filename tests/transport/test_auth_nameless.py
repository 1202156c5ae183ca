"""Nameless envelopes: the same MAC, verified under the link's peer."""

import pytest

from repro.errors import AuthenticationError
from repro.transport.auth import (
    MAC_BYTES,
    NAMELESS,
    NAMELESS_BATCH,
    Authenticator,
    KeyChain,
    single_signature,
)


@pytest.fixture
def auth():
    return Authenticator(KeyChain.from_secret(b"secret", ["a", "b"]))


def test_nameless_shapes_carry_the_named_mac_without_the_name(auth):
    named, nameless = auth.seal("a", b"hello"), auth.seal("a", b"hello",
                                                          named=False)
    assert named[0] == 0 and nameless[0] == NAMELESS
    assert nameless[1:] == named[2 + len(b"a"):]  # sig | payload
    assert len(named) - len(nameless) == len(b"a") + 1
    batch = auth.seal_batch("a", [b"x", b"y"], named=False)
    assert batch[0] == NAMELESS_BATCH
    assert batch[1:] == auth.seal_batch("a", [b"x", b"y"])[4 + len(b"a"):]
    assert single_signature(nameless) == single_signature(named)
    assert single_signature(batch) is None


def test_a_nameless_frame_opens_only_under_the_peers_key(auth):
    for frame in auth.seal_frames("a", [b"one"], named=False) + \
            auth.seal_frames("a", [b"one", b"two"], named=False):
        with pytest.raises(AuthenticationError):
            auth.open_any(frame)
        with pytest.raises(AuthenticationError):
            auth.open_any(frame, "b")
        sender, payloads = auth.open_any(frame, "a")
        assert sender == "a" and bytes(payloads[0]) == b"one"


def test_a_named_frame_on_a_link_must_name_its_peer(auth):
    frame = auth.seal("b", b"replayed")
    with pytest.raises(AuthenticationError, match="link to 'a'"):
        auth.open_any(frame, "a")
    assert auth.open_any(frame, "b")[0] == "b"
    assert auth.open_any(frame)[0] == "b"


def test_bench_layer_calls_keep_named_frames(auth):
    burst = [b"p1", b"p2", b"p3"]
    frames = auth.seal_frames("b", burst, batch=True)
    assert [frame[:2] for frame in frames] == [b"\xff\xff"]
    sender, payloads = auth.open_any(frames[0])
    assert sender == "b" and [bytes(p) for p in payloads] == burst
    [single] = auth.seal_frames("b", [b"solo"])
    assert auth.open_any(single)[0] == "b"


def test_forged_names_leave_no_authentication_state():
    chain = KeyChain.from_secret(b"secret", ["s000"])
    auth = Authenticator(chain)
    auth.open_any(auth.seal("s000", b"warm"))
    sizes = len(auth._names), len(auth._senders), len(chain._keys)
    for i in range(10_000):
        name = f"fake{i}".encode()
        forged = (len(name).to_bytes(2, "big") + name
                  + b"\x00" * MAC_BYTES + b"x")
        with pytest.raises(AuthenticationError):
            auth.open_any(forged)
    assert (len(auth._names), len(auth._senders), len(chain._keys)) == sizes
    # A name whose frame verifies is cached, and only then.
    newcomer = Authenticator(KeyChain.from_secret(b"secret"))
    auth.open_any(newcomer.seal("w042", b"real"))
    assert len(auth._names) == sizes[0] + 1
    assert len(chain._keys) == sizes[2]
