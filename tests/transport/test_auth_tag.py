"""The envelope's 16-byte tag: HMAC-SHA256 truncated to 128 bits."""

import asyncio
import hashlib
import hmac
from struct import pack

import pytest

from repro.core.messages import HealthAck, HealthPing
from repro.errors import AuthenticationError
from repro.runtime import LocalCluster
from repro.transport.auth import (
    BATCH_MARKER,
    MAC_BYTES,
    NAMELESS,
    NAMELESS_BATCH,
    Authenticator,
    KeyChain,
    single_signature,
)
from repro.transport.codec import read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2

PAYLOAD = b"query-tag"
BURST = [b"one", b"", b"three"]
BURST_BODY = 4 + sum(4 + len(payload) for payload in BURST)


@pytest.fixture
def chain():
    return KeyChain.from_secret(b"secret", ["a", "b"])


@pytest.fixture
def auth(chain):
    return Authenticator(chain)


def shapes(auth):
    """``name -> (frame, tag offset)`` for all four envelope shapes."""
    return {
        "single": (auth.seal("a", PAYLOAD), 2 + 1),
        "nameless": (auth.seal("a", PAYLOAD, named=False), 1),
        "batch": (auth.seal_batch("a", BURST), 2 + 2 + 1),
        "nameless-batch": (auth.seal_batch("a", BURST, named=False), 1),
    }


def full_digest(chain, sender, body):
    """The whole 32-byte HMAC-SHA256 an envelope's tag is cut from."""
    return hmac.new(chain.key_for(sender), sender.encode() + b"|" + body,
                    hashlib.sha256).digest()


def test_each_shape_has_its_exact_length(auth):
    name = b"a"
    frames = {shape: frame for shape, (frame, _) in shapes(auth).items()}
    assert len(frames["single"]) == 2 + len(name) + 16 + len(PAYLOAD)
    assert len(frames["nameless"]) == 1 + 16 + len(PAYLOAD)
    assert len(frames["batch"]) == 2 + 2 + len(name) + 16 + BURST_BODY
    assert len(frames["nameless-batch"]) == 1 + 16 + BURST_BODY
    assert frames["batch"][:2] == BATCH_MARKER
    assert frames["nameless"][0] == NAMELESS
    assert frames["nameless-batch"][0] == NAMELESS_BATCH


def test_the_tag_is_the_leading_half_of_the_digest(auth, chain):
    frame, at = shapes(auth)["single"]
    digest = full_digest(chain, "a", PAYLOAD)
    assert frame[at:at + MAC_BYTES] == digest[:MAC_BYTES]
    assert auth.sign("a", PAYLOAD) == digest[:MAC_BYTES]


@pytest.mark.parametrize("shape", ["single", "nameless", "batch",
                                   "nameless-batch"])
def test_flipping_any_tag_byte_is_rejected(auth, shape):
    frame, at = shapes(auth)[shape]
    assert auth.open_any(frame, "a")[0] == "a"
    for i in range(at, at + MAC_BYTES):
        for mask in (0x01, 0x80):
            forged = bytearray(frame)
            forged[i] ^= mask
            with pytest.raises(AuthenticationError):
                auth.open_any(bytes(forged), "a")


def test_a_full_digest_frame_is_rejected_in_every_shape(auth, chain):
    body = pack(">I", len(BURST)) + b"".join(
        pack(">I", len(payload)) + payload for payload in BURST)
    single, batch = (full_digest(chain, "a", PAYLOAD),
                     full_digest(chain, "a", body))
    for frame in (b"\x00\x01a" + single + PAYLOAD,
                  bytes([NAMELESS]) + single + PAYLOAD,
                  BATCH_MARKER + b"\x00\x01a" + batch + body,
                  bytes([NAMELESS_BATCH]) + batch + body):
        with pytest.raises(AuthenticationError):
            auth.open_any(frame, "a")
    with pytest.raises(AuthenticationError):
        auth.verify("a", PAYLOAD, single)


def test_single_signature_is_the_16_byte_tag(auth):
    found = shapes(auth)
    named, nameless = found["single"][0], found["nameless"][0]
    assert len(single_signature(named)) == MAC_BYTES
    assert single_signature(named) == single_signature(nameless)
    assert single_signature(found["batch"][0]) is None
    assert len(auth.sign("a", PAYLOAD)) == MAC_BYTES


def test_a_node_counts_a_full_digest_frame_as_bad_and_keeps_serving():
    async def scenario():
        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        try:
            node = cluster.nodes["s000"]
            auth = cluster.authenticator()
            chain = auth.keychain
            reader, writer = await asyncio.open_connection(*node.address)

            def bad_frames():
                return cluster.registry.counter_value(
                    "node_frames_bad_total", node="s000")

            ping = encode_message_v2(HealthPing(op_id=1))
            write_frame(writer, b"\x00\x04w000"
                        + full_digest(chain, "w000", ping) + ping)
            # Frames of one connection are served in order, so the ack to
            # a correctly sealed ping proves the first frame was handled.
            write_frame(writer, auth.seal(
                "w000", encode_message_v2(HealthPing(op_id=2))))
            await writer.drain()
            frame = await asyncio.wait_for(read_frame(reader), 5.0)
            sender, payloads = auth.open_any(frame, "s000")
            ack = decode_message_v2(payloads[0])
            writer.close()
            return sender, ack, bad_frames()
        finally:
            await cluster.stop()

    sender, ack, bad = asyncio.run(scenario())
    assert sender == "s000"
    assert isinstance(ack, HealthAck) and ack.op_id == 2
    assert bad == 1
