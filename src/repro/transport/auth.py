"""HMAC-SHA-256-128 message authentication.

The system model assumes channels "provide message authentication using
digital signatures", preventing Byzantine servers from spreading
misinformation about a message's sender.  The asyncio runtime realises this
with per-process HMAC keys: every process holds its own signing key, and
every verifier knows every process's key (a symmetric stand-in for a PKI --
adequate because the model's adversary forges *senders*, not arbitrary
third-party messages).

Four envelope shapes share the wire.  Every one carries a 16-byte tag,
the leading :data:`MAC_BYTES` of the HMAC-SHA256 over ``sender |
payload`` under the sender's key; they differ only in whether the
sender's *name* travels too:

* **single** -- ``name_len(2) | sender | sig(16) | payload``: one MAC
  around one payload.  Names are capped at :data:`MAX_SENDER_BYTES`, so
  its first byte is always ``0x00``.
* **batch** -- ``0xFFFF | name_len(2) | sender | sig(16) | count(4) |
  (len(4) | payload)*``: one MAC over a whole coalesced burst, with
  per-frame offsets recovered from the length prefixes.
* **nameless single** -- ``0xFE | sig(16) | payload`` and **nameless
  batch** -- ``0xFD | sig(16) | count(4) | (len(4) | payload)*``: the
  same MACs without the name, for a receiver that already knows who is
  at the other end.  A node answers on a connection that a protocol
  party dialed *by id* through a :class:`~repro.runtime.link.Link`, so
  the link names the sender and :meth:`Authenticator.open_any` verifies
  the frame under that peer's key.  Without a peer a nameless frame is
  rejected.

The first byte tells the shapes apart without negotiation (no named
envelope starts with ``0xFE`` or ``0xFD``), and a connection may mix
them freely.  Given a peer, a *named* frame must name that peer: a frame
of another sender replayed onto the link fails either way (wrong name, or
the peer's key does not verify it).

Why 16 bytes: an HMAC's output may be truncated to its leading bits
(RFC 2104 section 5), and HMAC-SHA-256-128 is the standard 128-bit
truncation (RFC 4868).  A MAC only has to stop forgery, not collisions
an attacker can search for offline: without the key, each guess at a
tag is one frame sent to a verifier, so forging one takes about 2**128
online tries.  The payloads it guards are mostly 5-80 bytes, so the
digest's second half would be most of an envelope's overhead.  A frame
carrying the whole untruncated digest is simply a bad frame.

Hot-path caches: per-sender key lookups, encoded names and the HMAC key
schedule (via ``hmac.new(...).copy()``) are computed once per sender and
reused for every subsequent seal/verify, which matters when a burst of
frames shares one signer.  A name read off the wire is cached -- and its
derived key kept -- only once a frame under that name has verified, so
frames under forged names cost a key derivation each and leave nothing
behind.
"""

from __future__ import annotations

import hashlib
import hmac
from struct import Struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import AuthenticationError
from repro.types import ProcessId

#: Upper bound on an encoded sender name.  Real process ids are a few
#: bytes; anything close to the 2-byte field's range is an attack or a
#: corrupted frame, and rejecting it before slicing keeps a bogus
#: ``name_len`` from walking past the envelope.
MAX_SENDER_BYTES = 255

#: First two bytes of a batch envelope -- deliberately an impossible
#: ``name_len`` so the two envelope shapes cannot be confused.
BATCH_MARKER = b"\xff\xff"

#: First byte of a nameless single / nameless batch envelope.
NAMELESS, NAMELESS_BATCH = 0xFE, 0xFD

#: Byte length of the tag every envelope carries: HMAC-SHA256 truncated
#: to its leading 128 bits (HMAC-SHA-256-128, RFC 4868).
MAC_BYTES = 16

#: Soft cap on the payload bytes one batch envelope carries; bursts
#: larger than this are split so no frame approaches the frame cap.
MAX_BATCH_BYTES = 1024 * 1024

_PACK_U16 = Struct(">H").pack
_PACK_U32 = Struct(">I").pack
_UNPACK_U32 = Struct(">I").unpack_from
_NAMELESS_HEAD = bytes([NAMELESS])
_NAMELESS_BATCH_HEAD = bytes([NAMELESS_BATCH])


class KeyChain:
    """Per-process signing keys, derivable from one cluster secret.

    When built :meth:`from_secret`, keys for processes not seen before are
    derived on demand -- every cluster member can then verify any process
    that knows the secret, without pre-registering the full client roster.
    A derived key is not stored: whoever needs it again caches it.
    """

    def __init__(self, keys: Dict[ProcessId, bytes],
                 secret: Optional[bytes] = None) -> None:
        self._keys = dict(keys)
        self._secret = secret
        #: Bumped on every explicit rotation so caches can invalidate.
        self.version = 0

    @classmethod
    def from_secret(cls, secret: bytes,
                    processes: Iterable[ProcessId] = ()) -> "KeyChain":
        """Derive one key per process from a shared cluster secret."""
        keys = {
            pid: cls._derive(secret, pid)
            for pid in processes
        }
        return cls(keys, secret=secret)

    @staticmethod
    def _derive(secret: bytes, pid: ProcessId) -> bytes:
        return hashlib.sha256(secret + b"|" + pid.encode()).digest()

    def key_for(self, pid: ProcessId) -> bytes:
        """The signing key of ``pid``; derives it when a secret is set."""
        key = self._keys.get(pid)
        if key is None:
            if self._secret is None:
                raise AuthenticationError(f"no key registered for {pid!r}")
            key = self._derive(self._secret, pid)
        return key

    def add(self, pid: ProcessId, key: bytes) -> None:
        """Register (or rotate) a process key."""
        self._keys[pid] = key
        self.version += 1

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self._keys


class _SenderState:
    """Cached per-sender signing material."""

    __slots__ = ("name", "head", "mac")

    def __init__(self, pid: ProcessId, key: bytes) -> None:
        raw = pid.encode()
        if len(raw) > MAX_SENDER_BYTES:
            raise AuthenticationError(
                f"sender name of {len(raw)} bytes exceeds the cap")
        self.name = raw
        #: ``name_len | sender`` -- the head both named shapes share.
        self.head = _PACK_U16(len(raw)) + raw
        #: Keyed MAC with the ``sender|`` prefix absorbed; ``.copy()``
        #: skips the per-message key schedule.
        self.mac = hmac.new(key, raw + b"|", hashlib.sha256)

    def tag(self, body) -> bytes:
        """The :data:`MAC_BYTES` tag of ``sender | body``."""
        mac = self.mac.copy()
        mac.update(body)
        return mac.digest()[:MAC_BYTES]


def single_signature(frame) -> Optional[bytes]:
    """The HMAC tag of a single envelope (named or nameless), ``None``
    for a batch one; ``frame`` must be well formed (already opened)."""
    first = frame[0]
    if first == NAMELESS:
        return bytes(frame[1:1 + MAC_BYTES])
    if first == 0:  # a named single: name_len < 256
        at = 2 + frame[1]
        return bytes(frame[at:at + MAC_BYTES])
    return None


class Authenticator:
    """Signs and verifies framed messages with HMAC-SHA-256-128."""

    def __init__(self, keychain: KeyChain) -> None:
        self.keychain = keychain
        self._senders: Dict[ProcessId, _SenderState] = {}
        self._names: Dict[bytes, Tuple[str, _SenderState]] = {}
        self._version = keychain.version

    def _current(self) -> None:
        if self._version != self.keychain.version:
            self._senders.clear()
            self._names.clear()
            self._version = self.keychain.version

    def _state_for(self, pid: ProcessId) -> _SenderState:
        """Cached state of a sender this process chose (its own identity,
        or the peer a link dialed) -- never of a name read off the wire."""
        self._current()
        state = self._senders.get(pid)
        if state is None:
            state = self._senders[pid] = _SenderState(
                pid, self.keychain.key_for(pid))
        return state

    def _state_for_name(self, raw: bytes) -> Tuple[str, _SenderState, bool]:
        """``(sender, state, cached)`` for a name read off the wire;
        an uncached one is cached by the caller once its frame verifies."""
        self._current()
        cached = self._names.get(raw)
        if cached is not None:
            return cached[0], cached[1], True
        try:
            sender = raw.decode()
        except UnicodeDecodeError as exc:
            raise AuthenticationError(
                f"undecodable sender name: {exc}") from exc
        state = self._senders.get(sender)
        if state is None:
            state = _SenderState(sender, self.keychain.key_for(sender))
        return sender, state, False

    def sign(self, sender: ProcessId, payload) -> bytes:
        """MAC over ``sender || payload`` with the sender's key."""
        return self._state_for(sender).tag(payload)

    def verify(self, sender: ProcessId, payload, signature) -> None:
        """Raise :class:`AuthenticationError` unless the MAC checks out."""
        expected = self.sign(sender, payload)
        if not hmac.compare_digest(expected, bytes(signature)):
            raise AuthenticationError(
                f"bad signature on message claiming to be from {sender!r}"
            )

    def seal(self, sender: ProcessId, payload, named: bool = True) -> bytes:
        """Produce a self-contained signed envelope: sender|sig|payload
        (``sig|payload`` behind the nameless marker unless ``named``)."""
        state = self._state_for(sender)
        return ((state.head if named else _NAMELESS_HEAD)
                + state.tag(payload) + payload)

    def seal_batch(self, sender: ProcessId, payloads: List[bytes],
                   named: bool = True) -> bytes:
        """Seal a burst of payloads under **one** MAC.

        The signature covers the whole payload section (count plus every
        length-prefixed payload), so per-frame tampering, reordering and
        truncation are all detected by the single verify in
        :meth:`open_any`.
        """
        state = self._state_for(sender)
        parts = [_PACK_U32(len(payloads))]
        for payload in payloads:
            parts.append(_PACK_U32(len(payload)))
            parts.append(payload)
        body = b"".join(parts)
        return ((BATCH_MARKER + state.head if named else _NAMELESS_BATCH_HEAD)
                + state.tag(body) + body)

    def seal_frames(self, sender: ProcessId, payloads: List[bytes],
                    batch: bool = True, named: bool = True) -> List[bytes]:
        """Seal a burst into wire frames, batching when it pays off.

        One-payload bursts (and every payload under ``batch=False``) use
        the single envelope; larger bursts collapse into batch envelopes
        of at most :data:`MAX_BATCH_BYTES` payload bytes each, replacing
        N HMACs with one per envelope.  ``named=False`` leaves the
        sender's name off every envelope.
        """
        if not batch or len(payloads) == 1:
            return [self.seal(sender, payload, named) for payload in payloads]
        frames: List[bytes] = []
        chunk: List[bytes] = []
        size = 0
        for payload in payloads:
            if chunk and size + len(payload) > MAX_BATCH_BYTES:
                frames.append(self.seal_batch(sender, chunk, named)
                              if len(chunk) > 1 else
                              self.seal(sender, chunk[0], named))
                chunk, size = [], 0
            chunk.append(payload)
            size += len(payload)
        if chunk:
            frames.append(self.seal_batch(sender, chunk, named)
                          if len(chunk) > 1 else
                          self.seal(sender, chunk[0], named))
        return frames

    def _open(self, sealed, peer: Optional[ProcessId]):
        """Verify any envelope shape; ``(sender, body, batch)``."""
        view = memoryview(sealed)
        size = len(view)
        first = view[0] if size else -1
        batch = first == NAMELESS_BATCH
        if batch or first == NAMELESS:
            if peer is None:
                raise AuthenticationError(
                    "nameless envelope and no peer to verify it under")
            at, name_len = 1, None
        else:
            batch = first == 0xFF and size > 1 and view[1] == 0xFF
            head = 2 if batch else 0
            if size < head + 2:
                raise AuthenticationError("truncated envelope")
            name_len = view[head] << 8 | view[head + 1]
            if name_len > MAX_SENDER_BYTES:
                raise AuthenticationError(
                    f"absurd sender name length {name_len}")
            at = head + 2 + name_len
        if size < at + MAC_BYTES + (4 if batch else 0):
            raise AuthenticationError("truncated envelope")
        cached = True
        if peer is not None:
            sender, state = peer, self._state_for(peer)
            if name_len is not None and view[at - name_len:at] != state.name:
                raise AuthenticationError(
                    f"a frame naming {bytes(view[at - name_len:at])!r} "
                    f"on the link to {peer!r}")
        else:
            raw = bytes(view[at - name_len:at])
            sender, state, cached = self._state_for_name(raw)
        body = view[at + MAC_BYTES:]
        if not hmac.compare_digest(state.tag(body),
                                   bytes(view[at:at + MAC_BYTES])):
            raise AuthenticationError(
                f"bad signature on a frame claiming to be from {sender!r}")
        if not cached:
            self._names[raw] = (sender, state)
            self._senders.setdefault(sender, state)
        return sender, body, batch

    def open(self, sealed, peer: Optional[ProcessId] = None) -> tuple:
        """Verify a single envelope; returns ``(sender, payload)``."""
        sender, body, batch = self._open(sealed, peer)
        if batch:
            raise AuthenticationError("a batch envelope, not a single one")
        return sender, body

    def open_batch(self, sealed, peer: Optional[ProcessId] = None
                   ) -> Tuple[ProcessId, List[memoryview]]:
        """Verify a batch envelope; returns ``(sender, payloads)``.

        One MAC check covers every payload; the returned views alias the
        input buffer (zero-copy -- decode them before recycling it).
        """
        sender, body, batch = self._open(sealed, peer)
        if not batch:
            raise AuthenticationError("a single envelope, not a batch one")
        return sender, _split(body)

    def open_any(self, sealed, peer: Optional[ProcessId] = None
                 ) -> Tuple[ProcessId, List[memoryview]]:
        """Verify any envelope shape; returns ``(sender, payloads)``.

        ``peer`` is whom the receiving link dialed: a nameless frame is
        verified under its key, and a named one must name it.  Single
        envelopes come back as one-element lists so read loops can treat
        every verified frame uniformly.
        """
        sender, body, batch = self._open(sealed, peer)
        return sender, _split(body) if batch else [body]


def _split(body) -> List[memoryview]:
    """The payloads of a verified batch body (views into it)."""
    body_len = len(body)
    count = _UNPACK_U32(body, 0)[0]
    payloads: List[memoryview] = []
    unpack = _UNPACK_U32
    pos = 4
    for _ in range(count):
        if pos + 4 > body_len:
            raise AuthenticationError("batch envelope length mismatch")
        length = unpack(body, pos)[0]
        pos += 4
        end = pos + length
        if end > body_len:
            raise AuthenticationError("batch envelope length mismatch")
        payloads.append(body[pos:end])
        pos = end
    if pos != body_len:
        raise AuthenticationError("batch envelope length mismatch")
    return payloads
