"""HMAC-SHA256 message authentication.

The system model assumes channels "provide message authentication using
digital signatures", preventing Byzantine servers from spreading
misinformation about a message's sender.  The asyncio runtime realises this
with per-process HMAC keys: every process holds its own signing key, and
every verifier knows every process's key (a symmetric stand-in for a PKI --
adequate because the model's adversary forges *senders*, not arbitrary
third-party messages).

Two envelope shapes share the wire:

* **single** -- ``name_len(2) | sender | sig(32) | payload``: one MAC
  around one payload.
* **batch** -- ``0xFFFF | name_len(2) | sender | sig(32) | count(4) |
  (len(4) | payload)*``: one MAC over a whole coalesced burst, with
  per-frame offsets recovered from the length prefixes.  ``0xFFFF`` is
  an impossible sender-name length (names are capped at
  :data:`MAX_SENDER_BYTES`), so :meth:`Authenticator.open_any`
  distinguishes the shapes without negotiation and a connection may mix
  both freely.

Hot-path caches: per-sender key lookups, encoded names and the HMAC key
schedule (via ``hmac.new(...).copy()``) are computed once per sender and
reused for every subsequent seal/verify, which matters when a burst of
frames shares one signer.
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

#: Byte length of an HMAC-SHA256 signature.
_SIG_BYTES = 32

#: Soft cap on the payload bytes one batch envelope carries; bursts
#: larger than this are split so no frame approaches the frame cap.
MAX_BATCH_BYTES = 1024 * 1024

_PACK_U16 = Struct(">H").pack
_PACK_U32 = Struct(">I").pack
_UNPACK_U32 = Struct(">I").unpack_from


class KeyChain:
    """Per-process signing keys, derivable from one cluster secret.

    When built :meth:`from_secret`, keys for processes not seen before are
    derived on demand -- every cluster member can then verify any process
    that knows the secret, without pre-registering the full client roster.
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
        if pid not in self._keys:
            if self._secret is None:
                raise AuthenticationError(f"no key registered for {pid!r}")
            self._keys[pid] = self._derive(self._secret, pid)
        return self._keys[pid]

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
        #: ``name_len | sender`` -- the envelope head both shapes share.
        self.head = _PACK_U16(len(raw)) + raw
        #: Keyed MAC with the ``sender|`` prefix absorbed; ``.copy()``
        #: skips the per-message key schedule.
        self.mac = hmac.new(key, raw + b"|", hashlib.sha256)


class Authenticator:
    """Signs and verifies framed messages with HMAC-SHA256."""

    def __init__(self, keychain: KeyChain) -> None:
        self.keychain = keychain
        self._senders: Dict[ProcessId, _SenderState] = {}
        self._names: Dict[bytes, Tuple[str, _SenderState]] = {}
        self._version = keychain.version

    def _state_for(self, pid: ProcessId) -> _SenderState:
        if self._version != self.keychain.version:
            self._senders.clear()
            self._names.clear()
            self._version = self.keychain.version
        state = self._senders.get(pid)
        if state is None:
            state = _SenderState(pid, self.keychain.key_for(pid))
            self._senders[pid] = state
        return state

    def _state_for_name(self, raw: bytes) -> Tuple[str, _SenderState]:
        if self._version != self.keychain.version:
            self._senders.clear()
            self._names.clear()
            self._version = self.keychain.version
        cached = self._names.get(raw)
        if cached is None:
            try:
                sender = raw.decode()
            except UnicodeDecodeError as exc:
                raise AuthenticationError(
                    f"undecodable sender name: {exc}") from exc
            cached = (sender, self._state_for(sender))
            self._names[raw] = cached
        return cached

    def sign(self, sender: ProcessId, payload) -> bytes:
        """MAC over ``sender || payload`` with the sender's key."""
        mac = self._state_for(sender).mac.copy()
        mac.update(payload)
        return mac.digest()

    def verify(self, sender: ProcessId, payload, signature) -> None:
        """Raise :class:`AuthenticationError` unless the MAC checks out."""
        expected = self.sign(sender, payload)
        if not hmac.compare_digest(expected, bytes(signature)):
            raise AuthenticationError(
                f"bad signature on message claiming to be from {sender!r}"
            )

    def seal(self, sender: ProcessId, payload) -> bytes:
        """Produce a self-contained signed envelope: sender|sig|payload."""
        state = self._state_for(sender)
        mac = state.mac.copy()
        mac.update(payload)
        return state.head + mac.digest() + payload

    def seal_batch(self, sender: ProcessId, payloads: List[bytes]) -> bytes:
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
        mac = state.mac.copy()
        mac.update(body)
        return BATCH_MARKER + state.head + mac.digest() + body

    def seal_frames(self, sender: ProcessId, payloads: List[bytes],
                    batch: bool = True) -> List[bytes]:
        """Seal a burst into wire frames, batching when it pays off.

        One-payload bursts (and every payload under ``batch=False``) use
        the single envelope; larger bursts collapse into batch envelopes
        of at most :data:`MAX_BATCH_BYTES` payload bytes each, replacing
        N HMACs with one per envelope.
        """
        if not batch or len(payloads) == 1:
            return [self.seal(sender, payload) for payload in payloads]
        frames: List[bytes] = []
        chunk: List[bytes] = []
        size = 0
        for payload in payloads:
            if chunk and size + len(payload) > MAX_BATCH_BYTES:
                frames.append(self.seal_batch(sender, chunk)
                              if len(chunk) > 1 else
                              self.seal(sender, chunk[0]))
                chunk, size = [], 0
            chunk.append(payload)
            size += len(payload)
        if chunk:
            frames.append(self.seal_batch(sender, chunk)
                          if len(chunk) > 1 else self.seal(sender, chunk[0]))
        return frames

    def open(self, sealed) -> tuple:
        """Verify a single sealed envelope; returns ``(sender, payload)``."""
        if len(sealed) < 2:
            raise AuthenticationError("truncated envelope")
        name_len = sealed[0] << 8 | sealed[1]
        if name_len > MAX_SENDER_BYTES:
            raise AuthenticationError(
                f"absurd sender name length {name_len}")
        if len(sealed) < 2 + name_len + _SIG_BYTES:
            raise AuthenticationError("truncated envelope")
        view = memoryview(sealed)
        sender, state = self._state_for_name(bytes(view[2:2 + name_len]))
        signature = view[2 + name_len:2 + name_len + _SIG_BYTES]
        payload = view[2 + name_len + _SIG_BYTES:]
        mac = state.mac.copy()
        mac.update(payload)
        if not hmac.compare_digest(mac.digest(), bytes(signature)):
            raise AuthenticationError(
                f"bad signature on message claiming to be from {sender!r}"
            )
        return sender, payload

    def open_batch(self, sealed) -> Tuple[ProcessId, List[memoryview]]:
        """Verify a batch envelope; returns ``(sender, payloads)``.

        One MAC check covers every payload; the returned views alias the
        input buffer (zero-copy -- decode them before recycling it).
        """
        view = memoryview(sealed)
        if len(view) < 4:
            raise AuthenticationError("truncated batch envelope")
        name_len = view[2] << 8 | view[3]
        if name_len > MAX_SENDER_BYTES:
            raise AuthenticationError(
                f"absurd sender name length {name_len}")
        body_at = 4 + name_len + _SIG_BYTES
        if len(view) < body_at + 4:
            raise AuthenticationError("truncated batch envelope")
        sender, state = self._state_for_name(bytes(view[4:4 + name_len]))
        signature = view[body_at - _SIG_BYTES:body_at]
        body = view[body_at:]
        mac = state.mac.copy()
        mac.update(body)
        if not hmac.compare_digest(mac.digest(), bytes(signature)):
            raise AuthenticationError(
                f"bad signature on batch claiming to be from {sender!r}"
            )
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
        return sender, payloads

    def open_any(self, sealed) -> Tuple[ProcessId, List[memoryview]]:
        """Verify either envelope shape; returns ``(sender, payloads)``.

        Single envelopes come back as one-element lists so read loops
        can treat every verified frame uniformly.
        """
        if len(sealed) >= 2 and sealed[0] == 0xFF and sealed[1] == 0xFF:
            return self.open_batch(sealed)
        sender, payload = self.open(sealed)
        return sender, [payload]
