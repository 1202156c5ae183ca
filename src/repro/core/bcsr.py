"""BCSR: the MDS-coded Byzantine-tolerant safe register (Section IV).

Faithful implementation of Figures 4-6 on top of the ``[n, k]``
Reed-Solomon code with ``k = n - 5f`` (Section IV-A, error budget
``e = 2f``):

* **Server** (Fig 6): identical to BSR except that it stores its own coded
  element ``c_i`` instead of the full value.
* **Write** (Fig 4): same two phases as BSR, but ``put-data`` sends server
  ``i`` only its element ``c_i = Phi_i(v)``.
* **Read** (Fig 5): one round.  The reader collects ``n - f`` coded
  elements and attempts to decode; stale or corrupted elements (at most
  ``2f`` of them, by Lemma 4's counting) are fixed by the Berlekamp-Welch
  decoder.  If decoding is impossible the read returns the initial value
  ``v0`` -- permitted by safety only when the read is concurrent with a
  write, which Lemma 4 shows is the only case where it can happen.

Resilience: ``n >= 5f + 1`` (Lemma 4 and Theorem 6).  Values are ``bytes``.

Extension, not in Fig 5: the reader's :class:`~repro.erasure.striping.DecodeMemo`
spares it a decode an earlier read already did -- observationally identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.messages import (
    DataReply,
    PutAck,
    PutData,
    QueryData,
    QueryTag,
    TagReply,
)
from repro.core.operation import ClientOperation, ReplyCollector
from repro.core.quorum import bcsr_dimension, kth_highest, validate_bcsr_config
from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.erasure.striping import CodedElement, DecodeMemo, StripedCodec
from repro.errors import DecodingError
from repro.types import Envelope, ProcessId


def make_codec(n: int, f: int) -> StripedCodec:
    """The ``[n, n - 5f]`` striped Reed-Solomon codec BCSR uses."""
    return StripedCodec(n, bcsr_dimension(n, f))


class BCSRServer:
    """State machine for one BCSR server (Fig 6).

    ``index`` is the server's zero-based codeword position; the initial
    history entry holds the server's coded element of the initial value.
    """

    def __init__(self, server_id: ProcessId, index: int, codec: StripedCodec,
                 initial_value: bytes = b"",
                 max_history: Optional[int] = None) -> None:
        if not 0 <= index < codec.n:
            raise ValueError(f"server index {index} outside codeword [0, {codec.n})")
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be at least 1")
        self.server_id = server_id
        self.index = index
        self.codec = codec
        self.max_history = max_history
        initial_element = codec.encode(initial_value)[index]
        self.history: List[TaggedValue] = [TaggedValue(TAG_ZERO, initial_element)]

    @property
    def latest(self) -> TaggedValue:
        """The ``(tag, coded element)`` pair with the highest tag."""
        return self.history[-1]

    @property
    def max_tag(self) -> Tag:
        """The highest tag in ``L``."""
        return self.history[-1].tag

    def storage_bytes(self) -> int:
        """Bytes of coded data currently stored (for experiment E4)."""
        element = self.latest.value
        return len(element.data) if isinstance(element, CodedElement) else 0

    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Dispatch one incoming message; returns outgoing envelopes."""
        if isinstance(message, QueryTag):
            return [(sender, TagReply(op_id=message.op_id, tag=self.max_tag))]
        if isinstance(message, PutData):
            if message.tag > self.max_tag:
                self.history.append(TaggedValue(message.tag, message.payload))
                if (self.max_history is not None
                        and len(self.history) > self.max_history):
                    del self.history[: len(self.history) - self.max_history]
            return [(sender, PutAck(op_id=message.op_id, tag=message.tag))]
        if isinstance(message, QueryData):
            latest = self.latest
            return [(sender, DataReply(op_id=message.op_id, tag=latest.tag,
                                       payload=latest.value))]
        return []


class BCSRWriteOperation(ClientOperation):
    """A two-phase BCSR write (Fig 4): per-server coded elements."""

    kind = "write"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 value: bytes, codec: Optional[StripedCodec] = None) -> None:
        super().__init__(client_id, servers, f)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("BCSR values must be bytes")
        self.value = bytes(value)
        if codec is None:
            # Only validate when we derive the code ourselves; an explicit
            # codec means the deployment chose its own [n, k] (used by the
            # Theorem 6 below-the-bound experiments).
            validate_bcsr_config(self.n, f)
            codec = make_codec(self.n, f)
        self.codec = codec
        self._phase = "idle"
        self._tag_replies = ReplyCollector(self.servers)
        self._acks = ReplyCollector(self.servers)
        self._tag: Optional[Tag] = None

    def start(self) -> List[Envelope]:
        self._phase = "get-tag"
        self.rounds = 1
        return self.broadcast(QueryTag(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if not self.accepts(message) or self.done:
            return []
        if self._phase == "get-tag" and isinstance(message, TagReply):
            return self._on_tag_reply(sender, message)
        if self._phase == "put-data" and isinstance(message, PutAck):
            return self._on_ack(sender, message)
        return []

    def _on_tag_reply(self, sender: ProcessId, message: TagReply) -> List[Envelope]:
        if not isinstance(message.tag, Tag):
            return []
        self._tag_replies.add(sender, message)
        if len(self._tag_replies) < self.quorum:
            return []
        tags = [reply.tag for reply in self._tag_replies.values()]
        self._tag = kth_highest(tags, self.f + 1).next_for(self.client_id)
        self._phase = "put-data"
        self.rounds = 2
        elements = self.codec.encode(self.value)
        # Fig 4 line 7: server i receives only its own element c_i.
        return [
            (server, PutData(op_id=self.op_id, tag=self._tag, payload=elements[i]))
            for i, server in enumerate(self.servers)
        ]

    def _on_ack(self, sender: ProcessId, message: PutAck) -> List[Envelope]:
        if message.tag != self._tag:
            return []
        self._acks.add(sender, message)
        if len(self._acks) >= self.quorum:
            self._phase = "done"
            self._complete(self._tag)
        return []


class WriterSequence:
    """A single writer's persistent tag counter (for fast SWMR writes).

    The two-phase write queries servers for the highest tag only to order
    itself against *other* writers.  A strict single writer already knows
    every tag it ever issued, so it can keep the counter locally and skip
    ``get-tag`` entirely.  After a crash the writer must re-learn its
    counter (one ordinary two-phase write, or a get-tag round) before
    resuming fast writes -- :meth:`observe` folds such knowledge in.
    """

    def __init__(self, writer_id: ProcessId, start: int = 0) -> None:
        self.writer_id = writer_id
        self._num = start

    def next_tag(self) -> Tag:
        """Mint the next tag in this writer's sequence."""
        self._num += 1
        return Tag(self._num, self.writer_id)

    def observe(self, tag: Tag) -> None:
        """Fold in a tag learned elsewhere (e.g. recovery via get-tag)."""
        if tag.num > self._num:
            self._num = tag.num

    @property
    def current(self) -> int:
        """The number of the last tag issued."""
        return self._num


class BCSRFastWriteOperation(ClientOperation):
    """A one-round SWMR write: ``put-data`` only (extension, not in paper).

    Valid only under the strict single-writer regime BCSR is stated for:
    with no other writer, the locally minted tag is guaranteed maximal, so
    the ``get-tag`` phase the paper keeps (Fig 4) buys nothing.  This makes
    the register fully fast for its single writer -- one round for writes
    *and* reads -- without touching safety (tags remain monotone and
    unique).  Ablated against the two-phase write in benchmark E15.
    """

    kind = "write"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 value: bytes, sequence: WriterSequence,
                 codec: Optional[StripedCodec] = None) -> None:
        super().__init__(client_id, servers, f)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("BCSR values must be bytes")
        if sequence.writer_id != client_id:
            raise ValueError("a writer may only use its own sequence")
        self.value = bytes(value)
        if codec is None:
            validate_bcsr_config(self.n, f)
            codec = make_codec(self.n, f)
        self.codec = codec
        self.sequence = sequence
        self._acks = ReplyCollector(self.servers)
        self._tag: Optional[Tag] = None

    def start(self) -> List[Envelope]:
        self.rounds = 1
        self._tag = self.sequence.next_tag()
        elements = self.codec.encode(self.value)
        return [
            (server, PutData(op_id=self.op_id, tag=self._tag, payload=elements[i]))
            for i, server in enumerate(self.servers)
        ]

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message) or not isinstance(message, PutAck):
            return []
        if message.tag != self._tag:
            return []
        self._acks.add(sender, message)
        if len(self._acks) >= self.quorum:
            self._complete(self._tag)
        return []


class BCSRReadOperation(ClientOperation):
    """A one-shot BCSR read (Fig 5): collect ``n - f`` elements, decode."""

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 codec: Optional[StripedCodec] = None,
                 initial_value: bytes = b"",
                 reader_state: Optional[DecodeMemo] = None) -> None:
        super().__init__(client_id, servers, f)
        if codec is None:
            validate_bcsr_config(self.n, f)
            codec = make_codec(self.n, f)
        self.codec = codec
        self.initial_value = initial_value
        self.reader_state = reader_state if reader_state is not None else DecodeMemo()
        self._replies = ReplyCollector(self.servers)
        self._server_index: Dict[ProcessId, int] = {
            server: i for i, server in enumerate(self.servers)
        }

    def start(self) -> List[Envelope]:
        self.rounds = 1
        return self.broadcast(QueryData(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message) or not isinstance(message, DataReply):
            return []
        self._replies.add(sender, message)
        if len(self._replies) >= self.quorum:
            self._finish()
        return []

    def _finish(self) -> None:
        elements = []
        for server, reply in self._replies.replies.items():
            payload = reply.payload
            # A coded element's position is bound to the authenticated
            # sender, so a Byzantine server can corrupt its *data* but not
            # impersonate another codeword position.
            if isinstance(payload, CodedElement):
                elements.append(CodedElement(self._server_index[server], payload.data))
        try:
            value = self.codec.decode(elements, max_errors=2 * self.f,
                                      memo=self.reader_state)
        except (DecodingError, ValueError):
            # Fig 5 line 4: "if possible; otherwise return v0".
            value = self.initial_value
        self._tag = None
        self._complete(value)
