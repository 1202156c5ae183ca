"""BCSR: the MDS-coded Byzantine-tolerant safe register (Section IV).

Faithful implementation of Figures 4-6 on top of the ``[n, k]``
Reed-Solomon code with ``k = n - 5f`` (Section IV-A, error budget
``e = 2f``):

* **Server** (Fig 6): a BSR server that stores its own coded element
  ``c_i`` instead of the full value.
* **Write** (Fig 4): the same two phases as BSR (the shared
  :class:`~repro.core.operation.WriteOperation`), but ``put-data`` sends
  server ``i`` only its element ``c_i = Phi_i(v)`` (:func:`coded_write`).
* **Read** (Fig 5): one round.  The reader collects ``n - f`` coded
  elements and attempts to decode; stale or corrupted elements (at most
  ``2f`` of them, by Lemma 4's counting) are fixed by the Berlekamp-Welch
  decoder.  If decoding is impossible the read returns the initial value
  ``v0`` -- permitted by safety only when the read is concurrent with a
  write, which Lemma 4 shows is the only case where it can happen.

Resilience: ``n >= 5f + 1`` (Lemma 4 and Theorem 6).  Values are ``bytes``.

Extension, not in Fig 5: the reader's :class:`~repro.erasure.striping.DecodeMemo`
spares it a decode an earlier read already did -- observationally identical.
It also names the version that decode returned in the next query: the
highest tag under which at least ``f + 1`` servers sent a column the decode
verified.  Each such server is asked ``QueryDataHeld(tag)`` and the rest
plain ``QUERY-DATA``; a server whose newest tag is ``tag`` answers
:class:`DataHeld`, which the read counts as that same server's verified
column.  A correct server holds one element per tag, so the column is
exactly what it would have sent; a Byzantine server's ``DataHeld`` only
re-sends the correct element of a version the reader already decoded,
which it could have sent in full.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.bsr import BSRServer
from repro.core.messages import DataReply, PutData
from repro.core.operation import (
    QuorumRead,
    WriteOperation,
    held_query,
    witnessed,
)
from repro.core.quorum import bcsr_dimension
from repro.core.tags import Tag
from repro.erasure.striping import CodedElement, DecodeMemo, StripedCodec
from repro.errors import DecodingError
from repro.types import Envelope, ProcessId


def make_codec(n: int, f: int) -> StripedCodec:
    """The ``[n, n - 5f]`` striped Reed-Solomon codec BCSR uses."""
    return StripedCodec(n, bcsr_dimension(n, f))


class BCSRServer(BSRServer):
    """State machine for one BCSR server (Fig 6): a BSR server whose
    values are its own coded elements.

    ``index`` is the server's zero-based codeword position; the initial
    history entry holds the server's coded element of the initial value.
    """

    def __init__(self, server_id: ProcessId, index: int, codec: StripedCodec,
                 initial_value: bytes = b"",
                 max_history: Optional[int] = None) -> None:
        if not 0 <= index < codec.n:
            raise ValueError(f"server index {index} outside codeword [0, {codec.n})")
        super().__init__(server_id, codec.encode(initial_value)[index],
                         max_history)
        self.index = index
        self.codec = codec

    def storage_bytes(self) -> int:
        """Bytes of coded data currently stored (for experiment E4)."""
        element = self.latest.value
        return len(element.data) if isinstance(element, CodedElement) else 0


def put_elements(codec: StripedCodec, op: WriteOperation,
                 tag: Tag) -> List[Envelope]:
    """Fig 4 line 7: server ``i`` receives only its own element ``c_i``."""
    elements = codec.encode(op.value)
    return [(server, PutData(op_id=op.op_id, tag=tag, payload=elements[i]))
            for i, server in enumerate(op.servers)]


def coded_write(client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                value: bytes, codec: StripedCodec) -> WriteOperation:
    """A two-phase BCSR write (Fig 4): the shared write walk, putting
    per-server coded elements.  ``codec`` is the deployment's ``[n, k]``
    code (the Theorem 6 experiments choose their own ``k``)."""
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError("BCSR values must be bytes")
    return WriteOperation(client_id, servers, f, bytes(value),
                          put=partial(put_elements, codec))


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


class BCSRFastWriteOperation(WriteOperation):
    """A one-round SWMR write: ``put-data`` only (extension, not in paper).

    Valid only under the strict single-writer regime BCSR is stated for:
    with no other writer, the locally minted tag is guaranteed maximal, so
    the ``get-tag`` phase the paper keeps (Fig 4) buys nothing.  This makes
    the register fully fast for its single writer -- one round for writes
    *and* reads -- without touching safety (tags remain monotone and
    unique).  The shared write walk, started at its put step under the
    tag ``sequence`` mints.  Ablated against the two-phase write in
    benchmark E15.
    """

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 value: bytes, sequence: WriterSequence,
                 codec: Optional[StripedCodec] = None) -> None:
        super().__init__(client_id, servers, f, value)
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("BCSR values must be bytes")
        if sequence.writer_id != client_id:
            raise ValueError("a writer may only use its own sequence")
        self.value = bytes(value)
        self.put = partial(put_elements, codec if codec is not None
                           else make_codec(self.n, f))
        self.sequence = sequence

    def start(self) -> List[Envelope]:
        self._phase = "put-data"
        self.rounds = 1
        self._tag = self.sequence.next_tag()
        return self.put(self, self._tag)


class BCSRReadOperation(QuorumRead):
    """A one-shot BCSR read (Fig 5): collect ``n - f`` elements, decode.

    The query names the version the reader's memo last decoded (see the
    module docstring); what a :class:`DataHeld` stands for is captured
    at :meth:`start`, as for :class:`~repro.core.bsr.BSRReadOperation`.
    """

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId], f: int,
                 codec: Optional[StripedCodec] = None,
                 initial_value: bytes = b"",
                 reader_state: Optional[DecodeMemo] = None) -> None:
        super().__init__(client_id, servers, f)
        self.codec = codec if codec is not None else make_codec(self.n, f)
        self.initial_value = initial_value
        self.reader_state = reader_state if reader_state is not None else DecodeMemo()
        self._server_index: Dict[ProcessId, int] = {
            server: i for i, server in enumerate(self.servers)
        }

    def query(self) -> Tuple[List[Envelope], Dict[ProcessId, DataReply]]:
        memo = self.reader_state
        return held_query(self, memo.tag, {
            self.servers[p]: CodedElement(p, memo.verified[p])
            for p in memo.named})

    def select(self, replies: Dict[ProcessId, Any]) -> List[Envelope]:
        elements = []
        tags = []
        for server, reply in replies.items():
            payload = reply.payload
            # A coded element's position is bound to the authenticated
            # sender, so a Byzantine server can corrupt its *data* but not
            # impersonate another codeword position.
            if isinstance(payload, CodedElement):
                elements.append(CodedElement(self._server_index[server], payload.data))
                tags.append(reply.tag)
        try:
            value = self.codec.decode(elements, max_errors=2 * self.f,
                                      memo=self.reader_state)
        except (DecodingError, ValueError):
            # Fig 5 line 4: "if possible; otherwise return v0".
            value = self.initial_value
        else:
            self._name_version(elements, tags)
        self._tag = None
        self._complete(value)
        return []

    def _name_version(self, elements: List[CodedElement],
                      tags: List[Any]) -> None:
        """Name the version just decoded in the reader's next query.

        The highest tag under which ``f + 1`` servers sent a column the
        memo holds as verified, and the positions that did; nothing when
        no tag has that many.
        """
        memo = self.reader_state
        columns = [(element.index, tag, None)
                   for element, tag in zip(elements, tags)
                   if memo.verified.get(element.index) == element.data]
        named = witnessed(columns, self.f)
        memo.tag = max(named).tag if named else None
        memo.named = (frozenset(index for index, tag, _ in columns
                                if tag == memo.tag) if named
                      else frozenset())
