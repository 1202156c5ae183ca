"""The prior-work baselines: registers built on reliable broadcast.

Models the design family the paper contrasts itself with (Section I-B;
Kanjani et al. [15]): writes are disseminated with a reliable broadcast
among the servers, and servers *relay* newly delivered values to readers
with pending queries.  Two registers share everything here but the
broadcast, which :class:`BroadcastRegisterServer` takes as data
(a :class:`BroadcastScheme`):

* ``rb`` -- :data:`BRACHA`, Bracha's SEND/ECHO/READY at ``n >= 3f + 1``
  servers, *f fewer machines than BSR*;
* ``rb2`` -- the Imbs-Raynal 2-step INIT/WITNESS broadcast at
  ``n >= 5f + 1`` (its scheme lives with its spec, in
  :mod:`repro.protocols.rb2`).

The consequences the experiments measure:

* A write's ``put-data`` phase costs one client-to-server hop **plus** the
  server-to-server hops of the broadcast before any server acks -- the
  "1.5 rounds" blow-up of Section I-B for Bracha's ECHO and READY.
* A read cannot always terminate on its first ``n - f`` replies; it waits
  until some pair is witnessed by ``f + 1`` servers *and* is at least as
  fresh as the ``(f+1)``-th highest tag seen.  Relay guarantees this
  eventually happens, but "eventually" may span extra server hops.

A dissemination starts only from the writer: a server drops a start
message sent by a peer, since a Byzantine server forging one in a
writer's name would otherwise rally the correct servers into storing a
value nobody wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from repro.broadcast.bracha import ECHO, READY, BrachaInstance
from repro.core.messages import (
    DataReply,
    PushData,
    PutAck,
    QueryData,
    QueryTag,
    RBEcho,
    RBReady,
    RBSend,
)
from repro.core.operation import ClientOperation, witnessed
from repro.core.quorum import kth_highest
from repro.core.store import RegisterStore
from repro.core.tags import Tag, TaggedValue, tag_in_range
from repro.types import Envelope, ProcessId


@dataclass(frozen=True)
class BroadcastScheme:
    """One reliable broadcast, as a register server drives it.

    ``instance(server_id, peers, f)`` builds a server's broadcast state.
    The writer's ``start`` message goes to ``on_start(instance, key,
    payload)``; each server-to-server message class in ``relays`` to its
    handler ``(instance, key, payload, sender)``.  Handlers return
    ``("broadcast", phase, payload)`` and ``("deliver", payload, None)``
    outputs, and ``phases`` names the message class each broadcast phase
    is sent as.
    """

    instance: Callable[..., Any]
    start: type
    on_start: Callable[..., List[Tuple[str, Any, Any]]]
    relays: Mapping[type, Callable[..., List[Tuple[str, Any, Any]]]]
    phases: Mapping[str, type]


#: ``rb``'s broadcast: Bracha's SEND, ECHO and READY.
BRACHA = BroadcastScheme(
    instance=BrachaInstance, start=RBSend, on_start=BrachaInstance.on_send,
    relays={RBEcho: BrachaInstance.on_echo, RBReady: BrachaInstance.on_ready},
    phases={ECHO: RBEcho, READY: RBReady})


class RelayServer(RegisterStore):
    """The register store of a mesh server, relaying to pending readers.

    What the broadcast registers and MPR share: both answer queries from
    the store, and both *adopt, then push*: a pair that entered ``L`` is
    sent as :class:`PushData` to every reader with a pending query, so
    stuck reads can converge on ``f + 1`` witnesses.  There is no direct
    ``PUT-DATA`` store path: a pair reaches ``L`` only through the
    protocol's own dissemination (a delivered broadcast, an
    echo-validated write), so a Byzantine peer cannot put one around it.
    """

    def __init__(self, server_id: ProcessId, peers: Sequence[ProcessId], f: int,
                 initial_value: Any = b"",
                 max_history: Optional[int] = None) -> None:
        super().__init__(server_id, initial_value, max_history)
        self.peers = list(peers)
        self.f = f
        #: reader -> op_id of its most recent (assumed pending) query.
        self._pending_readers: Dict[ProcessId, int] = {}

    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Answer the queries; everything else is ignored."""
        if isinstance(message, QueryTag):
            return self._get_tag_resp(sender, message)
        if isinstance(message, QueryData):
            self._pending_readers[sender] = message.op_id
            return self._get_data_resp(sender, message)
        return []

    @staticmethod
    def _key(message: Any) -> Tuple[str, int]:
        """The dissemination instance ``message`` belongs to."""
        return (message.source, message.op_id)

    def _adopt_and_push(self, pair: TaggedValue) -> List[Envelope]:
        """Adopt ``pair``; if it entered ``L``, push it to pending readers."""
        if not self.adopt(pair):
            return []
        return [(reader, PushData(op_id=read_op_id, tag=pair.tag,
                                  payload=pair.value))
                for reader, read_op_id in self._pending_readers.items()]


class BroadcastRegisterServer(RelayServer):
    """The relaying register store + broadcast participation."""

    def __init__(self, server_id: ProcessId, peers: Sequence[ProcessId], f: int,
                 scheme: BroadcastScheme, initial_value: Any = b"",
                 max_history: Optional[int] = None) -> None:
        super().__init__(server_id, peers, f, initial_value, max_history)
        self.scheme = scheme
        self.broadcast = scheme.instance(server_id, self.peers, f)
        #: broadcast instances we already acked, to dedupe deliveries.
        self._acked: Set[Any] = set()

    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Dispatch one incoming message; returns outgoing envelopes."""
        scheme = self.scheme
        if type(message) is scheme.start:
            # Writer-only: a start from a peer is a Byzantine forgery.  A
            # tag out of range is refused where it enters, as by the store.
            if sender in self.peers or not tag_in_range(message.tag):
                return []
            return self._rb_outputs(message, scheme.on_start(
                self.broadcast, self._key(message),
                (message.tag, message.payload)))
        relay = scheme.relays.get(type(message))
        if relay is None:
            return super().handle(sender, message)
        if not tag_in_range(message.tag):
            return []
        return self._rb_outputs(message, relay(
            self.broadcast, self._key(message),
            (message.tag, message.payload), sender))

    def _rb_outputs(self, message: Any, outputs) -> List[Envelope]:
        envelopes: List[Envelope] = []
        for action, arg1, arg2 in outputs:
            if action == "broadcast":
                phase, payload = arg1, arg2
                relayed = self.scheme.phases[phase](
                    op_id=message.op_id, tag=payload[0], payload=payload[1],
                    source=message.source)
                envelopes.extend((peer, relayed) for peer in self.peers)
            elif action == "deliver":
                tag, value = arg1
                envelopes.extend(self._adopt_and_push(TaggedValue(tag, value)))
                key = self._key(message)
                if key not in self._acked:
                    self._acked.add(key)
                    envelopes.append(
                        (message.source, PutAck(op_id=message.op_id, tag=tag)))
        return envelopes


class RelayReadOperation(ClientOperation):
    """Read: wait for a witnessed pair at least as fresh as the
    ``(f+1)``-th highest tag; relayed pushes may be needed to get there.

    ``_select`` is also the first round of MPR's atomic read, which
    writes the pair back before returning it.
    """

    kind = "read"

    def __init__(self, client_id: ProcessId, servers: Sequence[ProcessId],
                 f: int) -> None:
        super().__init__(client_id, servers, f)
        #: server -> freshest (tag, value) heard from it (query reply or push)
        self._latest: Dict[ProcessId, TaggedValue] = {}

    def start(self) -> List[Envelope]:
        self.rounds = 1
        return self.broadcast(QueryData(op_id=self.op_id))

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        if self.done or not self.accepts(message):
            return []
        best = self._select(sender, message)
        if best is not None:
            self._tag = best.tag
            self._complete(best.value)
        return []

    def _select(self, sender: ProcessId, message: Any) -> Optional[TaggedValue]:
        if not isinstance(message, (DataReply, PushData)):
            return None
        if not isinstance(message.tag, Tag) or sender not in self.servers:
            return None
        pair = TaggedValue(message.tag, message.payload)
        current = self._latest.get(sender)
        if current is None or pair.tag > current.tag:
            self._latest[sender] = pair
        if len(self._latest) < self.quorum:
            return None
        reported = [(server, pair.tag, pair.value)
                    for server, pair in self._latest.items()]
        # Freshness bar: the (f+1)-th highest tag cannot be Byzantine-forged.
        bar = kth_highest([tag for _, tag, _ in reported], self.f + 1)
        fresh = [pair for pair in witnessed(reported, self.f) if pair.tag >= bar]
        return max(fresh, key=lambda tv: tv.tag) if fresh else None
