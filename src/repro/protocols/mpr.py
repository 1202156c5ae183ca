"""``mpr``: the Mostefaoui-Petrolia-Raynal signature-free register.

The first RB-era rival of ROADMAP item 4 [Mostefaoui-Petrolia-Raynal
2016, arXiv:1604.08161]: an atomic register for ``n >= 3f + 1`` servers
with no signatures.  The dissemination/validation core follows the
paper:

* The writer broadcasts its write to every server; each server *echoes*
  the ``(tag, value)`` pair to its peers.
* A server that sees ``f + 1`` echoes for a pair echoes it too
  (amplification, covering servers the writer never reached), and a
  server that sees ``2f + 1`` echoes **validates** the pair: at least
  ``f + 1`` correct servers vouch for it, more than the ``f`` Byzantine
  servers could ever fake, so a never-written value cannot be smuggled
  into storage.  Only validated pairs are stored and acknowledged.
* A read queries every server, waits for ``n - f`` replies, and returns
  the freshest pair vouched for by ``f + 1`` servers; servers relay
  newly validated pairs to readers with pending queries, so a read
  stuck short of witnesses eventually converges.  Before returning, the
  reader *writes back* the chosen pair -- the classic second round that
  upgrades regular-grade reads to atomic ones.

Two liberties are taken to fit the repository's harness, both called
out here because the conformance suite exercises them: the original is
SWMR with writer-local sequence numbers, lifted to MWMR with the shared
write walk every other register here uses
(:class:`~repro.core.operation.WriteOperation`); and echo bookkeeping
is per ``(writer, op_id)`` instance rather than per writer sequence.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.baselines.rb_register import RelayReadOperation, RelayServer
from repro.core.messages import MprEcho, MprWrite, PutAck, PutData
from repro.core.operation import WriteBackRead, WriteOperation, put_start
from repro.core.quorum import mpr_min_servers
from repro.core.tags import TaggedValue, tag_in_range
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register
from repro.types import Envelope, ProcessId


def echo_amplify_threshold(f: int) -> int:
    """Echoes that make a server echo too: ``f + 1``."""
    return f + 1


def validation_threshold(f: int) -> int:
    """Echoes required to validate (store + ack) a pair: ``2f + 1``."""
    return 2 * f + 1


class MPRServer(RelayServer):
    """Echo-validated storage + relay to pending readers."""

    def __init__(self, server_id: ProcessId, peers: Sequence[ProcessId],
                 f: int, initial_value: Any = b"",
                 max_history: Optional[int] = None) -> None:
        super().__init__(server_id, peers, f, initial_value, max_history)
        #: instance key -> pair -> servers whose echo we counted.
        self._echoes: Dict[Any, Dict[TaggedValue, Set[ProcessId]]] = {}
        #: instance key -> pairs we already echoed ourselves.
        self._echoed: Dict[Any, Set[TaggedValue]] = {}
        #: instances we already validated (and acked), to dedupe.
        self._validated: Set[Any] = set()

    # -- message handling ---------------------------------------------------
    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Dispatch one incoming message; returns outgoing envelopes."""
        # A tag out of range is refused where it enters, as by the store.
        if isinstance(message, MprWrite):
            # Writes must come from the (trusted) writer itself, never a
            # peer: echoing a Byzantine server's fabrication would let it
            # rally the 2f + 1 echoes validation requires.
            if sender in self.peers or not tag_in_range(message.tag):
                return []
            return self._echo(self._key(message),
                              TaggedValue(message.tag, message.payload),
                              message)
        if isinstance(message, MprEcho):
            if sender not in self.peers or not tag_in_range(message.tag):
                return []
            return self._count_echo(sender, message)
        if isinstance(message, PutData):
            # A reader's write-back (atomicity round).  Clients are
            # trusted here -- the Byzantine budget is all server-side --
            # but a peer must not get a direct-store path around echo
            # validation.
            if sender in self.peers or not tag_in_range(message.tag):
                return []
            envelopes = self._adopt_and_push(
                TaggedValue(message.tag, message.payload))
            envelopes.append(
                (sender, PutAck(op_id=message.op_id, tag=message.tag)))
            return envelopes
        return super().handle(sender, message)

    def _echo(self, key: Any, pair: TaggedValue, message: Any) -> List[Envelope]:
        echoed = self._echoed.setdefault(key, set())
        if pair in echoed:
            return []
        echoed.add(pair)
        relayed = MprEcho(op_id=message.op_id, tag=pair.tag,
                          payload=pair.value, source=message.source)
        return [(peer, relayed) for peer in self.peers]

    def _count_echo(self, sender: ProcessId, message: Any) -> List[Envelope]:
        key = self._key(message)
        pair = TaggedValue(message.tag, message.payload)
        try:
            witnesses = self._echoes.setdefault(key, {}).setdefault(pair, set())
        except TypeError:  # unhashable forged payload
            return []
        witnesses.add(sender)
        envelopes: List[Envelope] = []
        if len(witnesses) >= echo_amplify_threshold(self.f):
            envelopes.extend(self._echo(key, pair, message))
        if (len(witnesses) >= validation_threshold(self.f)
                and key not in self._validated):
            self._validated.add(key)
            envelopes.extend(self._adopt_and_push(pair))
            envelopes.append(
                (message.source, PutAck(op_id=message.op_id, tag=pair.tag)))
        return envelopes


class MprReadOperation(WriteBackRead, RelayReadOperation):
    """Read: pick the freshest ``f + 1``-witnessed pair (the ``rb``
    read's selection), then write it back before returning -- MPR's
    atomicity round."""


SPEC = register(ProtocolSpec(
    name="mpr",
    description="prior work: MPR signature-free atomic register",
    quorum_rule="3f + 1",
    min_servers=mpr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="2",
    make_server=lambda ctx: MPRServer(
        ctx.server_id, ctx.servers, ctx.f, initial_value=ctx.initial_value,
        max_history=ctx.max_history),
    make_write=lambda ctx: WriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value,
        put=partial(put_start, MprWrite)),
    make_read=lambda ctx: MprReadOperation(
        ctx.client_id, ctx.servers, ctx.f),
    snapshot_ok=False,
    peer_links=True,
    read_phases={1: "get-data", 2: "write-back"},
    message_phases={"MprWrite": "put-data", "MprEcho": "mpr-echo"},
))
