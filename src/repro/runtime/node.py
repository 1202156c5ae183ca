"""A TCP server node hosting one register-server state machine."""

from __future__ import annotations

import asyncio
import logging
import os
import time
from collections import OrderedDict, deque
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    HealthAck,
    HealthPing,
    StatsAck,
    StatsPing,
    Throttled,
    TraceAck,
    TraceDump,
)
from repro.errors import AuthenticationError, ProtocolError
from repro.obs import PHASE_BY_MESSAGE, FlightRecorder, LogGate, MetricRegistry
from repro.runtime.limits import PerClientBuckets
from repro.runtime.link import Link
from repro.transport.auth import Authenticator
from repro.transport.codec import FrameAssembler, frame_burst
from repro.transport.codec2 import CachedDecoder, CachedEncoder
from repro.transport.delta import Shrinker
from repro.types import ProcessId

logger = logging.getLogger(__name__)

#: How many recent ``(sender, op_id, type)`` triples a node remembers to
#: recognize re-sent frames (client retries after reconnect/throttle).
RETRY_WINDOW = 2048

#: Encoded payloads parked for parties with no live connection.  Entries
#: flush when the party next sends a frame; the cap bounds what a fleet
#: of vanished clients can pin in memory.
UNDELIVERED_LIMIT = 1024

#: Node-level requests: answered by the node itself, before the protocol
#: and exempt from rate limiting, so readiness probes and scrapes work
#: under load.
PROBES = frozenset((HealthPing, StatsPing, TraceDump))


class _Connection(asyncio.BufferedProtocol):
    """One inbound connection: serve each chunk whole, reply once.

    The transport reads straight into the connection's assembler (no
    allocation, no copy per read) and the frames are served in place.
    One read syscall may deliver several consecutive frames (a
    multiplexed client coalesces its writes into bursts), and one
    *frame* may carry a whole batch-sealed burst of messages.  Every
    message in the chunk is served back to back; the chunk's replies go
    out as one batch-sealed frame (a single HMAC covers them all) in a
    single write.  A party that stops reading its replies stops being
    read from: its own connection pauses, nobody else's.

    A connection is *bound* to the party of its first verified named
    frame, and to that party only: later frames may leave the name off
    (they are verified under the party's key), and a named frame naming
    anyone else is rejected.  Until it is bound, a nameless frame has no
    key to be verified under and is dropped as a bad frame.
    """

    def __init__(self, node: "RegisterServerNode") -> None:
        self.node = node
        self.transport: Optional[asyncio.Transport] = None
        #: The party this connection is bound to (``None``: not yet).
        self.party: Optional[ProcessId] = None
        self._assembler = FrameAssembler()
        self._loop = asyncio.get_running_loop()
        #: The transport's write buffer is over its high-water mark.
        self._write_paused = False
        #: The chunk whose acks wait for their snapshot (at most one:
        #: reading is paused while it is pending).
        self._durable: Optional[asyncio.Task] = None
        #: What this connection already carried in full (starts empty).
        self._shrinker = Shrinker(
            partial(node.auth.seal_frames, node.server_id, named=False),
            node._tally_reply)

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        node = self.node
        if (node.max_connections is not None
                and len(node._connections) >= node.max_connections):
            # Shed the connection outright: the dialling client's backoff
            # spreads the retry, which is the point of the cap.
            node._counters["connections_refused"].inc()
            node._log.warning(
                "conn-cap", "server %s refusing connection (cap %d reached)",
                node.server_id, node.max_connections)
            transport.close()
            return
        self.transport = transport
        node._connections.add(self)
        node._connections_gauge.set(len(node._connections))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        node = self.node
        node._connections.discard(self)
        node._connections_gauge.set(len(node._connections))
        for pid, connection in list(node._parties.items()):
            if connection is self:
                del node._parties[pid]

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._assembler.writable(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        node = self.node
        node._c_recv_calls.inc()
        try:
            frames = self._assembler.filled(nbytes)
        except ProtocolError as exc:
            # Oversized frame: past this point the stream cannot be
            # re-synchronized, so the connection is dropped.
            node._c_frames_bad.inc()
            node._log.warning("bad-frame", "server %s closing "
                              "connection: %s", node.server_id, exc)
            self.transport.close()
            return
        # One chunk-receipt instant for every frame in the burst:
        # a frame's queue wait is the time it spent behind earlier
        # messages of the same chunk before its handler ran.
        received = self._loop.time()
        replies: List[bytes] = []
        needs_checkpoint = False
        for frame in frames:
            node._c_wire_frames.inc()
            if node._serve_frame(frame, replies, self._loop, received, self):
                needs_checkpoint = True
        if needs_checkpoint and node.snapshot_path is not None:
            # One durable snapshot per chunk (the checkpoint path
            # coalesces anyway), taken *before* any ack goes out so
            # acknowledged state is always recoverable.  Nothing more is
            # read meanwhile, so this connection's replies keep the
            # order of its requests.
            self.transport.pause_reading()
            self._durable = self._loop.create_task(
                self._ack_when_durable(replies))
        else:
            self.write(replies)

    async def _ack_when_durable(self, replies: List[bytes]) -> None:
        try:
            await self.node._checkpoint()
        except BaseException:
            self.transport.abort()  # never ack what did not reach disk
            raise
        self._durable = None
        self.write(replies)
        if not self._write_paused:
            self.transport.resume_reading()

    def write(self, payloads: List[bytes], named: bool = False) -> None:
        """Seal ``payloads`` under one HMAC, write them as one burst (a
        large one in full once, then as a tail delta while it repeats).

        Replies and pushes go to a party that dialed this node by id, so
        they are sealed nameless; ``named`` (probe acks: a probe dials an
        address) seals them whole, past the delta layer.
        """
        if not payloads or self.transport.is_closing():
            return
        if named:
            node = self.node
            self.transport.write(frame_burst(
                node.auth.seal_frames(node.server_id, payloads)))
            return
        if len(payloads) > 1:
            self.node._counters["reply_batches"].inc()
        self.transport.write(frame_burst(self._shrinker.seal(payloads)))

    def pause_writing(self) -> None:
        self._write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._durable is None:
            self.transport.resume_reading()


class RegisterServerNode:
    """Host a server protocol (``handle(sender, msg) -> envelopes``) on TCP.

    Each inbound connection carries sealed frames; replies addressed to the
    requesting client go back over the same connection.  Envelopes addressed
    elsewhere are routed: to the node itself (a broadcast protocol counting
    its own echo) they loop back through the protocol in place; to a peer
    server (see :meth:`set_peers`) they go out over a dedicated
    :class:`~repro.runtime.link.Link`; to any other party with a live
    inbound connection they are written directly; and otherwise they are
    parked in a bounded stash flushed when that party next sends a frame
    (a reader whose relay raced ahead of its own request).  Only with no
    peers configured and no route at all is an envelope dropped with a
    warning.

    A ``behavior`` may be supplied to make the node Byzantine: it receives
    the same hooks as in the simulator.

    The node is restartable: :meth:`stop` closes the listener *and* every
    live connection (a crash severs established links too), and a
    subsequent :meth:`start` rebinds the same port and restores state from
    the snapshot, which is how the chaos nemesis models crash-recovery.

    Flow control (both optional): ``max_connections`` caps concurrent
    connections -- excess dials are closed immediately, pushing the
    client into its reconnect backoff -- and ``rate_limit`` applies a
    per-authenticated-client token bucket (``rate_limit`` frames/second,
    ``rate_burst`` tokens deep); frames over budget are shed with a
    :class:`~repro.core.messages.Throttled` reply instead of being
    buffered.  :class:`~repro.core.messages.HealthPing` and
    :class:`~repro.core.messages.StatsPing` frames are answered by the
    node itself (before the protocol, exempt from rate limiting) so
    supervisors can probe readiness -- and scrapers can pull metrics --
    of any algorithm.

    Observability: every event lands in a
    :class:`~repro.obs.MetricRegistry` (pass a shared one, or the node
    creates its own), including a per-phase service-time histogram
    (``node_phase_seconds{phase="get-tag"|"put-data"|"get-data",...}``)
    keyed by the protocol round each inbound frame belongs to.  The
    legacy :attr:`stats` mapping remains as a read-only compatibility
    view over the registry.
    """

    def __init__(self, server_id: ProcessId, protocol: Any,
                 authenticator: Authenticator, host: str = "127.0.0.1",
                 port: int = 0, behavior: Optional[Any] = None,
                 snapshot_path: Optional[str] = None,
                 max_connections: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 registry: Optional[MetricRegistry] = None,
                 flight_sample: int = 64,
                 flight_capacity: int = 1024) -> None:
        self.server_id = server_id
        self.protocol = protocol
        self.auth = authenticator
        self.host = host
        self.port = port
        self.behavior = behavior
        # Replies repeat (same pair, fresh op_id); the cached encoder
        # re-emits the memoized tail instead of re-walking the fields.
        # Inbound query bursts repeat the same way, so decode is
        # memoized too (both fall back transparently on anything else).
        self._encode = CachedEncoder()
        self._decode = CachedDecoder()
        #: When set, the node checkpoints its state here after every
        #: mutation and restores from it on start (crash recovery).
        self.snapshot_path = snapshot_path
        self.max_connections = max_connections
        self.rate_limit = rate_limit
        self._buckets = (PerClientBuckets(rate_limit, rate_burst)
                         if rate_limit is not None else None)
        self.registry = registry if registry is not None else MetricRegistry()
        #: Server-side span records for causal trace stitching.  Sampling
        #: is deterministic by op_id, matching the client's SamplingSink;
        #: ``flight_sample=0`` turns recording off entirely.
        self.flight: Optional[FlightRecorder] = (
            FlightRecorder(node_id=str(server_id), capacity=flight_capacity,
                           sample=flight_sample)
            if flight_sample > 0 else None)
        node = str(server_id)
        self._counters = {
            name: self.registry.counter(f"node_{name}_total", node=node)
            for name in ("frames", "frames_bad", "frames_retried",
                         "frames_throttled", "connections_refused",
                         "health_pings", "stats_pings", "trace_dumps",
                         "wire_frames", "reply_batches", "recv_calls",
                         "replies_full", "replies_delta", "reply_bytes_elided")
        }
        self._connections_gauge = self.registry.gauge(
            "node_connections", node=node)
        #: phase name -> pre-resolved ``node_phase_seconds`` histogram,
        #: filled lazily; saves a registry lock + label sort per message.
        self._phase_hists: Dict[str, Any] = {}
        #: message class -> that histogram directly (classes map to one
        #: phase, except namespaced wrappers, which resolve per inner).
        self._hist_by_cls: Dict[type, Any] = {}
        #: Hot-path counters pulled out of the dict (one lookup saved
        #: per inbound message).
        self._c_frames = self._counters["frames"]
        self._c_frames_bad = self._counters["frames_bad"]
        self._c_wire_frames = self._counters["wire_frames"]
        self._c_recv_calls = self._counters["recv_calls"]
        self._c_frames_retried = self._counters["frames_retried"]
        self._log = LogGate(logger, self.registry, component=f"node/{node}")
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._checkpoint_lock: Optional[asyncio.Lock] = None
        self._checkpoint_seq = 0
        self._checkpoint_written = 0
        self._last_snapshot_at: Optional[float] = None
        #: Recently served ``(sender, op_id, type)`` triples, newest last.
        self._recent_frames: "OrderedDict[tuple, None]" = OrderedDict()
        #: Peer server id -> (host, port); set via :meth:`set_peers` for
        #: protocols whose servers talk to each other.
        self._peers: Dict[ProcessId, Tuple[str, int]] = {}
        self._peer_links: Dict[ProcessId, Link] = {}
        #: Authenticated sender -> its latest connection, for pushing
        #: server-initiated envelopes (relays, late acks).
        self._parties: Dict[ProcessId, _Connection] = {}
        #: dest -> encoded payloads with no current route, newest dest
        #: last; flushed into the reply batch when the party next writes.
        self._undelivered: "OrderedDict[ProcessId, list]" = OrderedDict()
        self._undelivered_count = 0

    def set_peers(self, addresses: Dict[ProcessId, Tuple[str, int]]) -> None:
        """Tell the node where its fellow servers listen.

        Required for broadcast-based protocols (``spec.peer_links``):
        envelopes the protocol addresses to these ids are delivered over
        lazily-dialed outbound links instead of being dropped.  Peer
        senders are also exempted from per-client rate limiting --
        server-to-server echo storms are the protocol, not abuse.
        """
        self._peers = {pid: addr for pid, addr in addresses.items()
                       if pid != self.server_id}

    @property
    def stats(self) -> Dict[str, int]:
        """Compatibility view: the registry counters as a plain mapping."""
        return {name: int(counter.value)
                for name, counter in self._counters.items()}

    def _tally_reply(self, elided: int) -> None:
        """Count one large reply: a delta ``elided`` bytes short, or full."""
        self._counters["replies_delta" if elided else "replies_full"].inc()
        self._counters["reply_bytes_elided"].inc(elided)

    def _restore_from_snapshot(self) -> None:
        if self.snapshot_path is None or not os.path.exists(self.snapshot_path):
            return
        from repro.core.persistence import restore_server
        with open(self.snapshot_path, "rb") as fh:
            restored = restore_server(
                fh.read(), codec=getattr(self.protocol, "codec", None))
        # Keep the live object (the cluster may hold references); replay
        # the durable history into it, newest pairs within its own bound (a
        # snapshot written under a larger one may hold more).
        self.protocol.restore(restored.history)
        logger.info("server %s restored %d history entries from %s",
                    self.server_id, len(self.protocol.history),
                    self.snapshot_path)

    async def _checkpoint(self) -> None:
        """Write a snapshot without stalling the event loop.

        Serialization happens on the loop (a consistent view of the
        protocol state between awaits); the file write and atomic rename
        are offloaded to a thread.  Writes are ordered by a lock, and a
        write is skipped when a newer snapshot already reached disk while
        it waited (coalescing under bursts of mutations).
        """
        if self.snapshot_path is None:
            return
        from repro.core.persistence import snapshot_server
        data = snapshot_server(self.protocol)
        self._checkpoint_seq += 1
        seq = self._checkpoint_seq
        if self._checkpoint_lock is None:
            self._checkpoint_lock = asyncio.Lock()
        async with self._checkpoint_lock:
            if seq <= self._checkpoint_written:
                return  # a newer snapshot is already durable
            await asyncio.to_thread(self._write_snapshot, data)
            self._checkpoint_written = seq

    def _write_snapshot(self, data: bytes) -> None:
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as fh:
            fh.write(data)
        os.replace(tmp_path, self.snapshot_path)  # atomic on POSIX
        self._last_snapshot_at = time.monotonic()

    def snapshot_age(self) -> float:
        """Seconds since the last durable checkpoint (-1 when none)."""
        if self._last_snapshot_at is None:
            return -1.0
        return time.monotonic() - self._last_snapshot_at

    async def start(self) -> None:
        """Bind the listener; ``self.port`` is filled in when it was 0."""
        self._restore_from_snapshot()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("server %s listening on %s:%d", self.server_id, self.host, self.port)

    async def stop(self) -> None:
        """Close the listener and every live connection (crash semantics)."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for connection in self._connections:
            connection.transport.close()
        for link in self._peer_links.values():
            link.close()
        self._peer_links.clear()
        self._parties.clear()
        self._undelivered.clear()
        if self._checkpoint_lock is not None:
            # Let an in-flight snapshot write finish so a restart does not
            # race a stale file replacing a newer one.
            async with self._checkpoint_lock:
                pass

    @property
    def address(self) -> tuple:
        """``(host, port)`` of the bound listener."""
        return (self.host, self.port)

    def _note_repeat(self, key: tuple) -> bool:
        """Count frames the node has already seen (client re-sends).

        ``key`` is ``(sender, op_id, message class)``, plus the register
        for a namespaced frame, whose class is the inner message's: the
        wrapper class alone would make a write's put-data repeat its
        get-tag.  Returns whether this frame was a repeat, so the flight
        recorder can tag re-served operations in stitched timelines.
        """
        recent = self._recent_frames
        if key in recent:
            recent.move_to_end(key)
            self._c_frames_retried.inc()
            return True
        recent[key] = None
        if len(recent) > RETRY_WINDOW:
            recent.popitem(last=False)
        return False

    def _serve_frame(self, frame, replies: list,
                     loop: asyncio.AbstractEventLoop,
                     received: Optional[float] = None,
                     connection: Optional[_Connection] = None) -> bool:
        """Verify one wire frame and serve every message it carries.

        Encoded reply payloads are appended to ``replies``; the
        connection seals and writes them once per decoded chunk.
        Returns whether any message mutated durable state (the caller
        checkpoints before writing the acks).
        """
        party = connection.party if connection is not None else None
        try:
            sender, payloads = self.auth.open_any(frame, party)
        except (AuthenticationError, ProtocolError) as exc:
            self._c_frames_bad.inc()
            self._log.warning("bad-frame", "server %s dropping bad "
                              "frame: %s", self.server_id, exc)
            return False
        if connection is not None:
            connection.party = sender
            # Remember where this authenticated party lives so pushed
            # envelopes (relays to waiting readers, acks whose trigger
            # arrived via a peer first) can reach it, and flush anything
            # parked for it while it had no route.
            self._parties[sender] = connection
            parked = self._undelivered.pop(sender, None)
            if parked:
                self._undelivered_count -= len(parked)
                replies.extend(parked)
        needs_checkpoint = False
        acks = []
        for payload in payloads:
            try:
                message = self._decode(payload)
            except ProtocolError as exc:
                self._c_frames_bad.inc()
                self._log.warning("bad-frame", "server %s dropping bad "
                                  "payload: %s", self.server_id, exc)
                continue
            if type(message) in PROBES:
                self._c_frames.inc()
                acks.append(self._encode(self._probe_ack(message)))
            elif self._serve_message(sender, message, replies, loop,
                                     received):
                needs_checkpoint = True
        if acks and connection is not None:
            connection.write(acks, named=True)
        return needs_checkpoint

    def _probe_ack(self, message: Any) -> Any:
        """The node's own answer to a probe (a :data:`PROBES` message)."""
        if isinstance(message, HealthPing):
            # Answered by the node, not the protocol, and exempt from
            # rate limiting: readiness probes must work under load.
            self._counters["health_pings"].inc()
            # RegisterTable occupancy, when the protocol is a sharded
            # table (duck-typed: single-register protocols report -1).
            resident = getattr(self.protocol, "resident_keys", None)
            archived = getattr(self.protocol, "archived_keys", None)
            rehydrations = -1
            if resident is not None:
                rehydrations = int(self.registry.counter_value(
                    "table_rehydrations_total", node=str(self.server_id)))
            return HealthAck(
                op_id=message.op_id, node_id=str(self.server_id),
                history_len=len(getattr(self.protocol, "history", ())),
                frames=int(self._counters["frames"].value),
                throttled=int(self._counters["frames_throttled"].value),
                snapshot_age=self.snapshot_age(),
                keys_resident=-1 if resident is None else len(resident),
                keys_archived=-1 if archived is None else len(archived),
                rehydrations=rehydrations,
            )
        if isinstance(message, StatsPing):
            # The scrape path: same exemption as health pings, so
            # metrics stay readable exactly when the node is drowning.
            self._counters["stats_pings"].inc()
            registers = getattr(self.protocol, "registers", None)
            if registers is not None:
                # Keyed table: the longest resident history, walked per
                # scrape instead of tracked per message.
                self.registry.gauge(
                    "node_history_len_max", node=str(self.server_id),
                ).set(max((len(server.history)
                           for server in registers.values()), default=0))
            return StatsAck(op_id=message.op_id,
                            node_id=str(self.server_id),
                            metrics=self.registry.snapshot())
        # A TraceDump -- the flight-recorder scrape: node-level like the
        # pings above, so stitched timelines stay reachable under load.
        self._counters["trace_dumps"].inc()
        fl = self.flight
        return TraceAck(
            op_id=message.op_id, node_id=str(self.server_id),
            records=(fl.dump(message.target_op, message.limit)
                     if fl is not None else []),
            total=fl.total if fl is not None else 0,
        )

    def _serve_message(self, sender: ProcessId, message: Any,
                       replies: list,
                       loop: asyncio.AbstractEventLoop,
                       received: Optional[float] = None) -> bool:
        """Run one verified message through the node/protocol layers.

        Returns whether the message changed the protocol's durable
        history (i.e. a checkpoint is due).
        """
        self._c_frames.inc()
        fl = self.flight
        if (self._buckets is not None and sender not in self._peers
                and not self._buckets.allow(sender)):
            self._counters["frames_throttled"].inc()
            throttle = Throttled(
                op_id=getattr(message, "op_id", 0),
                retry_after=self._buckets.retry_after(sender),
                dropped=type(message).__name__,
            )
            replies.append(self._encode(throttle))
            op_id = getattr(message, "op_id", None)
            if fl is not None and fl.wants(op_id):
                now = loop.time()
                fl.record({
                    "op_id": op_id, "party": sender,
                    "node": str(self.server_id),
                    "phase": self._frame_phase(message),
                    "recv": received if received is not None else now,
                    "queue_wait": (now - received
                                   if received is not None else 0.0),
                    "service": 0.0, "verdict": "throttled",
                    "repeat": False,
                })
            return False
        # Namespaced wrappers are keyed and bucketed by their *inner*
        # class: the phase depends only on the inner message type, so
        # keyed traffic caches one histogram per protocol message class.
        inner = getattr(message, "inner", None)
        if inner is None:
            cls = type(message)
            repeated = self._note_repeat((sender, message.op_id, cls))
        else:
            cls = type(inner)
            repeated = self._note_repeat(
                (sender, message.op_id, cls, message.register))
        started = loop.time()
        # A put that stores a pair makes it the newest (a full bounded
        # history keeps its length), so "mutated" is a new newest pair.
        history = getattr(self.protocol, "history", None)
        newest_before = None if history is None else history[-1]
        # Self-addressed envelopes (a broadcast server is one of its own
        # peers) loop back through the protocol right here, so counting
        # the node's own witness/echo never takes a network hop.
        pending = deque(((sender, message),))
        while pending:
            src, msg = pending.popleft()
            envelopes = self.protocol.handle(src, msg)
            if self.behavior is not None:
                envelopes = self.behavior.on_message(
                    self.protocol, src, msg, envelopes
                )
            self._route_envelopes(sender, envelopes, replies, pending)
        mutated = (history is not None
                   and self.protocol.history[-1] is not newest_before)
        hist = self._hist_by_cls.get(cls)
        if hist is None:
            phase = self._frame_phase(message)
            hist = self._phase_hists.get(phase)
            if hist is None:
                hist = self._phase_hists[phase] = self.registry.histogram(
                    "node_phase_seconds", node=str(self.server_id),
                    phase=phase)
            self._hist_by_cls[cls] = hist
        ended = loop.time()
        hist.observe(ended - started)
        if fl is not None:
            op_id = getattr(message, "op_id", None)
            if fl.wants(op_id):
                fl.record({
                    "op_id": op_id, "party": sender,
                    "node": str(self.server_id),
                    "phase": self._frame_phase(message),
                    "recv": received if received is not None else started,
                    "queue_wait": (started - received
                                   if received is not None else 0.0),
                    "service": ended - started, "verdict": "served",
                    "repeat": repeated,
                })
        return mutated

    def _route_envelopes(self, origin: ProcessId, envelopes, replies: list,
                         pending: deque) -> None:
        """Send each ``(dest, message)`` envelope down its route.

        ``origin`` is the party whose frame is being served.  Order
        matters: a peer destination always takes the mesh link -- even
        when the peer *is* the origin, because peers never read the
        reply side of their outbound connections -- while the origin's
        own replies ride the connection's reply batch for free.
        """
        encode = self._encode
        for dest, reply in envelopes:
            if dest == self.server_id:
                pending.append((self.server_id, reply))
            elif dest in self._peers:
                self._peer_link(dest).send(encode(reply))
            elif dest == origin:
                replies.append(encode(reply))
            else:
                self._push_to_party(dest, encode(reply))

    def _peer_link(self, dest: ProcessId) -> Link:
        """The mesh link to peer ``dest``, dialed on first use.

        Payloads are sealed with the node's own identity.  Peers never
        write back on this link (server traffic flows over each side's
        own outbound link), so inbound frames are ignored.  A dead peer
        costs nothing but the bounded queue -- the link backs off,
        redials and sends what it still holds, which is exactly the
        fair-lossy-link model the broadcast protocols are built for
        (delivery is at-least-once attempted, never guaranteed).
        """
        link = self._peer_links.get(dest)
        if link is None:
            link = self._peer_links[dest] = Link(
                self._peers[dest],
                partial(self.auth.seal_frames, self.server_id),
                on_drop=partial(self._log.warning, "peer-shed",
                                "server %s, link to peer %s: %s: %s",
                                self.server_id, dest),
                backoff_base=0.05, backoff_max=1.0)
            link.redial(at_once=True)
        return link

    def _push_to_party(self, dest: ProcessId, payload: bytes) -> None:
        """Deliver a server-initiated envelope to a non-peer party.

        A live inbound connection gets the frame immediately; otherwise
        the payload is parked until that party next sends us anything
        (the reply batch flushes the stash).  This covers the race where
        a write validates via peer echoes before the writer's own frame
        reaches this server -- the ack would otherwise evaporate.
        """
        connection = self._parties.get(dest)
        if connection is not None and not connection.transport.is_closing():
            connection.write([payload])
            return
        if not self._peers:
            # No mesh configured: a stray destination is a protocol bug,
            # same as before peer routing existed.
            self._log.warning(
                "misrouted-envelope",
                "server %s dropping envelope to %s (no route)",
                self.server_id, dest,
            )
            return
        stash = self._undelivered.get(dest)
        if stash is None:
            stash = self._undelivered[dest] = []
        stash.append(payload)
        self._undelivered.move_to_end(dest)
        self._undelivered_count += 1
        while self._undelivered_count > UNDELIVERED_LIMIT and self._undelivered:
            _, dropped = self._undelivered.popitem(last=False)
            self._undelivered_count -= len(dropped)

    def _frame_phase(self, message: Any) -> str:
        """Protocol phase an inbound frame belongs to (for histograms)."""
        inner = getattr(message, "inner", message)  # unwrap namespacing
        name = type(inner).__name__
        return PHASE_BY_MESSAGE.get(name, name)
