"""Asyncio client executing register operations against TCP server nodes.

The client is *self-healing*: each server has a
:class:`~repro.runtime.link.Link` that folds replies in while the
connection is up and re-dials with exponential backoff plus jitter while
it is down (including servers that were unreachable when
:meth:`AsyncRegisterClient.connect` first ran).  When a connection comes
back mid-operation, the frames the in-flight operations already sent to
that server are re-sent -- safe, because every operation is an idempotent
quorum state machine keyed by ``op_id`` (duplicate requests produce
duplicate replies, which the reply filter already tolerates).

The client is *thrifty*: a round waits for ``n - f`` replies, so it is
sent to ``n - f`` servers (a rotation that moves every few hundred
op_ids, down links and suspects last) and held back from the rest.
The held servers get the round only through a *hedge*: when an
addressed link goes down, an addressed server sheds the frame, or the
round has not decided by an RTO-style estimate of this client's own
round times.  In the paper's
asynchronous model a server never sent a round is just a slow one, so
this changes no safety argument.  Protocols whose servers hold distinct
coded symbols or relay to each other keep sending every round to
everyone (the same path with nothing held); see docs/runtime.md.

The client is also *multiplexed*: any number of operations may be in
flight at once over the same set of connections.  A per-client
:class:`~repro.runtime.dispatch.OpDispatcher` tables each operation's
state (pending frames, completion future, span), every incoming reply
is folded into the operation that owns it by ``op_id``, and new
operations are admitted through a FIFO gate capped at ``max_inflight``.
Outgoing frames from all operations are coalesced per link per
event-loop tick into a single batch-sealed burst and one transport
write.

One ordering rule remains: *writes by the same client to the same
register are serialized* (reads multiplex freely, and writes overlap
with reads and with other clients' writes).  Two overlapping writes by
one writer could query the same tag ceiling and commit two different
values under the same ``(num, writer)`` tag, which breaks the tag
uniqueness every algorithm here relies on -- the paper's executions are
well-formed (each process runs one operation at a time), and the write
lock is what preserves that assumption per register under multiplexing.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.keys import key_error
from repro.core.namespace import DEFAULT_REGISTER, NamespacedOperation
from repro.core.messages import Throttled
from repro.sharding.ring import Placement
from repro.core.operation import ClientOperation
from repro.errors import AuthenticationError, ConfigurationError, LivenessError, OperationAborted, ProtocolError
from repro.obs import (
    LogGate,
    MetricRegistry,
    OpTracer,
    SamplingSink,
    phase_name,
)
from repro.protocols import OpContext, get_spec, runtime_names
from repro.runtime.dispatch import OpDispatcher, OpState, split_group
from repro.runtime.link import Link
from repro.transport.auth import Authenticator
from repro.transport.codec2 import CachedDecoder, CachedEncoder, peek_op_id_v2
from repro.transport.delta import DeltaDesync, Expander
from repro.types import ProcessId

logger = logging.getLogger(__name__)

#: Per-key client-side caches (reader states, write locks) are LRU-bounded
#: at this many keys so a key-routed client scanning a large keyspace
#: stays within a fixed footprint.  Evicting a reader state just resets
#: that key's semi-fast hint (the next read behaves like a fresh
#: reader's); evicting an uncontended write lock is invisible.
MAX_KEY_STATES = 4096

#: ... and at this many bytes held by reader states (a BCSR one holds
#: ``n/k + 1`` times its value); either bound evicts the oldest key.
MAX_STATE_BYTES = 64 * 1024 * 1024

#: A round with held servers is hedged once it has gone undecided for
#: ``srtt + 4 * rttvar`` of this client's unhedged rounds (RFC 6298's
#: estimator), never sooner than this many seconds -- also the delay
#: before the first round has been timed.
HEDGE_FLOOR = 0.05

#: Karn's backoff: each timer hedge doubles the delay until a round is
#: timed again, up to this factor.
HEDGE_BACKOFF_LIMIT = 64

#: Why a round was hedged: its hedge instant passed, an addressed link
#: went down, or a server shed one of its frames.
HEDGE_CAUSES = ("timer", "down", "throttled")


def _expire(done: "asyncio.Future") -> None:
    """Deadline timer callback: time out an operation still in flight."""
    if not done.done():
        done.set_exception(TimeoutError())


class AsyncRegisterClient:
    """Execute reads/writes of one register over TCP.

    The client opens one connection per server (lazily, tolerating servers
    that are down -- the protocols only need ``n - f`` of them) and drives
    the same operation state machines the simulator uses.  With
    ``reconnect=True`` (the default) lost or never-established connections
    are re-dialed in the background with exponential backoff and jitter.
    Operations may be issued concurrently (``asyncio.gather`` of reads
    and writes on one client); ``max_inflight`` bounds how many execute
    at once, with excess operations queueing FIFO.

    Usage::

        client = AsyncRegisterClient("w000", addresses, f=1, auth=auth)
        await client.connect()
        await client.write(b"hello")
        values = await asyncio.gather(*[client.read() for _ in range(16)])
        print(client.stats())
        await client.close()
    """

    def __init__(self, client_id: ProcessId,
                 addresses: Dict[ProcessId, Tuple[str, int]], f: int,
                 auth: Authenticator, algorithm: str = "bsr",
                 timeout: float = 30.0, initial_value: bytes = b"",
                 namespaced: bool = False, reconnect: bool = True,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 max_inflight: Optional[int] = None,
                 registry: Optional[MetricRegistry] = None,
                 trace_sink: Optional[Any] = None,
                 trace_sample: Optional[int] = None,
                 placement: Optional[Placement] = None) -> None:
        spec = get_spec(algorithm)
        if not spec.runtime_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} not supported by the asyncio "
                f"runtime; choose from {runtime_names()}"
            )
        self.spec = spec
        self.client_id = client_id
        # Query rounds repeat (only op_id varies); the cached encoder
        # re-emits the memoized tail instead of re-walking the fields.
        self._encode = CachedEncoder()
        # ... and replies repeat too: across servers for a replicated
        # protocol, so one decoder learns them for every link (a thrifty
        # client spreads replies over all links; a decoder each would
        # learn the same templates n times over).  A hit is byte-exact,
        # so a lying server can cost the others cache hits, never a
        # wrong message.  Coded elements repeat only per server: there
        # each link keeps its own (see _link).
        self._decode = CachedDecoder()
        self.addresses = dict(addresses)
        self.servers: List[ProcessId] = sorted(self.addresses)
        self.f = f
        self.auth = auth
        self.algorithm = algorithm
        self.timeout = timeout
        self.initial_value = initial_value
        #: Key -> quorum-group resolver of a sharded keyspace.  When set,
        #: every operation is routed to its key's group (a subset of the
        #: connections) instead of the whole fleet; sharded deployments
        #: are namespaced by construction.
        self.placement = placement
        self.namespaced = namespaced or placement is not None
        self.reconnect = reconnect
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.max_inflight = max_inflight
        self.reader_state = (spec.make_reader_state(initial_value)
                             if spec.make_reader_state is not None else None)
        self._register_states: "OrderedDict[str, Any]" = OrderedDict()
        #: register -> bytes its state held after its last read; their sum.
        self._state_sizes: Dict[str, int] = {}
        self._state_bytes = 0
        self._codec = (spec.make_codec(
            placement.group_size if placement is not None
            else len(self.servers), f)
            if spec.make_codec is not None else None)
        #: One link per server ever dialed, up or down ...
        self._links: Dict[ProcessId, Link] = {}
        #: ... and the ones that are up right now (what frames go to).
        self._connections: Dict[ProcessId, Link] = {}
        self._dispatcher = OpDispatcher(max_inflight)
        self._closes = 0  #: close() calls; a write queued across one aborts
        #: Writes by this client are ordered per register (see module
        #: docstring); reads never touch these locks.
        self._write_locks: "OrderedDict[str, asyncio.Lock]" = OrderedDict()
        #: Per-group operation counters, resolved lazily per group tuple.
        self._group_counters: Dict[Tuple[ProcessId, ...], Any] = {}
        self.registry = registry if registry is not None else MetricRegistry()
        client = str(client_id)
        #: Resilience counters, pre-created so :meth:`stats` always shows
        #: every key.  Labeled per client; the op/phase histograms fed by
        #: the tracer are *not*, so clients sharing a registry (a soak
        #: run) aggregate naturally.
        self._counters = {
            name: self.registry.counter(f"client_{name}_total", client=client)
            for name in ("connects", "reconnects", "disconnects",
                         "frames_dropped", "frames_resent", "ops_retried",
                         "throttled", "ops_queued", "replies_stale",
                         "send_batches", "connections_pruned", "recv_calls",
                         "decode_memo_hits", "decode_memo_misses",
                         "reply_decodes", "reply_decodes_shared",
                         "delta_expanded", "delta_resets")
        }
        self._hedges = {
            cause: self.registry.counter("client_hedges_total",
                                         client=client, cause=cause)
            for cause in HEDGE_CAUSES
        }
        #: Thrifty rounds, unless servers hold distinct coded symbols (a
        #: skipped put is a certain decode error later) or relay to each
        #: other (echo amplification counts on every server).
        self._thrifty = spec.make_codec is None and not spec.peer_links
        #: Smoothed duration and mean deviation of this client's rounds
        #: that were not hedged; ``None`` before the first is timed.
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto_backoff = 1
        #: Server -> (suspected until, consecutive hedges past it).
        self._suspects: Dict[ProcessId, Tuple[float, int]] = {}
        #: Servers whose coded element a decode located as erroneous.
        self._located: Dict[ProcessId, Any] = {}
        #: Servers :meth:`connect` skipped because no declared key routes
        #: to them (group-local pruning).  An operation that does route
        #: to one lazily un-prunes it -- see :meth:`_servers_for`.
        self._pruned: set = set()
        if trace_sink is not None and trace_sample is not None:
            # Deterministic 1-in-N span sampling, aligned with the
            # server-side flight recorders (same op_id modulus) so every
            # sampled operation can be stitched end-to-end.
            trace_sink = SamplingSink(trace_sink, trace_sample)
        self._tracer = OpTracer(self.registry, sink=trace_sink,
                                client_id=client, algorithm=algorithm)
        self._log = LogGate(logger, self.registry,
                            component=f"client/{client}")

    # -- connection management ----------------------------------------------
    async def connect(self, keys: Optional[Sequence[str]] = None) -> int:
        """Open connections to every reachable server; returns the count.

        Servers that are down are not fatal: with ``reconnect`` enabled
        their links keep re-dialing in the background, so a server that
        comes up later joins the quorum without another ``connect`` call.

        ``keys`` enables *group-local pruning* on a key-routed client:
        only servers appearing in at least one of the given keys'
        placement groups are dialed, the rest are skipped and counted as
        ``connections_pruned``.  Pruning is advisory, not a fence -- an
        operation on a key that routes to a pruned server lazily dials it
        in the background, so a session whose working set drifts past
        its declared keys stays live (it just pays one dial).
        """
        allowed = None
        if keys is not None:
            if self.placement is None:
                raise ConfigurationError(
                    "connect(keys=...) requires a key-routed client "
                    "(placement is not configured)")
            allowed = set()
            for key in keys:
                allowed.update(self.placement.servers_for(key))
        for pid in self.servers:
            if pid in self._connections:
                continue
            if allowed is not None and pid not in allowed:
                if pid not in self._pruned:
                    self._pruned.add(pid)
                    self._counters["connections_pruned"].inc()
                continue
            self._pruned.discard(pid)
            link = self._link(pid)
            if not link.redialing and not await link.dial():
                link.redial()
        return len(self._connections)

    async def close(self) -> None:
        """Tear down all links; what is in flight or queued fails now."""
        self._closes += 1
        self._dispatcher.abort(self._closed_error)
        for link in self._links.values():
            link.close()
        self._links.clear()
        self._connections.clear()

    def _closed_error(self) -> OperationAborted:
        return OperationAborted(f"client {self.client_id} was closed")

    def stats(self) -> Dict[str, int]:
        """Resilience counters: reconnects, disconnects, frames dropped /
        resent, operations retried / queued at the admission gate,
        throttle backoffs, hedged rounds, stale replies dropped, live
        connections and in-flight operations.  A compatibility view over
        :attr:`registry`."""
        stats = {name: int(counter.value)
                 for name, counter in self._counters.items()}
        stats["hedges"] = sum(int(counter.value)
                              for counter in self._hedges.values())
        stats["decode_located"] = sum(
            int(counter.value) for counter in self._located.values())
        stats["connected"] = len(self._connections)
        stats["inflight"] = self._dispatcher.inflight
        return stats

    def _link(self, pid: ProcessId) -> Link:
        """The link to ``pid``; created down and idle on first use."""
        link = self._links.get(pid)
        if link is None:
            expander = Expander(self._counters["delta_expanded"].inc)
            decode = (CachedDecoder() if self._codec is not None
                      else self._decode)
            link = self._links[pid] = Link(
                self.addresses[pid],
                # One HMAC covers the whole tick's payloads.
                partial(self.auth.seal_frames, self.client_id),
                on_frames=partial(self._fold_replies, pid, decode, expander),
                on_up=partial(self._link_up, pid, expander),
                on_down=partial(self._link_down, pid),
                on_flush=self._counters["send_batches"].inc,
                on_drop=partial(self._link_dropped, pid),
                backoff_base=self.backoff_base, backoff_max=self.backoff_max,
                reconnect=self.reconnect)
        return link

    def _link_up(self, pid: ProcessId, expander: Expander) -> None:
        expander.reset()
        link = self._links[pid]
        self._connections[pid] = link
        if link.redialing:
            self._counters["reconnects"].inc()
            self._resend_pending(pid)
        else:
            self._counters["connects"].inc()

    def _link_down(self, pid: ProcessId) -> None:
        del self._connections[pid]
        self._counters["disconnects"].inc()
        for state in self._dispatcher.states():
            if (state.held and pid in state.addressed
                    and not state.operation.done):
                self._hedge(state, "down", state.done.get_loop().time(),
                            (pid,))

    def _link_dropped(self, pid: ProcessId, reason: str, detail: str) -> None:
        self._counters["frames_dropped"].inc()
        self._log.warning(reason, "client %s, link to %s: %s",
                          self.client_id, pid, detail)

    def _fold_replies(self, pid: ProcessId, decode: CachedDecoder,
                      expander: Expander, frames: List[memoryview],
                      now: float) -> None:
        """Fold one read's verified frames into their owning ops.

        One read syscall may carry replies to several operations, each
        resolved by ``op_id`` through the dispatcher.  Replies owned by
        no in-flight operation (late answers and ``Throttled`` frames of
        finished ops) are dropped and counted as ``replies_stale``.
        """
        self._counters["recv_calls"].inc()
        peek = peek_op_id_v2
        lookup = self._dispatcher.lookup
        stale = self._counters["replies_stale"]
        # Coded elements differ per server: a copy could never be shared.
        remember = self._codec is None
        decodes = shared = 0
        for frame in frames:
            try:
                sender, payloads = self.auth.open_any(frame)
            except (AuthenticationError, ProtocolError) as exc:
                self._link_dropped(pid, "bad-frame",
                                   f"dropping bad frame: {exc}")
                continue
            if sender != pid:
                # A Byzantine server cannot speak for another server:
                # the signature pins the sender.
                self._link_dropped(pid, "wrong-sender", "dropping a frame "
                                   f"signed by {sender}")
                continue
            try:
                payloads = expander.expand(frame, payloads)
            except DeltaDesync as exc:
                # Base lost (or a lie): replay on a fresh, stateless link.
                self._counters["delta_resets"].inc()
                self._links[pid].reset("delta-desync", exc)
                break
            for payload in payloads:
                # Route by op_id before paying for the decode: stale
                # replies are dropped and surplus ones skipped without
                # ever parsing their payloads.  A thrifty round has no
                # surplus on a quiet cluster; what is left comes from
                # hedged rounds, repeated replies, and protocols whose
                # rounds go to every server.
                state = None
                op_id = peek(payload)
                if op_id is not None:
                    state = lookup(op_id)
                    if state is None:
                        stale.inc()
                        continue
                    if state.operation.done:
                        continue  # surplus; already decided
                decodes += 1
                message = None
                if state is not None:
                    # Correct servers answer one op_id byte-identically,
                    # and the decoder is deterministic: equal bytes are
                    # the same (frozen) message, whoever signed them.
                    for seen, earlier in state.decoded:
                        if payload == seen:
                            message = earlier
                            shared += 1
                            break
                if message is None:
                    try:
                        message = decode(payload)
                    except ProtocolError as exc:
                        self._link_dropped(pid, "bad-frame",
                                           f"dropping bad payload: {exc}")
                        continue
                    # At most one payload per server of the op.
                    if remember and state is not None and (
                            len(state.decoded)
                            < len(state.addressed) + len(state.held)):
                        state.decoded.append((bytes(payload), message))
                if not self._dispatch_reply(sender, message, now, state):
                    stale.inc()
        if decodes:
            self._counters["reply_decodes"].inc(decodes)
            self._counters["reply_decodes_shared"].inc(shared)

    # -- operations -------------------------------------------------------------
    def _resend_pending(self, pid: ProcessId,
                        only_type: Optional[str] = None,
                        states: Optional[List[OpState]] = None) -> None:
        """Replay in-flight frames to ``pid``.

        By default every in-flight operation's frames for that server
        are replayed (the reconnect path -- a healed link can still
        serve all of them), except where ``pid`` is held: those frames
        were never sent, and only a hedge sends them.  ``states``
        narrows the replay to specific operations (the throttle path
        replays only the op that owns the shed frame), and ``only_type``
        to frames of one message type
        (the server names the frame it shed, and replaying anything more
        would spend the refilled token on an already-delivered frame).
        """
        link = self._connections.get(pid)
        if link is None:
            return
        if states is None:
            states = self._dispatcher.states()
        resent = 0
        for state in states:
            if pid in state.held:
                continue
            frames = state.pending_frames(pid, only_type)
            if not frames:
                continue
            for payload in frames:
                link.send(payload)
            resent += len(frames)
            if state.span is not None:
                state.span.note_resend(len(frames))
            state.retried = True
        if resent:
            self._counters["frames_resent"].inc(resent)

    def _send_nowait(self, state: OpState, envelopes) -> None:
        """Encode and enqueue one operation's outgoing envelopes.

        Payloads are recorded in the op's pending map first (so a link
        that heals mid-operation can be served by replay, and a held
        server by a hedge), then handed to the live links of the
        addressed servers, which seal each burst at flush time -- one
        HMAC covers the whole tick's frames.  Payloads are
        destination-agnostic, so one broadcast message (a query round
        sends the same object to every server) is encoded exactly once.
        Nothing here waits: the burst is written on the next loop tick,
        and the op's liveness is bounded by its deadline, not by any one
        link's delivery.
        """
        encoded_cache: Dict[int, tuple] = {}
        connections = self._connections
        pending = state.pending
        held = state.held
        for pid in held:
            pending.pop(pid, None)  # an earlier round; never to be sent
        for dest, message in envelopes:
            entry = encoded_cache.get(id(message))
            if entry is None:
                entry = (type(message).__name__, self._encode(message))
                encoded_cache[id(message)] = entry
            pending.setdefault(dest, []).append(entry)
            if dest in held:
                continue  # waits for a hedge
            link = connections.get(dest)
            if link is not None:  # else down; resent if it heals in time
                link.send(entry[1])

    def _dispatch_reply(self, sender: ProcessId, message: Any,
                        now: float, state: Optional[OpState] = None) -> bool:
        """Run one verified reply through its owning operation, inline.

        Called from :meth:`_fold_replies`: the whole chunk's replies are
        processed in a single task step, and each waiting operation is
        woken exactly once -- when its ``done`` future resolves -- rather
        than once per reply through a queue.  ``state`` carries the
        owner when the fold already resolved it from the peeked op_id;
        payloads the peek cannot read resolve here.  Returns ``False``
        for replies owned by no in-flight operation.
        """
        if state is None:
            state = self._dispatcher.lookup(getattr(message, "op_id", None))
            if state is None:
                return False
        operation = state.operation
        if operation.done:
            return True  # surplus reply past the quorum; already decided
        if type(message) is Throttled:
            self._handle_throttle(state, sender, message, now)
            return True
        if self._suspects and state.held and sender in self._suspects:
            del self._suspects[sender]  # answered before any hedge
        span = state.span
        # Attribute the reply to the phase that solicited it (before
        # on_reply may advance the round).
        span.record_reply(str(sender), now)
        try:
            envelopes = operation.on_reply(sender, message)
        except Exception as exc:  # surface protocol bugs to the caller
            if state.done is not None and not state.done.done():
                state.done.set_exception(exc)
            return True
        if operation.done or operation.rounds != state.rounds:
            self._time_round(state, now)
            if not operation.done:
                state.rounds = operation.rounds
                self._begin_round(state, now)
                if state.held and state.hedge_at < state.timer.when():
                    # Timing the last round shrank the estimate (or ended
                    # a backoff): move the op's one timer earlier.
                    state.timer.cancel()
                    self._arm(state)
                span.begin_phase(
                    phase_name(operation.kind, state.rounds, self.algorithm),
                    now, state.addressed)
        if envelopes:
            self._send_nowait(state, envelopes)
        if operation.done and state.done is not None and not state.done.done():
            state.done.set_result(None)
        return True

    def _handle_throttle(self, state: OpState, sender: ProcessId,
                         message: Throttled, now: float) -> None:
        """Back off for the server's estimate, then replay the shed frame.

        The server shed one of this op's frames (rate limit).  Only this
        operation is affected; the pause is a timer (backing off must
        not stall the link) bounded by the op's deadline.  The op may
        finish (or time out) meanwhile, in which case the replay is
        skipped.  Meanwhile the round is hedged to the held servers.
        """
        self._counters["throttled"].inc()
        if state.span is not None:
            state.span.note_throttle()
        if state.held:
            self._hedge(state, "throttled", now, (sender,))
        pause = min(max(message.retry_after, self.backoff_base),
                    self.backoff_max, max(state.deadline - now, 0.0))
        asyncio.get_running_loop().call_later(
            pause, self._replay_shed, state, sender, message.dropped or None)

    def _replay_shed(self, state: OpState, sender: ProcessId,
                     only_type: Optional[str]) -> None:
        if self._dispatcher.lookup(state.op_id) is state:
            self._resend_pending(sender, only_type=only_type, states=[state])

    # -- thrifty rounds -------------------------------------------------------
    def _address(self, state: OpState, servers: Sequence[ProcessId],
                 now: float) -> None:
        """Split the op's group into the servers it sends to and the held."""
        keep = len(servers) - self.f if self._thrifty else len(servers)
        if keep >= len(servers):
            state.addressed = tuple(servers)
            return
        connections, suspects = self._connections, self._suspects
        last = None
        if suspects or len(connections) < len(self.servers):
            def last(pid: ProcessId) -> bool:
                return (pid not in connections
                        or suspects.get(pid, (0.0, 0))[0] > now)
        state.addressed, state.held = split_group(servers, state.op_id,
                                                  keep, last)

    def _begin_round(self, state: OpState, now: float) -> None:
        state.round_start = now
        if state.held:
            rto = HEDGE_FLOOR
            if self._srtt is not None:
                rto = max(rto, self._srtt + 4 * self._rttvar)
            state.hedge_at = min(now + rto * self._rto_backoff,
                                 state.deadline)

    def _time_round(self, state: OpState, now: float) -> None:
        """Fold a decided round's duration into the hedge estimate.

        Only rounds that still hold servers count: a hedged round's
        duration is ambiguous (Karn's rule), and a full round's is the
        fastest ``n - f`` of ``n``, not what a thrifty round waits for.
        """
        if not state.held:
            return
        sample = now - state.round_start
        if self._srtt is None:
            self._srtt, self._rttvar = sample, sample / 2
        else:
            self._rttvar += (abs(self._srtt - sample) - self._rttvar) / 4
            self._srtt += (sample - self._srtt) / 8
        self._rto_backoff = 1

    def _arm(self, state: OpState) -> None:
        """(Re-)arm the op's one timer: the hedge instant, else the deadline."""
        at = state.hedge_at if state.held else state.deadline
        state.timer = state.done.get_loop().call_at(at, self._on_timer,
                                                    state, at)

    def _on_timer(self, state: OpState, at: float) -> None:
        if state.done.done():
            return
        if at >= state.deadline:
            _expire(state.done)
            return
        if state.held and at >= state.hedge_at:
            if self._rto_backoff < HEDGE_BACKOFF_LIMIT:
                self._rto_backoff *= 2
            replied = state.span.phases[-1].replies
            self._hedge(state, "timer", at, [
                pid for pid in state.addressed if pid not in replied])
        self._arm(state)  # a later round's hedge instant, or the deadline

    def _hedge(self, state: OpState, cause: str, now: float,
               past: Sequence[ProcessId]) -> None:
        """Send the current round to the held servers; suspect ``past``.

        The op addresses its whole group from here on.  A suspect goes
        last when later ops choose whom to address, until it answers an
        unhedged round or its suspicion runs out: the client's redial
        backoff, doubling per consecutive hedge past it.
        """
        held, state.held = state.held, ()
        state.addressed += held
        self._hedges[cause].inc()
        state.span.note_hedge(held)
        for pid in past:
            strikes = self._suspects.get(pid, (0.0, 0))[1] + 1
            self._suspects[pid] = (now + min(
                self.backoff_max,
                self.backoff_base * 2 ** min(strikes - 1, 16)), strikes)
        for pid in held:
            link = self._connections.get(pid)
            if link is not None:
                for payload in state.pending_frames(pid):
                    link.send(payload)

    async def _run_operation(self, operation: ClientOperation,
                             servers: Optional[Sequence[ProcessId]] = None
                             ) -> Any:
        loop = asyncio.get_running_loop()
        if await self._dispatcher.gate.acquire():
            self._counters["ops_queued"].inc()
        state = self._dispatcher.register(operation)
        group = servers if servers is not None else self.servers
        now = loop.time()
        span = self._tracer.start(
            kind=operation.kind, op_id=operation.op_id, witness=self.f + 1,
            quorum=len(group) - self.f, now=now, servers=group)
        state.span = span
        outcome = "error"
        try:
            state.deadline = now + self.timeout
            state.done = loop.create_future()
            self._address(state, group, now)
            # The phase opens before its frames go out, so send time
            # counts toward the phase that caused it.
            span.begin_phase(phase_name(operation.kind, 1, self.algorithm),
                             now, state.addressed)
            try:
                # One timer bounds the whole operation (liveness needs
                # n - f live servers) and hedges its rounds on the way.
                # Replies are processed inline by the link (see
                # _dispatch_reply); this task only sends the opening
                # round and sleeps until the op decides.  The timer is a
                # bare ``call_at`` poking the same done future the link
                # resolves -- ``asyncio.timeout_at`` buys nothing here
                # but two extra coroutines per op.
                envelopes = operation.start()
                state.rounds = operation.rounds or 1
                self._begin_round(state, now)
                self._send_nowait(state, envelopes)
                if not operation.done:
                    self._arm(state)
                    try:
                        await state.done
                    finally:
                        state.timer.cancel()
            except TimeoutError:
                outcome = "timeout"
                raise LivenessError(
                    f"{operation.kind} by {self.client_id} did not complete "
                    f"within {self.timeout}s (are n - f servers up?)"
                )
            if span.throttles:
                outcome = "throttled"
            elif state.retried:
                outcome = "retried"
            else:
                outcome = "ok"
            return operation.result
        finally:
            span.finish(outcome, loop.time())
            self._dispatcher.unregister(state)
            self._dispatcher.gate.release()
            if state.retried:
                self._counters["ops_retried"].inc()

    def _reader_state_for(self, register: str) -> Any:
        if self.spec.make_reader_state is None:
            return None
        if not self.namespaced:
            return self.reader_state
        state = self._register_states.get(register)
        if state is None:
            state = self._register_states[register] = (
                self.spec.make_reader_state(self.initial_value))
            if len(self._register_states) > MAX_KEY_STATES:
                self._evict_state()
        else:
            self._register_states.move_to_end(register)
        return state

    def _evict_state(self) -> None:
        register, _ = self._register_states.popitem(last=False)
        self._state_bytes -= self._state_sizes.pop(register, 0)

    def _settle(self, register: str, state: Any,
                servers: Sequence[ProcessId]) -> None:
        """After a read: fold the state's counters, re-weigh what it holds."""
        if hasattr(state, "take_counts"):
            hits, misses, located = state.take_counts()
            self._counters["decode_memo_hits"].inc(hits)
            self._counters["decode_memo_misses"].inc(misses)
            for position in located:
                server = servers[position]
                if server not in self._located:
                    self._located[server] = self.registry.counter(
                        "client_decode_located_total",
                        client=str(self.client_id), server=str(server))
                self._located[server].inc()
        if self._register_states.get(register) is state:
            held = state.held_bytes()
            self._state_bytes += held - self._state_sizes.get(register, 0)
            self._state_sizes[register] = held
            while (self._state_bytes > MAX_STATE_BYTES
                   and len(self._register_states) > 1):
                self._evict_state()

    def _maybe_namespace(self, operation: ClientOperation, register: str):
        if self.namespaced:
            return NamespacedOperation(register, operation)
        return operation

    def _write_lock_for(self, register: str) -> asyncio.Lock:
        lock = self._write_locks.get(register)
        if lock is None:
            lock = self._write_locks[register] = asyncio.Lock()
            if len(self._write_locks) > MAX_KEY_STATES:
                # Only shed idle locks: evicting one that is held (or
                # awaited) would let two writes to its key overlap.
                for key in list(self._write_locks):
                    if len(self._write_locks) <= MAX_KEY_STATES:
                        break
                    candidate = self._write_locks[key]
                    if candidate is not lock and not candidate.locked():
                        del self._write_locks[key]
        else:
            self._write_locks.move_to_end(register)
        return lock

    def _servers_for(self, register: str) -> List[ProcessId]:
        """The servers an operation on ``register`` talks to.

        Key-routed clients resolve the key's quorum group through the
        placement (and count the op per group); plain clients always use
        the whole fleet.  Namespaced keys are validated here, client
        side, so a typo fails fast instead of timing out against servers
        that silently drop the invalid name.
        """
        if self.placement is not None:
            group = self.placement.servers_for(register)
            counter = self._group_counters.get(group)
            if counter is None:
                counter = self._group_counters[group] = self.registry.counter(
                    "client_group_ops_total", client=str(self.client_id),
                    group=self.placement.group_label(group))
            counter.inc()
            servers = list(group)
        else:
            if self.namespaced:
                reason = key_error(register)
                if reason is not None:
                    raise ConfigurationError(
                        f"invalid register name {register!r}: {reason}")
            servers = self.servers
        if len(self._links) < len(self.servers) or self._pruned:
            # Never connected, or the working set drifted past the keys
            # declared at connect time: dial what this operation routes
            # to in the background; its pending frames are replayed once
            # the link is up.
            for pid in servers:
                if pid not in self._links or pid in self._pruned:
                    self._pruned.discard(pid)
                    self._link(pid).redial(at_once=True)
        return servers

    async def write(self, value: Any,
                    register: str = DEFAULT_REGISTER) -> Any:
        """Write ``value``; returns the tag the write committed under.

        ``register`` selects the named register on namespaced clusters
        and, on key-routed clients, the quorum group the write is placed
        on.  Concurrent writes by this client to the same register are
        executed in turn (see the module docstring); they still overlap
        freely with this client's reads and with other clients.
        """
        servers, f = self._servers_for(register), self.f
        closes = self._closes
        async with self._write_lock_for(register):
            if closes != self._closes:
                raise self._closed_error()
            operation = self.spec.make_write(OpContext(
                client_id=self.client_id, servers=tuple(servers), f=f,
                value=value, initial_value=self.initial_value,
                codec=self._codec))
            return await self._run_operation(
                self._maybe_namespace(operation, register), servers=servers)

    async def read(self, register: str = DEFAULT_REGISTER) -> Any:
        """Read the register; returns the value.

        ``register`` selects the named register on namespaced clusters
        (the key's quorum group on key-routed clients).  Reads multiplex
        freely: any number may be in flight at once (subject to
        ``max_inflight``).
        """
        servers, f = self._servers_for(register), self.f
        state = self._reader_state_for(register)
        operation = self.spec.make_read(OpContext(
            client_id=self.client_id, servers=tuple(servers), f=f,
            initial_value=self.initial_value, reader_state=state,
            codec=self._codec))
        value = await self._run_operation(
            self._maybe_namespace(operation, register), servers=servers)
        if state is not None:
            self._settle(register, state, servers)
        return value
