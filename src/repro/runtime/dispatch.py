"""Transport-level operation dispatcher: many in-flight ops per client.

Nothing in the protocols requires a client to run one operation at a
time -- every BSR/BCSR operation is an idempotent quorum state machine
keyed by ``op_id`` (:mod:`repro.core.operation`), so replies, replays
and throttle backoffs can all be scoped to the operation they belong
to.

This module supplies the pieces that make concurrency a property of the
runtime rather than a per-client accident:

* :class:`OpState` -- the per-operation record: encoded payloads
  pending per server (replayed to a healed link, or sent to a held
  server by a hedge), which servers the op addresses and which it
  holds back, the completion future the reply path resolves, the
  operation's tracing span and its retry flag.
* :class:`OpDispatcher` -- the in-flight table.  The client looks each
  incoming reply's owner up by ``op_id`` and folds it into that
  operation inline; replies for finished ops (including stale
  ``Throttled`` frames, which used to bleed into the *next* operation's
  execution) find no owner and are dropped and counted.  The dispatcher
  also owns the :class:`AdmissionGate`.
* :class:`AdmissionGate` -- a FIFO gate capping concurrently executing
  operations at ``max_inflight``; excess ops queue in arrival order.
* :func:`split_group` -- which ``n - f`` servers of a group an
  operation's rounds go to, and which it holds back.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.types import ProcessId

#: Consecutive op_ids that share one rotation.  Operations in flight
#: together then address the same servers, so each tick's frames go out
#: on ``n - f`` links and decide in the same waves; rotating per op
#: scattered them over all ``n`` and cost more in lost batching (fewer
#: payloads per socket write and read) than the held frames saved.
ROTATION_RUN = 256


def split_group(servers: Sequence[ProcessId], op_id: int, keep: int,
                last: Optional[Callable[[ProcessId], bool]] = None
                ) -> Tuple[Tuple[ProcessId, ...], Tuple[ProcessId, ...]]:
    """``(addressed, held)``: the first ``keep`` of ``servers`` and the rest.

    The order is ``servers`` rotated by ``op_id // ROTATION_RUN``, so
    over any ``n`` consecutive runs every server is held for one run;
    servers for which ``last`` is true (a down link, a suspect) move
    behind the others, keeping that order among themselves.
    """
    turn = op_id // ROTATION_RUN % len(servers)
    order = list(servers[turn:]) + list(servers[:turn])
    if last is not None:
        order.sort(key=last)
    return tuple(order[:keep]), tuple(order[keep:])


class OpState:
    """Everything the runtime tracks for one in-flight operation."""

    __slots__ = ("op_id", "operation", "span", "pending", "retried",
                 "done", "rounds", "deadline", "decoded", "addressed",
                 "held", "round_start", "hedge_at", "timer")

    def __init__(self, operation: Any) -> None:
        self.op_id: int = operation.op_id
        self.operation = operation
        #: Tracing span; set by the client once the span opens.
        self.span: Optional[Any] = None
        #: ``server -> [(message type name, encoded payload)]`` --
        #: replayed on reconnect, and per-type after a throttle (sealed
        #: at flush time by the link).  A held server's entry is only
        #: ever the current round's: a hedge sends that round, and a
        #: round it was never sent is moot.
        self.pending: Dict[ProcessId, List[Tuple[str, bytes]]] = {}
        #: Servers this op's frames go to ...
        self.addressed: Tuple[ProcessId, ...] = ()
        #: ... and the rest of its group, whose frames wait in
        #: ``pending`` until a hedge (then empty for the op's remainder).
        self.held: Tuple[ProcessId, ...] = ()
        #: Loop time the current round's frames went out ...
        self.round_start = 0.0
        #: ... and when its held servers are sent them if it has not
        #: decided by then.
        self.hedge_at = 0.0
        #: The op's one timer: the hedge instant, then the deadline.
        self.timer: Optional[asyncio.TimerHandle] = None
        #: Whether any frame of this op was re-sent (outcome bookkeeping).
        self.retried = False
        #: Completion future for inline reply processing; set by the
        #: client before the first frame goes out.
        self.done: Optional[asyncio.Future] = None
        #: Last protocol round the client opened a tracing phase for.
        self.rounds = 1
        #: Absolute loop-time deadline (bounds throttle backoffs).
        self.deadline = 0.0
        #: ``(payload bytes, decoded message)`` of this op's distinct
        #: replies so far; an equal payload reuses the message.
        self.decoded: List[Tuple[bytes, Any]] = []

    def pending_frames(self, pid: ProcessId,
                       only_type: Optional[str] = None) -> List[bytes]:
        """Encoded payloads of this op destined for ``pid``.

        ``only_type`` narrows to one message type (the throttle path:
        the server names the frame it shed).
        """
        return [payload for type_name, payload in self.pending.get(pid, ())
                if only_type is None or type_name == only_type]


class AdmissionGate:
    """FIFO admission control for operation execution.

    At most ``max_inflight`` holders at a time; further :meth:`acquire`
    calls wait in strict arrival order.  ``max_inflight=None`` admits
    everything immediately (the gate still counts holders).
    """

    def __init__(self, max_inflight: Optional[int] = None) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_inflight = max_inflight
        self._holders = 0
        self._waiters: "deque[asyncio.Future]" = deque()
        #: Cumulative count of operations that had to queue.
        self.queued_total = 0

    @property
    def inflight(self) -> int:
        """Operations currently admitted."""
        return self._holders

    @property
    def queued(self) -> int:
        """Operations currently waiting for admission."""
        return len(self._waiters)

    async def acquire(self) -> bool:
        """Admit the caller; returns whether it had to queue."""
        if self.max_inflight is None or (
                self._holders < self.max_inflight and not self._waiters):
            self._holders += 1
            return False
        self.queued_total += 1
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            await fut
        except asyncio.CancelledError:
            if fut.done() and not fut.cancelled():
                # The slot was granted concurrently with the
                # cancellation; pass it to the next waiter.
                self.release()
            else:
                try:
                    self._waiters.remove(fut)
                except ValueError:
                    pass
            raise
        return True

    def release(self) -> None:
        """Give up a slot, waking the oldest waiter (FIFO)."""
        self._holders -= 1
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                self._holders += 1
                fut.set_result(None)
                return


class OpDispatcher:
    """The in-flight operation table."""

    def __init__(self, max_inflight: Optional[int] = None) -> None:
        self.gate = AdmissionGate(max_inflight)
        self._ops: Dict[int, OpState] = {}

    # -- lifecycle ---------------------------------------------------------
    def register(self, operation: Any) -> OpState:
        """Create and table the per-op record for ``operation``."""
        state = OpState(operation)
        self._ops[state.op_id] = state
        return state

    def unregister(self, state: OpState) -> None:
        """Drop a finished operation; later replies for it are stale."""
        self._ops.pop(state.op_id, None)

    def abort(self, make_error: Any) -> None:
        """Fail every executing and every queued operation, now."""
        waiters = self.gate._waiters
        for fut in [s.done for s in self._ops.values()] + list(waiters):
            if fut is not None and not fut.done():
                fut.set_exception(make_error())
        waiters.clear()

    @property
    def inflight(self) -> int:
        """Number of registered (executing) operations."""
        return len(self._ops)

    def states(self) -> List[OpState]:
        """The in-flight records (snapshot)."""
        return list(self._ops.values())

    def lookup(self, op_id: Any) -> Optional[OpState]:
        """The in-flight record owning ``op_id``, if any.

        ``None`` for late replies and ``Throttled`` frames of
        already-finished ops.  Dropping them on that answer is what
        fixes the stale-reply bleed-through of the shared-queue design,
        where a leftover ``Throttled`` triggered a backoff sleep and a
        frame replay for whichever operation ran *next*.
        """
        return self._ops.get(op_id)
