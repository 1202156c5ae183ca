"""Adapters running protocol state machines inside the simulator.

* :class:`ServerProcess` hosts any server state machine (an object exposing
  ``handle(sender, message) -> [(dest, message)]``), optionally behind a
  Byzantine behaviour from :mod:`repro.byzantine.behaviors`.
* :class:`ClientProcess` drives a sequence of client operations, enforcing
  the model's "at most one operation can run on a client" rule and
  recording every invocation/response in the simulator's trace.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.core.operation import ClientOperation
from repro.sim.process import Process
from repro.sim.trace import OpKind, OperationRecord
from repro.types import ProcessId


class ServerProcess(Process):
    """A server: delegates every message to its state machine.

    With a ``behavior`` the server is Byzantine: the behaviour sees the
    underlying (correct) state machine, the incoming message and what a
    correct server *would* reply, and returns the envelopes actually
    sent.  This structure expresses all the paper's example deviations --
    "incorrect register values, incorrect timestamp values, no reply or
    multiple replies" -- as small strategy objects.
    """

    def __init__(self, pid: ProcessId, protocol: Any,
                 behavior: Optional[Any] = None) -> None:
        super().__init__(pid)
        self.protocol = protocol
        self.behavior = behavior

    def on_message(self, sender: ProcessId, message: Any) -> None:
        if self.crashed:
            return
        replies = self.protocol.handle(sender, message)
        if self.behavior is not None:
            replies = self.behavior.on_message(self.protocol, sender,
                                               message, replies)
        self.ctx.send_all(replies)


class ClientProcess(Process):
    """A client that executes scheduled operations one at a time.

    Operations are submitted as *factories* (zero-argument callables
    returning a fresh :class:`ClientOperation`) together with a desired
    start time.  If an operation is still running when the next one's start
    time arrives, the next one is queued and starts immediately after the
    current one completes -- clients are sequential (Section II-A).
    """

    def __init__(self, pid: ProcessId) -> None:
        super().__init__(pid)
        self._pending: List[Tuple[float, int, Callable[[], ClientOperation],
                                  Optional[Callable]]] = []
        self._tiebreak = itertools.count()
        self._current: Optional[ClientOperation] = None
        self._current_record: Optional[OperationRecord] = None
        self._completions: List[Tuple[ClientOperation, OperationRecord]] = []
        self._started = False

    # -- submission ---------------------------------------------------------
    def submit(self, at_time: float, op_factory: Callable[[], ClientOperation],
               on_complete: Optional[Callable] = None) -> None:
        """Request an operation to start at ``at_time`` (or later if busy)."""
        heapq.heappush(self._pending, (at_time, next(self._tiebreak),
                                       op_factory, on_complete))
        if self._started and not self.crashed:
            self._arm_next()

    @property
    def completions(self) -> List[Tuple[ClientOperation, OperationRecord]]:
        """All (operation, trace record) pairs completed by this client."""
        return list(self._completions)

    @property
    def busy(self) -> bool:
        """Whether an operation is currently in flight."""
        return self._current is not None

    @property
    def idle_with_empty_queue(self) -> bool:
        """True when nothing is running and nothing is pending."""
        return self._current is None and not self._pending

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        self._started = True
        self._arm_next()

    def _arm_next(self) -> None:
        if self._current is not None or not self._pending:
            return
        at_time, _, _, _ = self._pending[0]
        delay = max(0.0, at_time - self.ctx.now)
        self.ctx.set_timer(delay, self._begin_next, label=f"op-start@{self.pid}")

    def _begin_next(self) -> None:
        if self.crashed or self._current is not None or not self._pending:
            return
        at_time, _, op_factory, on_complete = heapq.heappop(self._pending)
        operation = op_factory()
        self._current = operation
        self._current_on_complete = on_complete
        simulator = self.ctx._simulator
        kind = OpKind.WRITE if operation.kind == "write" else OpKind.READ
        value = getattr(operation, "value", None)
        self._current_record = simulator.trace.begin(
            self.pid, kind, self.ctx.now, value=value
        )
        register = getattr(operation, "register", None)
        if register is not None:
            self._current_record.meta["register"] = register
        self.ctx.send_all(operation.start())
        self._check_done()

    def on_message(self, sender: ProcessId, message: Any) -> None:
        if self.crashed or self._current is None:
            return
        self.ctx.send_all(self._current.on_reply(sender, message))
        self._check_done()

    def _check_done(self) -> None:
        operation = self._current
        if operation is None or not operation.done:
            return
        record = self._current_record
        simulator = self.ctx._simulator
        simulator.trace.complete(
            record, self.ctx.now, value=operation.result,
            tag=operation.result_tag, rounds=operation.rounds,
        )
        self._completions.append((operation, record))
        callback = self._current_on_complete
        self._current = None
        self._current_record = None
        self._current_on_complete = None
        if callback is not None:
            callback(operation, record)
        self._arm_next()
