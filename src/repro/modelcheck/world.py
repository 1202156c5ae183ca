"""A controlled-scheduler execution: the model checker's unit of state.

A :class:`World` holds server state machines, a chain of client operations
(each starting when its predecessor completes -- the shape of all the
paper's counterexample executions), and the multiset of in-flight messages.
The model checker advances a world one *delivery choice* at a time and
snapshots it by value, so exploration can branch.

Unlike the simulator there is no clock: asynchrony is modelled purely by
delivery order, which is exactly the paper's adversary power (unbounded,
arbitrary delays) in a finite form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.operation import ReplyCollector
from repro.core.tags import Tag, TaggedValue
from repro.erasure.element import CodedElement
from repro.types import Envelope, ProcessId


@dataclass
class OpSpec:
    """One client operation in the (sequential) scenario chain."""

    client: ProcessId
    factory: Callable[[], Any]  # zero-arg, returns a fresh ClientOperation
    label: str = ""


class _Pending:
    """One in-flight message; immutable, with a cached fingerprint."""

    __slots__ = ("src", "dst", "message", "_key")

    def __init__(self, src: ProcessId, dst: ProcessId, message: Any) -> None:
        self.src = src
        self.dst = dst
        self.message = message
        self._key = (src, dst, repr(message))

    def key(self) -> Tuple[str, str, str]:
        return self._key


class World:
    """One reachable global state of a controlled execution."""

    def __init__(self, servers: Dict[ProcessId, Any], ops: Sequence[OpSpec],
                 behaviors: Optional[Dict[ProcessId, Any]] = None,
                 initial_pending: Sequence[Tuple[ProcessId, ProcessId, Any]] = ()) -> None:
        self.servers = servers
        self.behaviors = behaviors or {}
        self.op_specs = list(ops)
        self.ops: List[Any] = []          # instantiated operations, in order
        self.results: List[Any] = []      # completed results, in order
        self.pending: List[_Pending] = []
        for src, dst, message in initial_pending:
            self.pending.append(_Pending(src=src, dst=dst, message=message))
        self._start_next_op()

    # -- lifecycle ----------------------------------------------------------
    def clone(self) -> "World":
        """Copy the world by value.

        Server histories hold immutable pairs, pending entries are
        immutable, and behaviours used in model checking are stateless, so
        a shallow-plus-history copy suffices for servers; operations are
        small and get a true deepcopy.
        """
        twin = World.__new__(World)
        twin.behaviors = self.behaviors            # stateless, shared
        twin.op_specs = self.op_specs              # immutable specs, shared
        twin.servers = {pid: server.copy()
                        for pid, server in self.servers.items()}
        memo = {}
        # Reader state may be shared between a spec closure and an op;
        # deepcopy with a shared memo keeps that aliasing intact.
        twin.ops = copy.deepcopy(self.ops, memo)
        twin.results = list(self.results)
        twin.pending = list(self.pending)          # entries are immutable
        return twin

    def _start_next_op(self) -> None:
        while len(self.ops) < len(self.op_specs):
            spec = self.op_specs[len(self.ops)]
            operation = spec.factory()
            # Deterministic per-position op ids: freshly minted global ids
            # would make equivalent states from different branches look
            # distinct and defeat visited-state pruning.
            operation.op_id = 50_000 + len(self.ops)
            self.ops.append(operation)
            self._enqueue(spec.client, operation.start())
            if not operation.done:
                break
            self.results.append(operation.result)

    def _enqueue(self, src: ProcessId, envelopes: Sequence[Envelope]) -> None:
        for dst, message in envelopes:
            self.pending.append(_Pending(src=src, dst=dst, message=message))

    # -- scheduler interface ---------------------------------------------------
    @property
    def done(self) -> bool:
        """All scenario operations completed."""
        return len(self.results) == len(self.op_specs)

    @property
    def stuck(self) -> bool:
        """No operation can make progress any more (a liveness dead end).

        Unreachable when at most ``f`` servers misbehave -- its appearance
        in a report means the scenario exceeded the fault budget.
        """
        return not self.done and not self.pending

    def choices(self) -> List[int]:
        """Indices of deliverable messages (all of them: full asynchrony)."""
        return list(range(len(self.pending)))

    def deliver(self, index: int) -> None:
        """Deliver pending message ``index`` and run the consequences."""
        entry = self.pending.pop(index)
        if entry.dst in self.servers:
            server = self.servers[entry.dst]
            replies = server.handle(entry.src, entry.message)
            behavior = self.behaviors.get(entry.dst)
            if behavior is not None:
                replies = behavior.on_message(server, entry.src,
                                              entry.message, replies)
            self._enqueue(entry.dst, replies)
            return
        # Client delivery: route to the active operation (if any).
        active_index = len(self.results)
        if active_index >= len(self.ops):
            return  # late reply after the whole chain finished
        operation = self.ops[active_index]
        if getattr(operation, "client_id", None) != entry.dst and \
                self.op_specs[active_index].client != entry.dst:
            return  # reply for an earlier op's client; stale, drop
        followups = operation.on_reply(entry.src, entry.message)
        self._enqueue(entry.dst, followups)
        if operation.done:
            self.results.append(operation.result)
            self._start_next_op()

    # -- canonical state key -------------------------------------------------------
    def state_key(self) -> Tuple:
        """A value-based fingerprint for visited-state pruning.

        Includes server histories, every operation's observable progress,
        completed results and the pending multiset.  Two worlds with equal
        keys behave identically under any future schedule (for stateless
        Byzantine behaviours).
        """
        # Symmetry reduction: *correct* servers are interchangeable, so
        # each is keyed by (state, pending-to-it) and the collection is a
        # sorted multiset; Byzantine servers (and clients) stay keyed by id.
        pending_by_dst: Dict[ProcessId, List[Tuple]] = {}
        other_pending: List[Tuple] = []
        for entry in self.pending:
            if entry.dst in self.servers and entry.dst not in self.behaviors:
                # dst is implicit in the per-server grouping; keeping it in
                # the key would defeat the symmetric-server merge.
                src, _dst, msg = entry.key()
                pending_by_dst.setdefault(entry.dst, []).append((src, msg))
            else:
                other_pending.append(entry.key())
        correct_servers = []
        byzantine_servers = []
        for pid, server in sorted(self.servers.items()):
            fingerprint = (
                _canon(getattr(server, "history", None)),
                tuple(sorted(pending_by_dst.get(pid, ()))),
            )
            if pid in self.behaviors:
                byzantine_servers.append((pid, fingerprint))
            else:
                correct_servers.append(fingerprint)
        ops = tuple(_op_key(op) for op in self.ops)
        results = tuple(repr(result) for result in self.results)
        return (
            tuple(sorted(map(repr, correct_servers))),
            tuple(byzantine_servers),
            ops,
            results,
            tuple(sorted(other_pending)),
        )


def _canon(value: Any) -> Any:
    """Canonicalize protocol state values into hashable structures."""
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    if isinstance(value, Tag):
        return ("tag", value.num, value.writer)
    if isinstance(value, TaggedValue):
        return ("tv", _canon(value.tag), _canon(value.value))
    if isinstance(value, CodedElement):
        return ("ce", value.index, value.data)
    if isinstance(value, ReplyCollector):
        return ("rc", tuple(sorted(
            (sender, repr(reply)) for sender, reply in value.replies.items()
        )))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in value.items()))
    if hasattr(value, "local"):  # BSRReaderState
        return ("rs", _canon(value.local))
    return repr(value)


def _op_key(operation: Any) -> Tuple:
    """Fingerprint of one operation's observable state."""
    parts = [type(operation).__name__, operation.done]
    if operation.done:
        parts.append(repr(operation.result))
    inner = getattr(operation, "operation", None)
    if inner is not None:  # NamespacedOperation wrapper
        parts.append(_op_key(inner))
        return tuple(parts)
    for name, value in sorted(vars(operation).items()):
        if name in ("servers", "codec", "initial_value", "value",
                    "client_id", "op_id", "f", "n"):
            continue
        if callable(value):
            continue
        parts.append((name, _canon(value)))
    return tuple(parts)
