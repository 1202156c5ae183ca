"""Multi-register namespaces: many named registers per deployment.

The paper emulates a single shared register; real deployments (the
key-value stores of Section I) need many.  Because every algorithm here is
a pure state machine, multiplexing is a thin, protocol-agnostic wrapper:

* :class:`NamespacedMessage` tags any protocol message with a register name.
* :class:`~repro.sharding.RegisterTable` (the server side) routes each
  tagged message to a per-register server instance (created on demand
  from a factory); replies to the requesting party go back bare, and
  messages to peers and pushes to other parties stay tagged.  A
  Byzantine behaviour, when present, is applied *per register server*,
  so every strategy from :mod:`repro.byzantine.behaviors` works
  unchanged.
* :class:`NamespacedOperation` wraps a client operation so its outgoing
  messages carry the register name; bare replies pass straight to the
  wrapped operation, tagged ones only for its own register.

Safety/regularity guarantees are per register: operations on different
names never interact (they touch disjoint server state), which mirrors how
per-key consistency is stated for production KV stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.messages import HEADER_BYTES
from repro.types import Envelope, ProcessId

#: Name used when the caller does not pick one.
DEFAULT_REGISTER = "default"


@dataclass(frozen=True)
class NamespacedMessage:
    """A protocol message addressed to one named register."""

    register: str
    inner: Any

    @property
    def op_id(self):
        """Expose the inner operation id (for tracing and matching)."""
        return getattr(self.inner, "op_id", None)

    def wire_size(self) -> int:
        """Inner size plus the register-name overhead."""
        inner_size = (self.inner.wire_size()
                      if hasattr(self.inner, "wire_size") else HEADER_BYTES)
        return inner_size + len(self.register)


class NamespacedOperation:
    """Adapt a client operation to speak to one named register.

    Exposes the :class:`~repro.core.operation.ClientOperation` surface the
    runtimes rely on (``start`` / ``on_reply`` / ``done`` / ``result`` /
    ``rounds`` / ``kind``), delegating to the wrapped operation.
    """

    def __init__(self, register: str, operation: Any) -> None:
        self.register = register
        self.operation = operation

    # -- delegated protocol surface ------------------------------------------
    @property
    def kind(self) -> str:
        """The wrapped operation's kind ("read" or "write")."""
        return self.operation.kind

    @property
    def op_id(self) -> int:
        """The wrapped operation's id."""
        return self.operation.op_id

    @property
    def done(self) -> bool:
        """Whether the wrapped operation completed."""
        return self.operation.done

    @property
    def result(self) -> Any:
        """The wrapped operation's result."""
        return self.operation.result

    @property
    def result_tag(self):
        """The wrapped operation's tag, if any."""
        return self.operation.result_tag

    @property
    def rounds(self) -> int:
        """Client-to-server rounds used so far."""
        return self.operation.rounds

    @property
    def value(self):
        """The value being written (write operations only)."""
        return getattr(self.operation, "value", None)

    # -- message flow ------------------------------------------------------------
    def _wrap(self, envelopes: List[Envelope]) -> List[Envelope]:
        # One wrapper per distinct message, shared by its destinations as
        # the (frozen) message itself is: a broadcast stays one object,
        # which is what lets a sender encode it once.
        if not envelopes:
            return envelopes
        wrappers: Dict[int, NamespacedMessage] = {}
        wrapped = []
        for dest, message in envelopes:
            wrapper = wrappers.get(id(message))
            if wrapper is None:
                wrapper = wrappers[id(message)] = NamespacedMessage(
                    register=self.register, inner=message)
            wrapped.append((dest, wrapper))
        return wrapped

    def start(self) -> List[Envelope]:
        """Start the wrapped operation; tags every outgoing message."""
        return self._wrap(self.operation.start())

    def on_reply(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Feed a reply to the wrapped operation.

        A register table answers the requesting party *bare*: the reply
        reaches this operation only through its own client's connection
        and its ``op_id`` (unique per process), which the wrapped
        operation checks, so the register it asked is implied.  A
        wrapped reply (a push, or a peer-routed ack) is accepted only for
        this operation's own register.  That stops a correct server's
        reply that reached the wrong operation; it does not stop a
        Byzantine server, which can tag a reply with any register it
        likes, or send it bare.  What defeats that server is the wrapped
        operation's witness counting: its reply is one voice among the
        ``f + 1`` a pair needs.
        """
        if isinstance(message, NamespacedMessage):
            if message.register != self.register:
                return []
            message = message.inner
        return self._wrap(self.operation.on_reply(sender, message))
