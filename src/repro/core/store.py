"""The register store: a server's list ``L`` and the one rule that admits a pair.

BSR's server (Fig 3) and BCSR's (Fig 6) are the same store -- append a
put only if its tag is strictly higher, answer ``QUERY-TAG`` and
``QUERY-DATA`` from the newest pair -- and differ only in what a value
is (a whole value, or the server's coded element).  The broadcast
registers and MPR keep the same list; only how a pair reaches it
differs (a delivered broadcast, an echo-validated write).  Every server
class derives from :class:`RegisterStore`, and :meth:`RegisterStore.adopt`
is the only place a pair enters ``L``, so the tag bound and the history
bound hold on every server alike.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional, Sequence

from repro.core.messages import (
    DataHeld,
    DataReply,
    QueryData,
    QueryDataHeld,
    QueryTag,
    TagReply,
    stored_size,
)
from repro.core.tags import TAG_ZERO, Tag, TaggedValue, tag_in_range
from repro.types import Envelope, ProcessId


class RegisterStore:
    """The list ``L`` of ``(tag, value)`` pairs one server keeps.

    ``L[0]`` is the initial pair and ``L`` stays in ascending tag order.
    ``max_history`` bounds its length (the paper keeps it unbounded):
    after every admission the oldest entries beyond the bound are pruned,
    newest kept.  A deployment builds every correct server of a protocol
    that answers only from its newest pair with ``max_history=1``
    (:meth:`~repro.protocols.fleet.Fleet.server`); a Byzantine server
    and a history-serving one keep the deployment's bound -- see the E12
    ablation.
    """

    def __init__(self, server_id: ProcessId, initial_value: Any = b"",
                 max_history: Optional[int] = None) -> None:
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be at least 1")
        self.server_id = server_id
        self.max_history = max_history
        self.history: List[TaggedValue] = [TaggedValue(TAG_ZERO, initial_value)]

    @property
    def latest(self) -> TaggedValue:
        """The pair with the highest tag in ``L``."""
        return self.history[-1]

    @property
    def max_tag(self) -> Tag:
        """The highest tag in ``L``."""
        return self.history[-1].tag

    def storage_bytes(self) -> int:
        """Approximate bytes of user data stored (for experiment E4).

        Charges only the *current* value, matching the replication baseline
        of Section I-C where each server stores one copy of the register.
        """
        return stored_size(self.latest.value)

    def history_bytes(self) -> int:
        """Approximate bytes of the whole list ``L`` (for the E12 ablation)."""
        return sum(stored_size(pair.value) for pair in self.history)

    def adopt(self, pair: TaggedValue) -> bool:
        """Append ``pair`` to ``L`` if its tag is in range and strictly
        higher than every stored tag, then prune; whether it was appended.

        A tag out of range is refused where it enters: stored, it would
        outrank every later write for good.
        """
        if not (tag_in_range(pair.tag) and pair.tag > self.history[-1].tag):
            return False
        self.history.append(pair)
        if self.max_history is not None and len(self.history) > self.max_history:
            del self.history[: len(self.history) - self.max_history]
        return True

    def restore(self, pairs: Sequence[TaggedValue]) -> None:
        """Replay a snapshot's pairs, oldest first, into this fresh store.

        A leading ``TAG_ZERO`` pair is the initial pair the snapshot's
        server was built with, and replaces this one's; every other pair
        enters through :meth:`adopt`, so a scribbled tag is dropped and
        only the newest ``max_history`` pairs are kept.
        """
        if pairs and pairs[0].tag == TAG_ZERO:
            self.history = [pairs[0]]
        for pair in pairs:
            self.adopt(pair)

    def copy(self) -> "RegisterStore":
        """A shallow copy with a list ``L`` of its own (pairs are
        immutable, so the copies share them)."""
        twin = copy.copy(self)
        twin.history = list(self.history)
        return twin

    def _get_tag_resp(self, sender: ProcessId, message: QueryTag) -> List[Envelope]:
        return [(sender, TagReply(op_id=message.op_id, tag=self.max_tag))]

    def _get_data_resp(self, sender: ProcessId, message: QueryData) -> List[Envelope]:
        latest = self.latest
        if type(message) is QueryDataHeld and message.tag == latest.tag:
            return [(sender, DataHeld(op_id=message.op_id))]
        return [(sender, DataReply(op_id=message.op_id, tag=latest.tag,
                                   payload=latest.value))]
