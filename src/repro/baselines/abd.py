"""ABD: the classic crash-tolerant atomic register [Attiya-Bar-Noy-Dolev].

Multi-writer variant with ``n >= 2f + 1`` servers, tolerating ``f`` *crash*
failures only (no Byzantine defence whatsoever -- a single lying server
breaks it, which experiment E6 uses as a reference point for what Byzantine
tolerance costs).

* Server: a plain :class:`~repro.core.bsr.BSRServer` -- store the
  highest-tagged pair, answer tag and data queries; the algorithms differ
  purely on the client side.
* Write: the shared :class:`~repro.core.operation.WriteOperation` with tag
  rank 1 -- query a majority for tags, pick ``max + 1``, put to a majority.
* Read: query a majority for ``(tag, value)``, pick the max pair,
  *write it back* to a majority (the write-back is what upgrades regularity
  to atomicity), then return.  Both operations take two rounds.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.messages import DataReply
from repro.core.operation import WriteBackRead
from repro.core.tags import TaggedValue
from repro.types import ProcessId


class ABDReadOperation(WriteBackRead):
    """Two-phase ABD read: query a majority, write the max pair back."""

    def _select(self, sender: ProcessId, message: Any) -> Optional[TaggedValue]:
        if not isinstance(message, DataReply):
            return None
        self._replies.add(sender, message)
        if len(self._replies) < self.quorum:
            return None
        best = max(self._replies.values(), key=lambda reply: reply.tag)
        return TaggedValue(best.tag, best.payload)
