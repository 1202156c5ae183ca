"""The paper's contribution: BSR, BCSR and the regular-register extensions.

All protocol logic is written as transport-agnostic state machines:

* servers implement ``handle(sender, message) -> [(dest, message), ...]``;
* client operations implement ``start()`` / ``on_reply(...)`` returning
  batches of outgoing messages, plus ``done`` / ``result``.  Every
  protocol writes with the one :class:`WriteOperation`; BCSR's
  :func:`coded_write` gives it per-server coded elements to put.

The same classes run inside the discrete-event simulator
(:mod:`repro.core.processes`) and over real sockets (:mod:`repro.runtime`).
"""

from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.core.quorum import (
    bcsr_min_servers,
    bsr_min_servers,
    kth_highest,
    rb_min_servers,
    validate_bcsr_config,
)
from repro.core.operation import WriteOperation
from repro.core.bsr import BSRReadOperation, BSRReaderState, BSRServer
from repro.core.bcsr import BCSRReadOperation, BCSRServer, coded_write
from repro.core.regular import (
    HistoryReadOperation,
    RegularBSRServer,
    TwoRoundReadOperation,
)
from repro.core.register import RegisterSystem

__all__ = [
    "Tag",
    "TaggedValue",
    "TAG_ZERO",
    "bsr_min_servers",
    "bcsr_min_servers",
    "rb_min_servers",
    "kth_highest",
    "validate_bcsr_config",
    "WriteOperation",
    "BSRServer",
    "BSRReadOperation",
    "BSRReaderState",
    "BCSRServer",
    "coded_write",
    "BCSRReadOperation",
    "RegularBSRServer",
    "HistoryReadOperation",
    "TwoRoundReadOperation",
    "RegisterSystem",
]
