"""The paper's contribution: BSR, BCSR and the regular-register extensions.

All protocol logic is written as transport-agnostic state machines:

* servers implement ``handle(sender, message) -> [(dest, message), ...]``;
* client operations implement ``start()`` / ``on_reply(...)`` returning
  batches of outgoing messages, plus ``done`` / ``result``.

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
    validate_bsr_config,
)
from repro.core.bsr import (
    BSRReadOperation,
    BSRReaderState,
    BSRServer,
    BSRWriteOperation,
)
from repro.core.bcsr import BCSRReadOperation, BCSRServer, BCSRWriteOperation
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
    "validate_bsr_config",
    "validate_bcsr_config",
    "BSRServer",
    "BSRWriteOperation",
    "BSRReadOperation",
    "BSRReaderState",
    "BCSRServer",
    "BCSRWriteOperation",
    "BCSRReadOperation",
    "RegularBSRServer",
    "HistoryReadOperation",
    "TwoRoundReadOperation",
    "RegisterSystem",
]
