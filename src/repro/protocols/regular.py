"""Registry entries for the regular extensions of BSR (Section III-C):
``bsr-history`` (one-shot history reads) and ``bsr-2round`` (two-round
reads), both served by :class:`~repro.core.regular.RegularBSRServer`.
"""

from __future__ import annotations

from repro.core.bsr import BSRReaderState
from repro.core.quorum import bsr_min_servers
from repro.core.regular import (
    HistoryReadOperation,
    RegularBSRServer,
    TwoRoundReadOperation,
)
from repro.protocols.bsr import write
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register


def _regular_server(ctx):
    return RegularBSRServer(ctx.server_id, initial_value=ctx.initial_value,
                            max_history=ctx.max_history)


HISTORY = register(ProtocolSpec(
    name="bsr-history",
    description="MWMR regular, history reads (III-C a)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=_regular_server,
    make_write=write,
    make_read=lambda ctx: HistoryReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state),
    make_reader_state=BSRReaderState,
    serves_history=True,
    read_phases={1: "get-history"},
    message_phases={"QueryHistory": "get-history",
                    "QueryHistoryAbove": "get-history"},
))

TWO_ROUND = register(ProtocolSpec(
    name="bsr-2round",
    description="MWMR regular, slow reads (III-C b)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="2",
    make_server=_regular_server,
    make_write=write,
    make_read=lambda ctx: TwoRoundReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state),
    make_reader_state=BSRReaderState,
    serves_history=True,
    read_phases={1: "get-tag-history", 2: "get-value"},
    message_phases={"QueryTagHistory": "get-tag-history",
                    "QueryValue": "get-value"},
))
