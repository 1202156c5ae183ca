"""Registry entries for the repository's original six protocols.

Each spec bundles what used to be scattered across the runtime client,
the local cluster, the deployment spec, the simulator facade and the
CLI: operation factories, the server factory, the resilience bound, the
fault model and display metadata.
"""

from __future__ import annotations

from repro.baselines.abd import ABDReadOperation, ABDServer, ABDWriteOperation
from repro.baselines.rb_register import (
    RBReadOperation,
    RBRegisterServer,
    RBWriteOperation,
)
from repro.core.bcsr import (
    BCSRReadOperation,
    BCSRServer,
    BCSRWriteOperation,
    make_codec,
)
from repro.core.bsr import (
    BSRReadOperation,
    BSRReaderState,
    BSRServer,
    BSRWriteOperation,
)
from repro.core.quorum import (
    abd_min_servers,
    bcsr_min_servers,
    bsr_min_servers,
    rb_min_servers,
)
from repro.core.regular import (
    HistoryReadOperation,
    RegularBSRServer,
    TwoRoundReadOperation,
)
from repro.erasure.striping import DecodeMemo
from repro.protocols.registry import (
    BYZANTINE,
    CRASH,
    ProtocolSpec,
    register,
)


def _bsr_write(ctx):
    return BSRWriteOperation(ctx.client_id, ctx.servers, ctx.f, ctx.value,
                             enforce_bounds=ctx.enforce_bounds)


def _bsr_server(ctx):
    return BSRServer(ctx.server_id, initial_value=ctx.initial_value,
                     max_history=ctx.max_history)


def _regular_server(ctx):
    return RegularBSRServer(ctx.server_id, initial_value=ctx.initial_value,
                            max_history=ctx.max_history)


BSR = register(ProtocolSpec(
    name="bsr",
    description="MWMR safe (Section III)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=_bsr_server,
    make_write=_bsr_write,
    make_read=lambda ctx: BSRReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state,
        enforce_bounds=ctx.enforce_bounds, repair=ctx.repair),
    make_reader_state=BSRReaderState,
))

BSR_HISTORY = register(ProtocolSpec(
    name="bsr-history",
    description="MWMR regular, history reads (III-C a)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=_regular_server,
    make_write=_bsr_write,
    make_read=lambda ctx: HistoryReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state,
        enforce_bounds=ctx.enforce_bounds),
    make_reader_state=BSRReaderState,
    read_phases={1: "get-history"},
    message_phases={"QueryHistory": "get-history"},
))

BSR_2ROUND = register(ProtocolSpec(
    name="bsr-2round",
    description="MWMR regular, slow reads (III-C b)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="2",
    make_server=_regular_server,
    make_write=_bsr_write,
    make_read=lambda ctx: TwoRoundReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state,
        enforce_bounds=ctx.enforce_bounds),
    make_reader_state=BSRReaderState,
    read_phases={1: "get-tag-history", 2: "get-value"},
    message_phases={"QueryTagHistory": "get-tag-history",
                    "QueryValue": "get-value"},
))

BCSR = register(ProtocolSpec(
    name="bcsr",
    description="SWMR safe, MDS-coded (Section IV)",
    quorum_rule="5f + 1",
    min_servers=bcsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=lambda ctx: BCSRServer(
        ctx.server_id, ctx.index, ctx.codec,
        initial_value=ctx.initial_value, max_history=ctx.max_history),
    make_write=lambda ctx: BCSRWriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value, codec=ctx.codec),
    make_read=lambda ctx: BCSRReadOperation(
        ctx.client_id, ctx.servers, ctx.f, codec=ctx.codec,
        initial_value=ctx.initial_value, reader_state=ctx.reader_state),
    # The memo never holds v0 (Fig 5 line 4), so the initial value is unused.
    make_reader_state=lambda initial_value: DecodeMemo(),
    make_codec=make_codec,
    group_spans_fleet=True,
    single_writer=True,
))

RB = register(ProtocolSpec(
    name="rb",
    description="prior work: Bracha-broadcast baseline",
    quorum_rule="3f + 1",
    min_servers=rb_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1+relay",
    make_server=lambda ctx: RBRegisterServer(
        ctx.server_id, ctx.servers, ctx.f, initial_value=ctx.initial_value),
    make_write=lambda ctx: RBWriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value),
    make_read=lambda ctx: RBReadOperation(
        ctx.client_id, ctx.servers, ctx.f, initial_value=ctx.initial_value),
    snapshot_ok=False,
    peer_links=True,
    message_phases={"RBSend": "put-data", "RBEcho": "rb-echo",
                    "RBReady": "rb-ready"},
))

ABD = register(ProtocolSpec(
    name="abd",
    description="crash-only ABD atomic register",
    quorum_rule="2f + 1",
    min_servers=abd_min_servers,
    fault_model=CRASH,
    read_rounds="2",
    make_server=lambda ctx: ABDServer(
        ctx.server_id, initial_value=ctx.initial_value,
        max_history=ctx.max_history),
    make_write=lambda ctx: ABDWriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value),
    make_read=lambda ctx: ABDReadOperation(ctx.client_id, ctx.servers, ctx.f),
    read_phases={1: "get-data", 2: "write-back"},
))
