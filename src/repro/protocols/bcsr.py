"""Registry entry for ``bcsr``, the paper's MDS-coded SWMR safe register
(Section IV); the only protocol whose lookup loads the erasure codec.
"""

from __future__ import annotations

from repro.core.bcsr import (
    BCSRReadOperation,
    BCSRServer,
    coded_write,
    make_codec,
)
from repro.core.quorum import bcsr_min_servers
from repro.erasure.striping import DecodeMemo
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register

SPEC = register(ProtocolSpec(
    name="bcsr",
    description="SWMR safe, MDS-coded (Section IV)",
    quorum_rule="5f + 1",
    min_servers=bcsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=lambda ctx: BCSRServer(
        ctx.server_id, ctx.index, ctx.codec,
        initial_value=ctx.initial_value, max_history=ctx.max_history),
    make_write=lambda ctx: coded_write(
        ctx.client_id, ctx.servers, ctx.f, ctx.value, ctx.codec),
    make_read=lambda ctx: BCSRReadOperation(
        ctx.client_id, ctx.servers, ctx.f, codec=ctx.codec,
        initial_value=ctx.initial_value, reader_state=ctx.reader_state),
    # The memo never holds v0 (Fig 5 line 4), so the initial value is unused.
    make_reader_state=lambda initial_value: DecodeMemo(),
    make_codec=make_codec,
    group_spans_fleet=True,
    single_writer=True,
))
