"""Registry entry for ``bsr``, the paper's MWMR safe register (Section III).

The regular variants (:mod:`repro.protocols.regular`) write with its
:func:`write`, and ``abd`` (:mod:`repro.protocols.abd`) keeps its data
on :func:`bsr_server`'s plain BSR servers.
"""

from __future__ import annotations

from repro.core.bsr import BSRReadOperation, BSRReaderState, BSRServer
from repro.core.operation import WriteOperation
from repro.core.quorum import bsr_min_servers
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register


def write(ctx):
    return WriteOperation(ctx.client_id, ctx.servers, ctx.f, ctx.value)


def bsr_server(ctx):
    return BSRServer(ctx.server_id, initial_value=ctx.initial_value,
                     max_history=ctx.max_history)


SPEC = register(ProtocolSpec(
    name="bsr",
    description="MWMR safe (Section III)",
    quorum_rule="4f + 1",
    min_servers=bsr_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1",
    make_server=bsr_server,
    make_write=write,
    make_read=lambda ctx: BSRReadOperation(
        ctx.client_id, ctx.servers, ctx.f, reader_state=ctx.reader_state,
        repair=ctx.repair),
    make_reader_state=BSRReaderState,
))
