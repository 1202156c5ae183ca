"""Registry entry for ``abd``, the crash-only ABD atomic register: plain
BSR servers, a write that trusts the maximum tag, two-round reads.
"""

from __future__ import annotations

from repro.baselines.abd import ABDReadOperation
from repro.core.operation import WriteOperation
from repro.core.quorum import abd_min_servers
from repro.protocols.bsr import bsr_server
from repro.protocols.registry import CRASH, ProtocolSpec, register

SPEC = register(ProtocolSpec(
    name="abd",
    description="crash-only ABD atomic register",
    quorum_rule="2f + 1",
    min_servers=abd_min_servers,
    fault_model=CRASH,
    read_rounds="2",
    make_server=bsr_server,
    # Crash-only: the plain maximum tag is trustworthy.
    make_write=lambda ctx: WriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value, rank=1),
    make_read=lambda ctx: ABDReadOperation(ctx.client_id, ctx.servers, ctx.f),
    read_phases={1: "get-data", 2: "write-back"},
))
