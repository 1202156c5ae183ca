"""Registry entry for ``rb``, the prior-work register over Bracha's
reliable broadcast (Section I-B); :mod:`repro.protocols.rb2` is the same
register over Imbs-Raynal's 2-step broadcast.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.rb_register import (
    BRACHA,
    BroadcastRegisterServer,
    RelayReadOperation,
)
from repro.core.operation import WriteOperation, put_start
from repro.core.quorum import rb_min_servers
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register

SPEC = register(ProtocolSpec(
    name="rb",
    description="prior work: Bracha-broadcast baseline",
    quorum_rule="3f + 1",
    min_servers=rb_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1+relay",
    make_server=lambda ctx: BroadcastRegisterServer(
        ctx.server_id, ctx.servers, ctx.f, BRACHA,
        initial_value=ctx.initial_value, max_history=ctx.max_history),
    make_write=lambda ctx: WriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value,
        put=partial(put_start, BRACHA.start)),
    make_read=lambda ctx: RelayReadOperation(
        ctx.client_id, ctx.servers, ctx.f),
    snapshot_ok=False,
    peer_links=True,
    message_phases={"RBSend": "put-data", "RBEcho": "rb-echo",
                    "RBReady": "rb-ready"},
))
