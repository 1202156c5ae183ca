"""``rb2``: the register baseline over Imbs-Raynal 2-step broadcast.

The second RB-era rival of ROADMAP item 4 [Imbs-Raynal 2015,
arXiv:1510.06882]: same register construction as the Bracha-based ``rb``
baseline -- the shared ``get-tag`` write, then the data disseminated by
reliable broadcast among the servers, with delivery-time relay to
pending readers -- but the broadcast itself is the 2-step INIT/WITNESS
protocol.  That removes one server-to-server hop from every write at
the cost of a much steeper resilience bound: ``n >= 5f + 1`` instead of
Bracha's ``3f + 1``.  The scorecard experiment (E23) measures exactly
this trade against the paper's broadcast-free registers.

The register is ``rb``'s (:mod:`repro.baselines.rb_register`); this
module only supplies the broadcast, as the :data:`IR2` scheme, and the
:class:`~repro.protocols.registry.ProtocolSpec` that plugs it into every
layer (sim, asyncio runtime, sharding, chaos, load rig, CLI) by the
single :func:`~repro.protocols.registry.register` call at the bottom.
"""

from __future__ import annotations

from functools import partial

from repro.baselines.rb_register import (
    BroadcastRegisterServer,
    BroadcastScheme,
    RelayReadOperation,
)
from repro.broadcast.imbs_raynal import WITNESS, IR2Instance
from repro.core.messages import Rb2Send, Rb2Witness
from repro.core.operation import WriteOperation, put_start
from repro.core.quorum import rb2_min_servers
from repro.protocols.registry import BYZANTINE, ProtocolSpec, register

#: ``rb2``'s broadcast: INIT, then one wave of WITNESS (one hop fewer
#: than Bracha's ECHO + READY before a server acks).
IR2 = BroadcastScheme(
    instance=IR2Instance, start=Rb2Send, on_start=IR2Instance.on_init,
    relays={Rb2Witness: IR2Instance.on_witness},
    phases={WITNESS: Rb2Witness})


SPEC = register(ProtocolSpec(
    name="rb2",
    description="prior work: 2-step-broadcast baseline",
    quorum_rule="5f + 1",
    min_servers=rb2_min_servers,
    fault_model=BYZANTINE,
    read_rounds="1+relay",
    make_server=lambda ctx: BroadcastRegisterServer(
        ctx.server_id, ctx.servers, ctx.f, IR2,
        initial_value=ctx.initial_value, max_history=ctx.max_history),
    make_write=lambda ctx: WriteOperation(
        ctx.client_id, ctx.servers, ctx.f, ctx.value,
        put=partial(put_start, IR2.start)),
    make_read=lambda ctx: RelayReadOperation(
        ctx.client_id, ctx.servers, ctx.f),
    snapshot_ok=False,
    peer_links=True,
    message_phases={"Rb2Send": "put-data", "Rb2Witness": "rb2-witness"},
))
