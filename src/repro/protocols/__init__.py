"""Protocol plugin registry -- every register algorithm, declaratively.

The built-in protocols (``bsr``, ``bsr-history``, ``bsr-2round``,
``bcsr``, ``rb``, ``abd``) and the RB-era rival plugins (``rb2``,
``mpr``) each register from a module of their own, imported on the
first :func:`get_spec` of one of their names
(:data:`~repro.protocols.registry.HOMES`).  Everything else -- sim,
asyncio runtime, ``--procs`` deployment, sharding, chaos, load rig,
CLI -- consumes the registry through :func:`get_spec` and friends
instead of comparing algorithm strings.
"""

from repro.protocols.registry import (
    BYZANTINE,
    CRASH,
    OpContext,
    ProtocolSpec,
    ServerContext,
    get_spec,
    names,
    register,
    specs,
)

__all__ = [
    "BYZANTINE",
    "CRASH",
    "OpContext",
    "ProtocolSpec",
    "ServerContext",
    "get_spec",
    "names",
    "register",
    "specs",
]
