"""Protocol plugin registry -- every register algorithm, declaratively.

Importing this package registers the built-in protocols (``bsr``,
``bsr-history``, ``bsr-2round``, ``bcsr``, ``rb``, ``abd``) and the
RB-era rival plugins (``rb2``, ``mpr``).  Everything else -- sim,
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

# Importing the implementation modules is what registers them.
from repro.protocols import builtin as _builtin  # noqa: F401
from repro.protocols import mpr as _mpr  # noqa: F401
from repro.protocols import rb2 as _rb2  # noqa: F401

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
