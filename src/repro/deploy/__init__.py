"""Process-per-node cluster deployments.

Where :class:`~repro.runtime.cluster.LocalCluster` hosts every node in
one Python process (fine for tests, dishonest about crashes), this
package runs **one OS process per node** so the chaos nemesis can kill
servers the way operating systems do -- SIGKILL, no goodbye -- and the
supervisor can bring them back through real snapshot recovery.  It is
the stepping stone to the multi-host deployments the ROADMAP targets:
everything a node needs travels in one :class:`ClusterSpec` file.

* :class:`ClusterSpec` -- declarative deployment config (TOML/JSON):
  algorithm, fault budget, addresses, snapshot dirs, shared key
  material, flow-control limits.
* :func:`serve_node` / ``repro node serve`` -- the single-node process
  entrypoint with a readiness line and an authenticated health ping;
  ``repro node zygote`` forks node processes that run it.
* :class:`ClusterSupervisor` / ``repro cluster serve|status|kill`` --
  forks all node processes through the zygote, waits for readiness,
  monitors liveness, and exposes ``kill``/``restart`` for the nemesis'
  real-crash mode.

The spec and the node entrypoints live in :mod:`repro.node`, what a
node process imports without this package's supervisor; they are
re-exported here.
"""

from repro.deploy.supervisor import (
    ClusterSupervisor,
    NodeHandle,
    default_state_path,
    read_state,
)
from repro.node.serve import (
    PING_FAILURES,
    health_ping,
    serve_node,
    stats_ping,
    trace_dump,
)
from repro.node.spec import ClusterSpec, reserve_ports

__all__ = [
    "ClusterSpec",
    "ClusterSupervisor",
    "NodeHandle",
    "PING_FAILURES",
    "default_state_path",
    "health_ping",
    "read_state",
    "reserve_ports",
    "serve_node",
    "stats_ping",
    "trace_dump",
]
