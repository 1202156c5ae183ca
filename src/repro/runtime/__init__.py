"""Asyncio TCP runtime: the same protocol state machines over real sockets.

The simulator is the measurement substrate; this package is the deployment
substrate.  A :class:`~repro.runtime.node.RegisterServerNode` hosts any
server state machine behind a TCP listener with HMAC-authenticated framed
messages, and :class:`~repro.runtime.client.AsyncRegisterClient` executes
read/write operations against a set of such nodes.
:class:`~repro.runtime.cluster.LocalCluster` spins an entire deployment up
in one process for examples and the E10 benchmark.

The runtime is fault-hardened: clients self-heal lost connections
(backoff + jitter + in-flight re-send), nodes crash-restart from
snapshots, and ``LocalCluster(..., chaos=True)`` interposes
:mod:`repro.chaos` proxies on every link for fault injection (see
``docs/runtime.md``).
"""

from repro.runtime.client import AsyncRegisterClient
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import RegisterServerNode

__all__ = ["RegisterServerNode", "AsyncRegisterClient", "LocalCluster"]
