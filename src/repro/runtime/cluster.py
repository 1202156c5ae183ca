"""One-process local deployments for examples, tests and benchmark E10.

Also the one place a :class:`~repro.protocols.fleet.Fleet` becomes live
parts: :func:`make_node` builds every
:class:`~repro.runtime.node.RegisterServerNode` and :func:`make_client`
wires every :class:`~repro.runtime.client.AsyncRegisterClient`, for this
module's :class:`LocalCluster` and for the process-per-node
:class:`~repro.deploy.spec.ClusterSpec` alike.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

from repro.byzantine.behaviors import Behavior
from repro.chaos.faults import FaultPlan
from repro.chaos.proxy import ChaosProxy
from repro.obs import MetricRegistry
from repro.protocols.fleet import Fleet
from repro.runtime.client import AsyncRegisterClient
from repro.runtime.node import RegisterServerNode
from repro.sharding import KeyspaceConfig
from repro.transport.auth import Authenticator, KeyChain
from repro.types import ProcessId


def authenticator(fleet: Fleet, secret: bytes, *parties: ProcessId
                  ) -> Authenticator:
    """HMAC material of the fleet's servers and ``parties``.

    Every key derives from the one shared ``secret``, so the listed ids
    only pre-derive; any other party's key is derived on first use.
    """
    return Authenticator(
        KeyChain.from_secret(secret, [*fleet.server_ids, *parties]))


def make_node(fleet: Fleet, pid: ProcessId, auth: Authenticator,
              snapshot_dir: Optional[str] = None,
              registry: Optional[MetricRegistry] = None,
              **node_kwargs) -> RegisterServerNode:
    """The (unstarted) node serving ``fleet.host(pid)``.

    The node applies ``pid``'s behaviour only when the hosted object does
    not (see :meth:`Fleet.host_behavior`), and checkpoints to
    ``snapshot_dir`` only a bare server that can snapshot -- a register
    table keeps its own per-key archive.  The table records into the
    node's ``registry``.  ``node_kwargs`` (``host``, ``port``, limits,
    flight settings) pass through.
    """
    registry = registry if registry is not None else MetricRegistry()
    snapshot_path = None
    if (snapshot_dir is not None and not fleet.namespaced
            and fleet.spec.snapshot_ok):
        os.makedirs(snapshot_dir, exist_ok=True)
        snapshot_path = os.path.join(snapshot_dir, f"{pid}.snapshot")
    return RegisterServerNode(
        pid, fleet.host(pid, registry), auth,
        behavior=fleet.host_behavior(pid), snapshot_path=snapshot_path,
        registry=registry, **node_kwargs)


def make_client(fleet: Fleet, client_id: ProcessId,
                addresses: Dict[ProcessId, Tuple[str, int]], secret: bytes,
                **client_kwargs) -> AsyncRegisterClient:
    """A client of ``fleet`` dialing ``addresses``, keyed from ``secret``.

    The fleet builds its operations (and so routes them by its placement
    when it has a keyspace); ``client_kwargs`` (``timeout``,
    ``registry``, ``max_inflight`` ...) pass through.
    """
    return AsyncRegisterClient(
        client_id, fleet, addresses,
        authenticator(fleet, secret, client_id), **client_kwargs)


class LocalCluster:
    """Spin up ``n`` register server nodes on localhost.

    The nodes exist (unstarted) from construction; :meth:`start` binds
    them.  With ``chaos=True`` every node sits behind a
    :class:`~repro.chaos.proxy.ChaosProxy` applying a seeded
    :class:`~repro.chaos.faults.FaultPlan` (link label = the server id),
    and :meth:`crash` / :meth:`restart` model crash-recovery: a crash
    closes the listener and every live connection, a restart rebuilds the
    protocol from scratch and restores it from its snapshot.

    Usage::

        cluster = LocalCluster("bsr", f=1)
        await cluster.start()
        client = cluster.client("w000")
        await client.connect()
        await client.write(b"hello")
        ...
        await cluster.stop()
    """

    def __init__(self, algorithm: str = "bsr", f: int = 1,
                 n: Optional[int] = None, host: str = "127.0.0.1",
                 secret: bytes = b"local-cluster-secret",
                 byzantine: Optional[Dict[Union[int, ProcessId],
                                          Union[str, Behavior]]] = None,
                 initial_value: bytes = b"",
                 namespaced: bool = False,
                 snapshot_dir: Optional[str] = None,
                 chaos: bool = False, chaos_seed: int = 0,
                 chaos_plan: Optional[FaultPlan] = None,
                 max_history: Optional[int] = None,
                 max_connections: Optional[int] = None,
                 rate_limit: Optional[float] = None,
                 rate_burst: Optional[float] = None,
                 registry: Optional[MetricRegistry] = None,
                 keyspace: Optional[KeyspaceConfig] = None,
                 flight_sample: int = 64,
                 flight_capacity: int = 1024) -> None:
        self.fleet = Fleet.build(
            algorithm, f=f, n=n, byzantine=byzantine, keyspace=keyspace,
            namespaced=namespaced, initial_value=initial_value,
            max_history=max_history)
        self.server_ids = list(self.fleet.server_ids)
        self.host = host
        self.secret = secret
        self.initial_value = initial_value
        #: One registry shared by every node, proxy and (by default)
        #: client of this cluster, so a single snapshot shows the whole
        #: deployment.
        self.registry = registry if registry is not None else MetricRegistry()
        self.chaos = chaos or chaos_plan is not None
        self.chaos_plan: Optional[FaultPlan] = (
            (chaos_plan or FaultPlan(chaos_seed)) if self.chaos else None)
        auth = self.authenticator()
        #: ``flight_sample=0`` turns server-side trace recording off --
        #: the bench baseline.
        self.nodes: Dict[ProcessId, RegisterServerNode] = {
            pid: make_node(self.fleet, pid, auth, snapshot_dir=snapshot_dir,
                           registry=self.registry, host=host,
                           max_connections=max_connections,
                           rate_limit=rate_limit, rate_burst=rate_burst,
                           flight_sample=flight_sample,
                           flight_capacity=flight_capacity)
            for pid in self.server_ids}
        self.proxies: Dict[ProcessId, ChaosProxy] = {}
        self._clients: list = []

    def authenticator(self) -> Authenticator:
        """An authenticator deriving any process key from the secret."""
        return authenticator(self.fleet, self.secret)

    async def start(self) -> None:
        """Start every server node (and its chaos proxy, when enabled)."""
        for pid, node in self.nodes.items():
            await node.start()
            if self.chaos:
                proxy = ChaosProxy(str(pid), node.address, self.chaos_plan,
                                   host=self.host, registry=self.registry)
                await proxy.start()
                self.proxies[pid] = proxy
        if self.fleet.spec.peer_links:
            # The server-to-server mesh dials real node addresses, not
            # the chaos proxies: chaos interposes *client* links, while
            # the broadcast layer's own loss tolerance is exercised by
            # crash/partition faults at the node level.
            peer_addrs = {pid: node.address
                          for pid, node in self.nodes.items()}
            for node in self.nodes.values():
                node.set_peers(peer_addrs)

    async def stop(self) -> None:
        """Close all clients created via :meth:`client`, then all nodes."""
        for client in self._clients:
            await client.close()
        self._clients.clear()
        for proxy in self.proxies.values():
            await proxy.stop()
        self.proxies.clear()
        for node in self.nodes.values():
            await node.stop()

    # -- chaos control -------------------------------------------------------
    async def crash(self, pid: ProcessId) -> None:
        """Crash server ``pid``: listener and every live connection die."""
        await self.nodes[pid].stop()
        if pid in self.proxies:
            self.proxies[pid].sever_all()

    async def restart(self, pid: ProcessId) -> None:
        """Restart a crashed server from its snapshot on the same port.

        The in-memory protocol state is rebuilt from scratch -- exactly
        what a process restart loses -- and :meth:`RegisterServerNode.start`
        re-adopts whatever the snapshot preserved.
        """
        node = self.nodes[pid]
        if not self.fleet.namespaced:
            node.protocol = self.fleet.server(pid)
        await node.start()

    @property
    def addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """Server id -> (host, port) clients should dial.

        With chaos enabled these are the proxy addresses, so every client
        connection is interposable.
        """
        if self.chaos:
            return {pid: proxy.address for pid, proxy in self.proxies.items()}
        return {pid: node.address for pid, node in self.nodes.items()}

    def client(self, client_id: ProcessId, timeout: float = 30.0,
               **client_kwargs) -> AsyncRegisterClient:
        """Create a client wired to this cluster (closed by :meth:`stop`).

        Extra keyword arguments (``reconnect``, ``backoff_base``,
        ``backoff_max``, ``registry``, ``trace_sink``)
        pass through to :class:`AsyncRegisterClient`; clients default to
        the cluster's shared metric registry.
        """
        client_kwargs.setdefault("registry", self.registry)
        client = make_client(self.fleet, client_id, self.addresses,
                             self.secret, timeout=timeout, **client_kwargs)
        self._clients.append(client)
        return client
