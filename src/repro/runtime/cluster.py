"""One-process local deployments for examples, tests and benchmark E10."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple, Union

from repro.byzantine.behaviors import Behavior, make_behavior
from repro.chaos.faults import FaultPlan
from repro.chaos.proxy import ChaosProxy
from repro.errors import ConfigurationError
from repro.obs import MetricRegistry
from repro.protocols import ServerContext, get_spec, runtime_names
from repro.runtime.client import AsyncRegisterClient
from repro.runtime.node import RegisterServerNode
from repro.sharding import KeyspaceConfig, RegisterTable
from repro.transport.auth import Authenticator, KeyChain
from repro.types import ProcessId, server_id


class LocalCluster:
    """Spin up ``n`` register server nodes on localhost.

    With ``chaos=True`` every node sits behind a
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
        spec = get_spec(algorithm)
        if not spec.runtime_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} not supported by the asyncio "
                f"runtime; choose from {runtime_names()}"
            )
        self.spec = spec
        self.algorithm = algorithm
        self.f = f
        self.n = n if n is not None else spec.min_servers(f)
        spec.validate_config(self.n, f)
        self.host = host
        self.secret = secret
        self.initial_value = initial_value
        self.server_ids = [server_id(i) for i in range(self.n)]
        self._behaviors: Dict[ProcessId, Behavior] = {}
        for key, value in (byzantine or {}).items():
            pid = server_id(key) if isinstance(key, int) else key
            behavior = make_behavior(value) if isinstance(value, str) else value
            self._behaviors[pid] = behavior
        #: Sharded keyspace placement (see :mod:`repro.sharding`); implies
        #: namespacing -- nodes host a :class:`RegisterTable` and clients
        #: route each key to its quorum group.
        self.keyspace = keyspace
        self._placement = None
        if keyspace is not None:
            keyspace.validate(algorithm, f, self.n)
            self._placement = keyspace.placement(self.server_ids)
        self.namespaced = namespaced or keyspace is not None
        if self.namespaced and not spec.namespaced_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} does not support namespaced "
                "deployments")
        self.snapshot_dir = snapshot_dir
        #: Bound every server's history list (GC; keeps snapshots small).
        self.max_history = max_history
        self.max_connections = max_connections
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst
        #: Flight-recorder settings every node inherits (``sample=0``
        #: turns server-side trace recording off -- the bench baseline).
        self.flight_sample = flight_sample
        self.flight_capacity = flight_capacity
        #: One registry shared by every node, proxy and (by default)
        #: client of this cluster, so a single snapshot shows the whole
        #: deployment.
        self.registry = registry if registry is not None else MetricRegistry()
        self.chaos = chaos or chaos_plan is not None
        self.chaos_plan: Optional[FaultPlan] = (
            (chaos_plan or FaultPlan(chaos_seed)) if self.chaos else None)
        self.nodes: Dict[ProcessId, RegisterServerNode] = {}
        self.proxies: Dict[ProcessId, ChaosProxy] = {}
        self._codec = (None if spec.make_codec is None
                       else spec.make_codec(self.n, f))
        self._clients: list = []

    def _keychain_for(self, client_ids) -> KeyChain:
        return KeyChain.from_secret(self.secret, list(self.server_ids) + list(client_ids))

    def _make_protocol(self, pid: ProcessId,
                       register: Optional[str] = None) -> Any:
        # Sharded keys run the protocol inside their quorum group: the
        # per-key server's peer set (and coded-chunk index) comes from
        # the group, not the fleet.
        if register is not None and self._placement is not None:
            servers = self._placement.servers_for(register)
        else:
            servers = tuple(self.server_ids)
        ctx = ServerContext(
            server_id=pid,
            index=servers.index(pid) if pid in servers else 0,
            servers=tuple(servers),
            f=self.f,
            initial_value=self.initial_value,
            max_history=self.max_history,
            codec=self._codec,
        )
        return self.spec.make_server(ctx)

    def _make_node(self, pid: ProcessId, index: int,
                   auth: Authenticator) -> RegisterServerNode:
        if self.namespaced:
            # The register table applies the behaviour per hosted
            # register, so the node itself stays behaviour-free.  A
            # keyspace bounds the table; plain namespacing leaves it
            # unbounded.
            protocol = RegisterTable(
                pid, lambda name: self._make_protocol(pid, register=name),
                behavior=self._behaviors.get(pid), registry=self.registry,
                **(self.keyspace.table_bounds()
                   if self.keyspace is not None else {}))
            return RegisterServerNode(
                pid, protocol, auth, host=self.host, port=0,
                max_connections=self.max_connections,
                rate_limit=self.rate_limit, rate_burst=self.rate_burst,
                registry=self.registry,
                flight_sample=self.flight_sample,
                flight_capacity=self.flight_capacity)
        snapshot_path = None
        if self.snapshot_dir is not None and self.spec.snapshot_ok:
            import os
            os.makedirs(self.snapshot_dir, exist_ok=True)
            snapshot_path = os.path.join(self.snapshot_dir, f"{pid}.snapshot")
        return RegisterServerNode(
            pid, self._make_protocol(pid), auth, host=self.host,
            port=0, behavior=self._behaviors.get(pid),
            snapshot_path=snapshot_path,
            max_connections=self.max_connections,
            rate_limit=self.rate_limit, rate_burst=self.rate_burst,
            registry=self.registry,
            flight_sample=self.flight_sample,
            flight_capacity=self.flight_capacity,
        )

    async def start(self) -> None:
        """Start every server node (and its chaos proxy, when enabled)."""
        auth = Authenticator(self._keychain_for([]))
        for index, pid in enumerate(self.server_ids):
            node = self._make_node(pid, index, auth)
            await node.start()
            self.nodes[pid] = node
            if self.chaos:
                proxy = ChaosProxy(str(pid), node.address, self.chaos_plan,
                                   host=self.host, registry=self.registry)
                await proxy.start()
                self.proxies[pid] = proxy
        if self.spec.peer_links:
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
        self.nodes.clear()

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
        if not self.namespaced:
            node.protocol = self._make_protocol(pid)
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
        if self.keyspace is not None:
            client_kwargs.setdefault(
                "placement", self.keyspace.placement(self.server_ids))
        keychain = self._keychain_for([client_id])
        client = AsyncRegisterClient(
            client_id, self.addresses, self.f, Authenticator(keychain),
            algorithm=self.algorithm, timeout=timeout,
            initial_value=self.initial_value, namespaced=self.namespaced,
            **client_kwargs,
        )
        self._clients.append(client)
        return client
