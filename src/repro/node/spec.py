"""Declarative cluster configuration: one file describes one deployment.

A :class:`ClusterSpec` is the single source of truth a process-per-node
deployment is built from: the algorithm and fault budget pick the server
count and quorums, the address block tells every party where the nodes
listen, and the shared secret derives the per-process HMAC keys
(:class:`~repro.transport.auth.KeyChain`).  The same spec file drives

* ``repro node serve --spec cluster.toml --node s002`` -- one OS process
  hosting exactly one :class:`~repro.node.server.RegisterServerNode`,
* :class:`~repro.deploy.supervisor.ClusterSupervisor` -- forks and
  babysits all node processes (through ``repro node zygote``), and
* :meth:`ClusterSpec.client` -- an
  :class:`~repro.runtime.client.AsyncRegisterClient` wired to the
  cluster's addresses, algorithm, fault budget and key material.

Specs load from TOML (stdlib ``tomllib``) or JSON and round-trip through
:meth:`to_dict`/:meth:`save` so supervisors can hand child processes an
exact copy of their own configuration.  What each node hosts, and who
applies a Byzantine behaviour, comes from the spec's
:class:`~repro.protocols.fleet.Fleet` -- the recipe the simulator and
:class:`~repro.runtime.cluster.LocalCluster` build from too.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.node.server import RegisterServerNode, authenticator, make_node
from repro.protocols import get_spec
from repro.protocols.fleet import Fleet
from repro.sharding import HashRing, KeyspaceConfig
from repro.transport.auth import Authenticator
from repro.types import ProcessId, server_id

if TYPE_CHECKING:  # pragma: no cover - a node process builds no client
    from repro.runtime.client import AsyncRegisterClient


def reserve_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Pick ``count`` currently-free TCP ports on ``host``.

    Peer-linked protocols need every node's port written into the spec
    before any process starts (see :meth:`ClusterSpec.__post_init__`);
    tooling that used to rely on ephemeral binds calls this to pin a
    block up front.  The usual caveat applies -- the ports are free at
    probe time, not reserved -- which is fine for the single-host test
    rigs this serves.
    """
    import socket
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind((host, 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class ClusterSpec:
    """Static description of a process-per-node register deployment.

    ``base_port = 0`` (the default) lets every node bind an ephemeral
    port; the supervisor learns the real port from the node's readiness
    line and pins it across restarts.  A non-zero ``base_port`` assigns
    node ``i`` port ``base_port + i``.  ``nodes`` overrides addresses
    per node id (``{"s000": ["10.0.0.1", 7000], ...}``) for multi-host
    layouts.
    """

    algorithm: str = "bsr"
    f: int = 1
    n: Optional[int] = None
    host: str = "127.0.0.1"
    base_port: int = 0
    secret: str = "cluster-secret"
    snapshot_dir: Optional[str] = None
    initial_value: str = ""
    max_history: Optional[int] = None
    max_connections: Optional[int] = None
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    #: Per-client cap on concurrently executing operations (None = no cap).
    max_inflight: Optional[int] = None
    #: node id -> behavior name (see ``repro.byzantine.behaviors``).
    byzantine: Dict[str, str] = field(default_factory=dict)
    #: node id -> [host, port] address overrides (multi-host layouts).
    nodes: Dict[str, List[Any]] = field(default_factory=dict)
    #: Sharded keyspace block (see
    #: :class:`~repro.sharding.KeyspaceConfig`): ``group_size`` plus
    #: optional ``vnodes`` / ``seed`` / ``max_resident`` /
    #: ``max_key_len``.  When present, every node hosts a bounded
    #: per-key :class:`~repro.sharding.RegisterTable` and every client
    #: routes each key to its consistent-hash quorum group -- the same
    #: placement on every party, because it is derived from this spec.
    keyspace: Dict[str, Any] = field(default_factory=dict)
    #: Observability block: ``exporter_port`` (+ optional
    #: ``exporter_host``) makes the supervisor run an HTTP metrics
    #: exporter sidecar (``/metrics``, ``/metrics.json``,
    #: ``/traces/<op_id>``, ``/healthz``); ``trace_sample`` sets the
    #: nodes' flight-recorder sampling modulus (default 64, 0 = off)
    #: and ``trace_capacity`` the per-node record ring size.
    observability: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        #: The validated fleet every node and client of this spec is
        #: built from (bounds, Byzantine map, codec, placement).
        self.fleet = Fleet.build(
            self.algorithm, f=self.f, n=self.n, byzantine=self.byzantine,
            keyspace=(KeyspaceConfig.from_dict(self.keyspace)
                      if self.keyspace else None),
            initial_value=self.initial_value.encode(),
            max_history=self.max_history)
        self.n = self.fleet.n
        if self.fleet.spec.peer_links:
            # Server-to-server protocols dial peers from this spec, so
            # every node's port must be knowable up front -- an ephemeral
            # port exists only in the process that bound it.
            ephemeral = [pid for pid in self.node_ids
                         if self.address_of(pid)[1] == 0]
            if ephemeral:
                raise ConfigurationError(
                    f"{self.algorithm} servers message each other, so the "
                    f"spec must pin every node's port (set base_port or "
                    f"per-node addresses); ephemeral: {ephemeral}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be at least 1, got {self.max_inflight}")
        if self.keyspace:
            self.keyspace_config().validate(self.algorithm, self.f, self.n)
        if self.observability:
            known = {"exporter_port", "exporter_host", "trace_sample",
                     "trace_capacity"}
            unknown = set(self.observability) - known
            if unknown:
                raise ConfigurationError(
                    f"unknown observability keys: {sorted(unknown)}")
            for key in ("exporter_port", "trace_sample", "trace_capacity"):
                value = self.observability.get(key)
                if value is not None and (not isinstance(value, int)
                                          or value < 0):
                    raise ConfigurationError(
                        f"observability.{key} must be a non-negative "
                        f"integer, got {value!r}")

    @classmethod
    def for_workload(cls, algorithm: str, f: int, keys: int = 1,
                     seed: int = 0, **fields: Any) -> "ClusterSpec":
        """A single-host spec for a generated workload over ``keys`` keys.

        ``keys > 1`` shards the keyspace into groups of the protocol's
        minimum size, ring-seeded by ``seed``; a peer-linked protocol gets
        every node's loopback port pinned now (see :meth:`__post_init__`).
        Other ``fields`` pass through.
        """
        proto = get_spec(algorithm)
        if keys > 1:
            fields["keyspace"] = KeyspaceConfig(
                group_size=proto.min_servers(f), seed=seed).to_dict()
        if proto.peer_links:
            n = fields.get("n")
            ports = reserve_ports(n if n is not None else proto.min_servers(f))
            fields["nodes"] = {str(server_id(i)): ["127.0.0.1", port]
                               for i, port in enumerate(ports)}
        return cls(algorithm=algorithm, f=f, **fields)

    # -- identity and addressing ------------------------------------------
    @property
    def node_ids(self) -> List[ProcessId]:
        """Canonical server ids, in index order."""
        return [server_id(i) for i in range(self.n)]

    def address_of(self, node_id: ProcessId) -> Tuple[str, int]:
        """Configured ``(host, port)`` for ``node_id`` (port 0 = ephemeral)."""
        if node_id in self.nodes:
            host, port = self.nodes[node_id]
            return str(host), int(port)
        index = self.node_ids.index(node_id)
        port = self.base_port + index if self.base_port else 0
        return self.host, port

    @property
    def addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """Configured node id -> ``(host, port)`` map."""
        return {pid: self.address_of(pid) for pid in self.node_ids}

    # -- keyspace placement ------------------------------------------------
    def keyspace_config(self) -> Optional[KeyspaceConfig]:
        """The parsed keyspace block, or ``None`` for single-register."""
        return self.fleet.keyspace

    def ring(self) -> Optional[HashRing]:
        """The deployment's consistent-hash ring (``None`` unsharded)."""
        placement = self.fleet.placement
        return None if placement is None else placement.ring

    def locate(self, key: str) -> Optional[Tuple[ProcessId, ...]]:
        """The quorum group serving ``key``, or ``None`` unsharded."""
        placement = self.fleet.placement
        if placement is None:
            return None
        return placement.ring.group(key, placement.group_size)

    # -- key material ------------------------------------------------------
    @property
    def secret_bytes(self) -> bytes:
        return self.secret.encode()

    def authenticator(self) -> Authenticator:
        """An authenticator deriving any process key from the shared secret."""
        return authenticator(self.fleet, self.secret_bytes)

    # -- component construction -------------------------------------------
    def build_protocol(self, node_id: ProcessId) -> Any:
        """What ``node_id`` hosts (see :meth:`Fleet.host`)."""
        return self.fleet.host(node_id)

    def build_node(self, node_id: ProcessId,
                   port: Optional[int] = None) -> RegisterServerNode:
        """A fully configured node for ``node_id`` (not yet started).

        ``port`` overrides the spec's address -- the supervisor uses it to
        pin a previously-bound ephemeral port across restarts.
        """
        if node_id not in self.node_ids:
            raise ConfigurationError(
                f"unknown node {node_id!r}; this spec has {self.node_ids}")
        host, spec_port = self.address_of(node_id)
        node = make_node(
            self.fleet, node_id, self.authenticator(),
            snapshot_dir=self.snapshot_dir, host=host,
            port=port if port is not None else spec_port,
            max_connections=self.max_connections,
            rate_limit=self.rate_limit, rate_burst=self.rate_burst,
            flight_sample=int(self.observability.get("trace_sample", 64)),
            flight_capacity=int(
                self.observability.get("trace_capacity", 1024)),
        )
        if self.fleet.spec.peer_links:
            node.set_peers(self.addresses)
        return node

    def client(self, client_id: ProcessId,
               addresses: Optional[Dict[ProcessId, Tuple[str, int]]] = None,
               **client_kwargs) -> AsyncRegisterClient:
        """An :class:`AsyncRegisterClient` wired to this cluster.

        ``addresses`` overrides the spec's (pass the supervisor's live map
        when nodes bound ephemeral ports).  The spec's ``max_inflight``
        applies unless overridden here.  Extra keyword arguments pass
        through (``timeout``, ``reconnect``, ``backoff_base`` ...).
        """
        from repro.runtime.cluster import make_client

        client_kwargs.setdefault("max_inflight", self.max_inflight)
        return make_client(
            self.fleet, client_id,
            addresses if addresses is not None else self.addresses,
            self.secret_bytes, **client_kwargs)

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON/TOML-ready dict; ``None`` fields are omitted."""
        raw = dataclasses.asdict(self)
        return {key: value for key, value in raw.items()
                if value is not None and value != {} }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown cluster spec keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "ClusterSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        with open(path, "rb") as fh:
            raw = fh.read()
        if path.endswith(".toml"):
            import tomllib
            data = tomllib.loads(raw.decode())
        else:
            try:
                data = json.loads(raw.decode())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"cluster spec {path!r} is not valid JSON: {exc}"
                ) from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"cluster spec {path!r} must be a table")
        return cls.from_dict(data)

    def save(self, path: str) -> str:
        """Write the spec as JSON (loadable by :meth:`from_file`)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path
