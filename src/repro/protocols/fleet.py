"""One deployment's recipe: the fleet of servers and what each one hosts.

In the paper's model (Section II-A) a deployment is one fleet of ``n``
servers, at most ``f`` of them Byzantine.  :class:`Fleet` is that fleet,
validated once by :meth:`Fleet.build`: the protocol's bound, the
Byzantine map (ids normalised, names made behaviours, at most ``f``),
the keyspace, and the one codec and one placement the deployment shares.
Every builder -- the simulator's :class:`~repro.core.register.RegisterSystem`,
the in-process :class:`~repro.runtime.cluster.LocalCluster` and the
process-per-node :class:`~repro.deploy.spec.ClusterSpec` -- asks it what a
server hosts (:meth:`Fleet.host`) and which layer applies a Byzantine
behaviour (:meth:`Fleet.host_behavior`), so the three cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.byzantine.behaviors import Behavior, make_behavior
from repro.core.namespace import DEFAULT_REGISTER
from repro.errors import ConfigurationError
from repro.protocols.registry import (
    ProtocolSpec,
    ServerContext,
    get_spec,
    runtime_names,
)
from repro.sharding import KeyspaceConfig, Placement, RegisterTable
from repro.types import ProcessId, server_id


@dataclass(frozen=True, eq=False)
class Fleet:
    """A validated deployment; build it with :meth:`build`.

    ``namespaced`` fleets (a keyspace implies one) host a
    :class:`~repro.sharding.RegisterTable` per server; the table builds
    one protocol instance per touched key through :meth:`server`, which
    reads only fields resolved here -- never the registry or a codec
    constructor -- because it runs on every first touch of a key.
    """

    spec: ProtocolSpec
    f: int
    server_ids: Tuple[ProcessId, ...]
    #: server id -> the Byzantine behaviour it runs.
    behaviors: Mapping[ProcessId, Behavior]
    keyspace: Optional[KeyspaceConfig]
    namespaced: bool
    initial_value: Any
    max_history: Optional[int]
    codec: Any
    placement: Optional[Placement]

    @classmethod
    def build(cls, algorithm: str, f: int = 1, n: Optional[int] = None,
              byzantine: Optional[Mapping[Union[int, ProcessId],
                                          Union[str, Behavior]]] = None,
              keyspace: Optional[KeyspaceConfig] = None,
              namespaced: bool = False, initial_value: Any = b"",
              max_history: Optional[int] = None,
              enforce_bounds: bool = True, runtime: bool = False,
              bcsr_k: Optional[int] = None) -> "Fleet":
        """Validate a deployment and resolve everything its servers share.

        ``enforce_bounds=False`` admits ``n`` below the protocol's bound
        and more than ``f`` Byzantine servers (the lower-bound scenarios);
        ``runtime=True`` rejects simulator-only protocols; ``bcsr_k``
        overrides the code dimension (Theorem 6 needs an ``[n, k]`` code
        at ``n = 5f``, where the paper's ``k = n - 5f`` is undefined).
        """
        spec = get_spec(algorithm)
        if runtime and not spec.runtime_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} not supported by the asyncio "
                f"runtime; choose from {runtime_names()}")
        if f < 0:
            raise ConfigurationError(f"f must be non-negative, got {f}")
        n = n if n is not None else spec.min_servers(f)
        if enforce_bounds:
            spec.validate_config(n, f)
        server_ids = tuple(server_id(i) for i in range(n))
        behaviors: Dict[ProcessId, Behavior] = {}
        for key, value in (byzantine or {}).items():
            pid = server_id(key) if isinstance(key, int) else key
            if pid not in server_ids:
                raise ConfigurationError(
                    f"Byzantine entry {pid!r} is not one of the {n} servers")
            behaviors[pid] = (make_behavior(value) if isinstance(value, str)
                              else value)
        if enforce_bounds and len(behaviors) > f:
            raise ConfigurationError(
                f"{len(behaviors)} Byzantine servers exceed the budget f={f}")
        if keyspace is not None:
            keyspace.validate(algorithm, f, n)
        namespaced = namespaced or keyspace is not None
        if namespaced and not spec.namespaced_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} does not support namespacing")
        if spec.make_codec is None:
            codec = None
        elif bcsr_k is not None:
            from repro.erasure.striping import StripedCodec
            codec = StripedCodec(n, bcsr_k)
        else:
            codec = spec.make_codec(n, f)
        return cls(
            spec=spec, f=f, server_ids=server_ids, behaviors=behaviors,
            keyspace=keyspace, namespaced=namespaced,
            initial_value=initial_value, max_history=max_history,
            codec=codec,
            placement=(keyspace.placement(server_ids)
                       if keyspace is not None else None))

    @property
    def n(self) -> int:
        return len(self.server_ids)

    def group(self, register: str = DEFAULT_REGISTER) -> Tuple[ProcessId, ...]:
        """The servers an operation on ``register`` runs against.

        With a keyspace this is the key's consistent-hash quorum group
        (quorum arithmetic then runs against the group size); otherwise
        it is the whole fleet.
        """
        if self.placement is None:
            return self.server_ids
        return self.placement.servers_for(register)

    def server(self, pid: ProcessId, register: str = DEFAULT_REGISTER) -> Any:
        """One protocol instance for ``pid`` inside ``register``'s group.

        The group is the instance's peer set and fixes its coded-element
        index, so a sharded key's server talks to that key's group only.
        """
        servers = self.group(register)
        return self.spec.make_server(ServerContext(
            server_id=pid, index=servers.index(pid) if pid in servers else 0,
            servers=servers, f=self.f, initial_value=self.initial_value,
            max_history=self.max_history, codec=self.codec))

    def host(self, pid: ProcessId, registry: Optional[Any] = None) -> Any:
        """What server ``pid`` hosts.

        Namespaced: a per-key :class:`~repro.sharding.RegisterTable`
        (bounded by the keyspace, if any) that applies ``pid``'s behaviour
        per key and records into ``registry``.  Otherwise the bare server.
        """
        if not self.namespaced:
            return self.server(pid)
        return RegisterTable(
            pid, partial(self.server, pid), behavior=self.behaviors.get(pid),
            registry=registry,
            **(self.keyspace.table_bounds()
               if self.keyspace is not None else {}))

    def host_behavior(self, pid: ProcessId) -> Optional[Behavior]:
        """The behaviour the layer around :meth:`host` applies.

        ``None`` when the register table already applies it per key.
        """
        return None if self.namespaced else self.behaviors.get(pid)
