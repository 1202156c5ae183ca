"""One deployment's recipe: the fleet of servers, what each one hosts,
and how a client operation on it is built.

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

A client operation is fixed by the same fleet (Figs. 1 and 3): the
simulator's clients and the socket
:class:`~repro.runtime.client.AsyncRegisterClient` both get theirs from
:meth:`Fleet.write_op` / :meth:`Fleet.read_op`, which check the register
name and pick its group the same way, and differ only in how they walk it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.byzantine.behaviors import Behavior, make_behavior
from repro.core.keys import MAX_KEY_LENGTH, key_error
from repro.core.namespace import DEFAULT_REGISTER, NamespacedOperation
from repro.errors import ConfigurationError
from repro.protocols.registry import (
    OpContext,
    ProtocolSpec,
    ServerContext,
    get_spec,
)
from repro.sharding import KeyspaceConfig, Placement, RegisterTable
from repro.types import ProcessId, server_id

#: A quorum group: the servers one register's operations run against.
Group = Tuple[ProcessId, ...]


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
    server_ids: Group
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
              enforce_bounds: bool = True,
              bcsr_k: Optional[int] = None) -> "Fleet":
        """Validate a deployment and resolve everything its servers share.

        ``enforce_bounds=False`` admits ``n`` below the protocol's bound
        and more than ``f`` Byzantine servers (the lower-bound scenarios);
        ``bcsr_k`` overrides the code dimension (Theorem 6 needs an
        ``[n, k]`` code at ``n = 5f``, where the paper's ``k = n - 5f`` is
        undefined).
        """
        spec = get_spec(algorithm)
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

    def group(self, register: str = DEFAULT_REGISTER) -> Group:
        """The servers an operation on ``register`` runs against.

        With a keyspace this is the key's consistent-hash quorum group
        (quorum arithmetic then runs against the group size); otherwise
        it is the whole fleet.  A namespaced fleet rejects a register
        name its servers would drop (bad charset, or longer than the
        keyspace's ``max_key_len``) here, so the caller fails at once
        instead of waiting on replies that never come.  A single-register
        fleet ignores the name.
        """
        if not self.namespaced:
            return self.server_ids
        reason = key_error(register, self.keyspace.max_key_len
                           if self.keyspace is not None else MAX_KEY_LENGTH)
        if reason is not None:
            raise ConfigurationError(
                f"invalid register name {register!r}: {reason}")
        if self.placement is None:
            return self.server_ids
        return self.placement.servers_for(register)

    def reader_state(self) -> Any:
        """A fresh semi-fast reader state for one reader of one register
        (``None`` for protocols without one)."""
        make = self.spec.make_reader_state
        return make(self.initial_value) if make is not None else None

    def write_op(self, client_id: ProcessId, value: Any,
                 register: str = DEFAULT_REGISTER) -> Tuple[Group, Any]:
        """``(group, operation)`` of ``client_id`` writing ``value`` to
        ``register``; raises :class:`ConfigurationError` for a bad name."""
        servers = self.group(register)
        return servers, self._named(register, self.spec.make_write(OpContext(
            client_id=client_id, servers=servers, f=self.f, value=value,
            initial_value=self.initial_value, codec=self.codec)))

    def read_op(self, client_id: ProcessId, reader_state: Any,
                register: str = DEFAULT_REGISTER,
                repair: bool = False) -> Tuple[Group, Any]:
        """``(group, operation)`` of ``client_id`` reading ``register``
        with its ``reader_state`` (see :meth:`reader_state`)."""
        servers = self.group(register)
        return servers, self._named(register, self.spec.make_read(OpContext(
            client_id=client_id, servers=servers, f=self.f,
            initial_value=self.initial_value, reader_state=reader_state,
            codec=self.codec, repair=repair)))

    def _named(self, register: str, operation: Any) -> Any:
        return (NamespacedOperation(register, operation) if self.namespaced
                else operation)

    def server(self, pid: ProcessId, register: str = DEFAULT_REGISTER) -> Any:
        """One protocol instance for ``pid`` inside ``register``'s group.

        The group is the instance's peer set and fixes its coded-element
        index, so a sharded key's server talks to that key's group only.
        A correct server of a protocol that answers only from its newest
        pair keeps just that pair; a Byzantine one, and any server of a
        history-serving protocol, keeps the deployment's ``max_history``.
        """
        servers = self.group(register)
        return self.spec.make_server(ServerContext(
            server_id=pid, index=servers.index(pid) if pid in servers else 0,
            servers=servers, f=self.f, initial_value=self.initial_value,
            max_history=(self.max_history if self.spec.serves_history
                         or pid in self.behaviors else 1),
            codec=self.codec))

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
            registry=registry, peers=self.server_ids,
            **(self.keyspace.table_bounds()
               if self.keyspace is not None else {}))

    def host_behavior(self, pid: ProcessId) -> Optional[Behavior]:
        """The behaviour the layer around :meth:`host` applies.

        ``None`` when the register table already applies it per key.
        """
        return None if self.namespaced else self.behaviors.get(pid)
