"""High-level facade: build and run a simulated register deployment.

:class:`RegisterSystem` assembles a complete execution -- simulator, server
processes (correct or Byzantine), client processes -- for any protocol in
the registry (:mod:`repro.protocols`).  Run ``repro algorithms`` for the
registered set and their bounds; the classics are ``bsr``, ``bsr-history``,
``bsr-2round``, ``bcsr``, ``rb``, ``abd``, plus the RB-era rival plugins
``rb2`` and ``mpr``.

Example::

    system = RegisterSystem("bsr", f=1)
    write = system.write(b"hello", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    trace = system.run()
    assert read.value == b"hello"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.byzantine.behaviors import Behavior, make_behavior
from repro.core.processes import ByzantineServerProcess, ClientProcess, ServerProcess
from repro.core.namespace import DEFAULT_REGISTER, NamespacedOperation
from repro.errors import ConfigurationError
from repro.protocols import OpContext, ServerContext, get_spec
from repro.sharding import KeyspaceConfig, RegisterTable
from repro.sim.delays import DelayModel
from repro.sim.simulator import Simulator
from repro.sim.trace import OperationRecord, Trace
from repro.types import ProcessId, reader_id, server_id, writer_id


@dataclass
class OpHandle:
    """A scheduled operation; resolves after :meth:`RegisterSystem.run`."""

    client: ProcessId
    kind: str
    operation: Any = None
    record: Optional[OperationRecord] = None

    @property
    def done(self) -> bool:
        """Whether the operation completed during the run."""
        return self.record is not None and self.record.complete

    @property
    def value(self) -> Any:
        """A read's returned value (or a write's tag)."""
        if not self.done:
            raise ConfigurationError(
                f"{self.kind} by {self.client} did not complete; run() the "
                "system first or check liveness assumptions"
            )
        return self.operation.result

    @property
    def latency(self) -> Optional[float]:
        """Simulated completion latency in seconds."""
        return self.record.latency if self.record else None

    @property
    def rounds(self) -> int:
        """Client-to-server rounds the operation used."""
        return self.operation.rounds if self.operation else 0


class RegisterSystem:
    """One simulated deployment of a register algorithm."""

    def __init__(self, algorithm: str = "bsr", f: int = 1, n: Optional[int] = None,
                 num_writers: int = 2, num_readers: int = 2, seed: int = 0,
                 delay_model: Optional[DelayModel] = None,
                 byzantine: Optional[Dict[Union[int, ProcessId], Union[str, Behavior]]] = None,
                 initial_value: Any = b"", horizon: float = 1_000_000.0,
                 enforce_bounds: bool = True,
                 bcsr_k: Optional[int] = None,
                 namespaced: bool = False,
                 max_history: Optional[int] = None,
                 read_repair: bool = False,
                 keyspace: Optional[KeyspaceConfig] = None) -> None:
        spec = get_spec(algorithm)
        self.spec = spec
        self.algorithm = algorithm
        self.f = f
        self.n = n if n is not None else spec.min_servers(f)
        if enforce_bounds and self.n < spec.min_servers(f):
            raise ConfigurationError(
                f"{algorithm} requires n >= {spec.min_servers(f)} for f={f}, "
                f"got n={self.n} (pass enforce_bounds=False to experiment below "
                "the bound, e.g. for the lower-bound scenarios)"
            )
        self.initial_value = initial_value
        self.max_history = max_history
        self.read_repair = read_repair
        self._enforce_bounds = enforce_bounds
        self.sim = Simulator(seed=seed, delay_model=delay_model, horizon=horizon)
        self.server_ids = [server_id(i) for i in range(self.n)]
        if spec.make_codec is None:
            self._codec = None
        elif bcsr_k is not None:
            # Explicit dimension override for below-the-bound experiments
            # (Theorem 6 needs an [n, k] code at n = 5f, where the paper's
            # k = n - 5f is undefined).
            from repro.erasure.striping import StripedCodec
            self._codec = StripedCodec(self.n, bcsr_k)
        else:
            self._codec = spec.make_codec(self.n, f)

        byzantine = dict(byzantine or {})
        if enforce_bounds and len(byzantine) > f:
            raise ConfigurationError(
                f"{len(byzantine)} Byzantine servers exceed the budget f={f}"
            )
        normalized: Dict[ProcessId, Behavior] = {}
        for key, value in byzantine.items():
            pid = server_id(key) if isinstance(key, int) else key
            if pid not in self.server_ids:
                raise ConfigurationError(f"{pid!r} is not a server of this system")
            normalized[pid] = make_behavior(value) if isinstance(value, str) else value
        self.byzantine: Dict[ProcessId, Behavior] = normalized

        #: Sharded keyspace placement: implies namespacing, bounds the
        #: :class:`~repro.sharding.RegisterTable` servers host, and every
        #: operation is routed to its key's consistent-hash quorum group
        #: -- the *same* placement the live runtime derives from a spec,
        #: so the simulator doubles as a cheap placement testbed.
        self.keyspace = keyspace
        if keyspace is not None:
            keyspace.validate(algorithm, f, self.n)
        self.namespaced = namespaced or keyspace is not None
        namespaced = self.namespaced
        if namespaced and not spec.namespaced_ok:
            raise ConfigurationError(
                f"the {algorithm} protocol does not support namespacing"
            )
        self._placement = (keyspace.placement(self.server_ids)
                           if keyspace is not None else None)
        #: pid -> underlying server protocol object (state machine).
        self.server_protocols: Dict[ProcessId, Any] = {}
        for index, pid in enumerate(self.server_ids):
            if namespaced:
                protocol = RegisterTable(
                    pid, (lambda name, pid=pid:
                          self._make_server_protocol(pid, register=name)),
                    behavior=self.byzantine.get(pid),
                    **(keyspace.table_bounds()
                       if keyspace is not None else {}))
                process = ServerProcess(pid, protocol)
            else:
                protocol = self._make_server_protocol(pid)
                if pid in self.byzantine:
                    process = ByzantineServerProcess(pid, protocol,
                                                     self.byzantine[pid])
                else:
                    process = ServerProcess(pid, protocol)
            self.server_protocols[pid] = protocol
            self.sim.add_process(process)

        self.writer_ids = [writer_id(i) for i in range(num_writers)]
        self.reader_ids = [reader_id(i) for i in range(num_readers)]
        self.clients: Dict[ProcessId, ClientProcess] = {}
        self._reader_states: Dict[ProcessId, Any] = {}
        for pid in self.writer_ids + self.reader_ids:
            client = ClientProcess(pid)
            self.clients[pid] = client
            self.sim.add_process(client)
        for pid in self.reader_ids:
            self._reader_states[pid] = self._new_reader_state()
        #: (reader, register) -> state, for namespaced deployments.  Unbounded
        #: (cf. the client's ``MAX_STATE_BYTES``): a simulation touches only
        #: the registers its schedule names and is dropped when it has run.
        self._namespaced_reader_states: Dict[tuple, Any] = {}
        self._handles: List[OpHandle] = []

    # -- construction helpers ------------------------------------------------
    def _new_reader_state(self) -> Any:
        if self.spec.make_reader_state is None:
            return None
        return self.spec.make_reader_state(self.initial_value)

    def _make_server_protocol(self, pid: ProcessId,
                              register: str = DEFAULT_REGISTER) -> Any:
        """Build one protocol instance for ``pid``.

        ``register`` matters only for sharded deployments of protocols
        with server-to-server links: the instance's peer group is the
        key's quorum group, not the whole fleet.
        """
        servers = tuple(self._op_servers(register))
        return self.spec.make_server(ServerContext(
            server_id=pid, index=servers.index(pid) if pid in servers else 0,
            servers=servers, f=self.f, initial_value=self.initial_value,
            max_history=self.max_history, codec=self._codec,
        ))

    def _op_servers(self, register: str) -> List[ProcessId]:
        """Server list an operation on ``register`` should contact.

        With a keyspace this is the key's consistent-hash quorum group
        (quorum arithmetic then runs against the group size, exactly as
        in the live runtime); otherwise it is the whole fleet.
        """
        if self._placement is not None:
            return list(self._placement.servers_for(register))
        return self.server_ids

    def _resolve_client(self, ids: List[ProcessId], which: Union[int, ProcessId]) -> ProcessId:
        pid = ids[which] if isinstance(which, int) else which
        if pid not in self.clients:
            raise ConfigurationError(f"unknown client {pid!r}")
        return pid

    # -- scheduling operations ---------------------------------------------------
    def write(self, value: Any, writer: Union[int, ProcessId] = 0,
              at: float = 0.0, register: str = DEFAULT_REGISTER) -> OpHandle:
        """Schedule ``write(value)`` by the given writer at time ``at``.

        ``register`` selects the named register in namespaced deployments
        (ignored otherwise).
        """
        pid = self._resolve_client(self.writer_ids, writer)
        handle = OpHandle(client=pid, kind="write")

        def factory():
            op = self.spec.make_write(OpContext(
                client_id=pid, servers=tuple(self._op_servers(register)),
                f=self.f, value=value, initial_value=self.initial_value,
                codec=self._codec, enforce_bounds=self._enforce_bounds,
            ))
            if self.namespaced:
                op = NamespacedOperation(register, op)
            handle.operation = op
            return op

        self.clients[pid].submit(at, factory, self._completion_callback(handle))
        self._handles.append(handle)
        return handle

    def read(self, reader: Union[int, ProcessId] = 0, at: float = 0.0,
             register: str = DEFAULT_REGISTER) -> OpHandle:
        """Schedule a read by the given reader at time ``at``.

        ``register`` selects the named register in namespaced deployments
        (ignored otherwise).
        """
        pid = self._resolve_client(self.reader_ids, reader)
        handle = OpHandle(client=pid, kind="read")

        def factory():
            op = self.spec.make_read(OpContext(
                client_id=pid, servers=tuple(self._op_servers(register)),
                f=self.f, initial_value=self.initial_value,
                reader_state=self._reader_state_for(pid, register),
                codec=self._codec, enforce_bounds=self._enforce_bounds,
                repair=self.read_repair,
            ))
            if self.namespaced:
                op = NamespacedOperation(register, op)
            handle.operation = op
            return op

        self.clients[pid].submit(at, factory, self._completion_callback(handle))
        self._handles.append(handle)
        return handle

    def _reader_state_for(self, pid: ProcessId, register: str) -> Any:
        """Per-reader state; per (reader, register) when namespaced."""
        if not self.namespaced:
            return self._reader_states[pid]
        key = (pid, register)
        if key not in self._namespaced_reader_states:
            self._namespaced_reader_states[key] = self._new_reader_state()
        return self._namespaced_reader_states[key]

    @staticmethod
    def _completion_callback(handle: OpHandle):
        def on_complete(operation, record):
            handle.operation = operation
            handle.record = record
        return on_complete

    # -- execution and measurement ----------------------------------------------
    def run(self, **kwargs) -> Trace:
        """Run the simulation to quiescence; returns the execution trace."""
        self.sim.run(**kwargs)
        return self.sim.trace

    def crash_server(self, which: Union[int, ProcessId], at: float) -> None:
        """Schedule a server crash at simulated time ``at``."""
        pid = server_id(which) if isinstance(which, int) else which
        self.sim.schedule_at(at, lambda: self.sim.crash(pid), label=f"crash {pid}")

    def crash_client(self, pid: ProcessId, at: float) -> None:
        """Schedule a client crash at simulated time ``at``."""
        self.sim.schedule_at(at, lambda: self.sim.crash(pid), label=f"crash {pid}")

    @property
    def trace(self) -> Trace:
        """The execution trace recorded so far."""
        return self.sim.trace

    @property
    def handles(self) -> List[OpHandle]:
        """Handles of every scheduled operation, in scheduling order."""
        return list(self._handles)

    def storage_bytes(self) -> Dict[ProcessId, int]:
        """Per-server bytes of register data currently stored (E4)."""
        return {
            pid: protocol.storage_bytes()
            for pid, protocol in self.server_protocols.items()
            if hasattr(protocol, "storage_bytes")
        }

    def network_stats(self):
        """The network's byte/message counters (E4)."""
        return self.sim.network.stats


def make_system(algorithm: str = "bsr", **kwargs) -> RegisterSystem:
    """Convenience constructor mirroring :class:`RegisterSystem`."""
    return RegisterSystem(algorithm, **kwargs)
