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

from repro.byzantine.behaviors import Behavior
from repro.core.processes import ClientProcess, ServerProcess
from repro.core.namespace import DEFAULT_REGISTER, NamespacedOperation
from repro.errors import ConfigurationError
from repro.protocols import OpContext
from repro.protocols.fleet import Fleet
from repro.sharding import KeyspaceConfig
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
        #: The validated fleet every server is built from.  A keyspace
        #: routes each operation to its key's consistent-hash quorum group
        #: -- the *same* placement the live runtime derives from a spec,
        #: so the simulator doubles as a cheap placement testbed.
        self.fleet = fleet = Fleet.build(
            algorithm, f=f, n=n, byzantine=byzantine, keyspace=keyspace,
            namespaced=namespaced, initial_value=initial_value,
            max_history=max_history, enforce_bounds=enforce_bounds,
            bcsr_k=bcsr_k)
        self.spec = fleet.spec
        self.f = f
        self.n = fleet.n
        self.initial_value = initial_value
        self.read_repair = read_repair
        self._enforce_bounds = enforce_bounds
        self.sim = Simulator(seed=seed, delay_model=delay_model, horizon=horizon)
        self.server_ids = list(fleet.server_ids)
        self.byzantine = fleet.behaviors
        self.namespaced = fleet.namespaced
        #: pid -> underlying server protocol object (state machine).
        self.server_protocols: Dict[ProcessId, Any] = {}
        for pid in self.server_ids:
            protocol = fleet.host(pid)
            self.server_protocols[pid] = protocol
            self.sim.add_process(
                ServerProcess(pid, protocol, fleet.host_behavior(pid)))

        self.writer_ids = [writer_id(i) for i in range(num_writers)]
        self.reader_ids = [reader_id(i) for i in range(num_readers)]
        self.clients: Dict[ProcessId, ClientProcess] = {}
        for pid in self.writer_ids + self.reader_ids:
            client = ClientProcess(pid)
            self.clients[pid] = client
            self.sim.add_process(client)
        #: (reader, register) -> semi-fast reader state.  Unbounded (cf.
        #: the client's ``MAX_STATE_BYTES``): a simulation touches only
        #: the registers its schedule names and is dropped when it has run.
        self._reader_states: Dict[Tuple[ProcessId, str], Any] = {}
        self._handles: List[OpHandle] = []

    # -- construction helpers ------------------------------------------------
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
                client_id=pid, servers=self.fleet.group(register),
                f=self.f, value=value, initial_value=self.initial_value,
                codec=self.fleet.codec, enforce_bounds=self._enforce_bounds,
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
                client_id=pid, servers=self.fleet.group(register),
                f=self.f, initial_value=self.initial_value,
                reader_state=self._reader_state_for(pid, register),
                codec=self.fleet.codec, enforce_bounds=self._enforce_bounds,
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
        if self.spec.make_reader_state is None:
            return None
        key = (pid, register if self.namespaced else DEFAULT_REGISTER)
        if key not in self._reader_states:
            self._reader_states[key] = self.spec.make_reader_state(
                self.initial_value)
        return self._reader_states[key]

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
