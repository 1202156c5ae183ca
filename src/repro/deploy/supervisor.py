"""Process supervision: spawn, watch, kill and restart real node processes.

:class:`ClusterSupervisor` turns a :class:`~repro.node.spec.ClusterSpec`
into a running cluster of OS processes, one per node, and is the hand
the chaos nemesis uses for *real* crashes: :meth:`crash` delivers
SIGKILL (no cooperation, no flushing, exactly what the paper's crash
fault model means by a server stopping), and :meth:`restart` brings the
node back, recovering from its snapshot and rebinding its previous port
so clients can re-dial.

The supervisor execs one child, ``repro node zygote``
(:func:`~repro.node.serve.run_zygote`), which imports a node's code once
and forks every node on request -- a ``spawn <node> [port]`` line on its
stdin.  Each node writes ``READY <node> <host> <port> <pid>`` to the
zygote's stdout, which the supervisor reads; the zygote adds
``EXIT <node> <pid> <status>`` for every node it reaps.  So starting a
node, and restarting one, costs a fork rather than an interpreter, while
every node is still an OS process of its own that SIGKILL ends.  Closing
the zygote's stdin stops it and all its nodes -- which is also what
happens when the supervisor dies.

The supervisor exposes the same surface the in-process
:class:`~repro.runtime.cluster.LocalCluster` offers a
:class:`~repro.chaos.nemesis.Nemesis` -- ``server_ids``, ``addresses``,
``client()``, ``crash()``/``restart()`` -- so schedules made of crash and
restart steps run unchanged against either backend.  Frame-level faults
(partition, degrade, sever) still need the proxy-based chaos cluster.

A small JSON *state file* (pids + bound addresses) is written next to
the snapshots so ``repro cluster status`` and ``repro cluster kill`` can
operate on a cluster served by another process.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.node.serve import (
    PING_FAILURES,
    READY,
    health_ping,
    parse_line,
    stats_ping,
    trace_dump,
)
from repro.node.spec import ClusterSpec
from repro.obs import MetricRegistry
from repro.runtime.client import AsyncRegisterClient
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - loads http.server
    from repro.obs.httpd import MetricsExporter

logger = logging.getLogger(__name__)


@dataclass
class NodeHandle:
    """One supervised node process (a child of the zygote)."""

    node_id: ProcessId
    pid: Optional[int] = None
    address: Optional[Tuple[str, int]] = None
    restarts: int = 0
    running: bool = False
    #: Resolved with the next line about this node (None: zygote gone).
    _next_line: Optional[asyncio.Future] = field(default=None, repr=False)

    def expect_line(self) -> asyncio.Future:
        self._next_line = asyncio.get_running_loop().create_future()
        return self._next_line

    def deliver(self, line: Optional[Tuple]) -> None:
        if self._next_line is not None and not self._next_line.done():
            self._next_line.set_result(line)


def zygote_command(python: str, spec_path: str) -> List[str]:
    """What the supervisor execs: ``repro node zygote``, which
    ``repro/__main__.py`` runs without importing the CLI.

    ``-S``: a node runs only the standard library and this package (on
    the ``PYTHONPATH`` :func:`child_env` sets), so the interpreter skips
    ``site`` -- its scan of site-packages and whatever ``.pth`` hooks the
    host installed there.
    """
    return [python, "-S", "-m", "repro", "node", "zygote", "--spec",
            spec_path]


def child_env() -> Dict[str, str]:
    """Environment for a ``python -m repro`` child that imports this very
    copy of the package, however the parent was launched."""
    import repro
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    return env


def default_state_path(spec: ClusterSpec,
                       spec_path: Optional[str] = None) -> str:
    """Where the supervisor records pids/addresses for out-of-process CLIs."""
    if spec.snapshot_dir is not None:
        return os.path.join(spec.snapshot_dir, "cluster-state.json")
    base = spec_path or os.path.join(tempfile.gettempdir(), "repro-cluster")
    return base + ".state.json"


def read_state(state_path: str) -> Dict:
    """Load a supervisor state file; raises ConfigurationError when absent."""
    if not os.path.exists(state_path):
        raise ConfigurationError(
            f"no cluster state at {state_path!r} -- is `repro cluster "
            f"serve` running with this spec?")
    with open(state_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class ClusterSupervisor:
    """Fork one process per node through a zygote and babysit them.

    Usage::

        spec = ClusterSpec("bsr", f=1, snapshot_dir="/tmp/snaps")
        supervisor = ClusterSupervisor(spec)
        await supervisor.start()          # all nodes ready (health-pinged)
        client = supervisor.client("w000")
        await client.connect(); await client.write(b"v")
        supervisor.kill("s002", signal.SIGKILL)   # real crash
        await supervisor.restart("s002")          # snapshot recovery
        await supervisor.stop()
    """

    #: Nemesis capability markers: no frame-level fault plan or proxies.
    chaos_plan = None

    def __init__(self, spec: ClusterSpec, spec_path: Optional[str] = None,
                 state_path: Optional[str] = None,
                 python: str = sys.executable,
                 ready_timeout: float = 20.0,
                 registry: Optional[MetricRegistry] = None) -> None:
        self.spec = spec
        self.spec_path = spec_path
        self.state_path = state_path or default_state_path(spec, spec_path)
        self.python = python
        self.ready_timeout = ready_timeout
        #: Supervisor-side metrics (spawns/crashes/restarts) and the
        #: default registry for clients made via :meth:`client`.  The
        #: nodes' own metrics live in *their* processes; scrape them
        #: with :meth:`scrape`.
        self.registry = registry if registry is not None else MetricRegistry()
        self.server_ids: List[ProcessId] = list(spec.node_ids)
        self.handles: Dict[ProcessId, NodeHandle] = {
            pid: NodeHandle(pid) for pid in self.server_ids}
        self.proxies: Dict[ProcessId, object] = {}
        self._clients: List[AsyncRegisterClient] = []
        #: The ``repro node zygote`` child every node is forked from, and
        #: the task reading its stdout.
        self._zygote: Optional[asyncio.subprocess.Process] = None
        self._reader: Optional[asyncio.Task] = None
        #: HTTP metrics exporter sidecar (``observability.exporter_port``
        #: in the spec); ``None`` when not configured.
        self.exporter: Optional[MetricsExporter] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Fork every node, wait for readiness, health-ping each one."""
        if self.spec_path is None:
            # The zygote loads its configuration from disk: write an
            # exact copy of this spec where it (and `repro cluster
            # status`) can find it.
            directory = self.spec.snapshot_dir or tempfile.mkdtemp(
                prefix="repro-cluster-")
            os.makedirs(directory, exist_ok=True)
            self.spec_path = self.spec.save(
                os.path.join(directory, "cluster.json"))
        self._zygote = await asyncio.create_subprocess_exec(
            *zygote_command(self.python, self.spec_path), env=child_env(),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
        self._reader = asyncio.ensure_future(
            self._read_zygote(self._zygote.stdout))
        results = await asyncio.gather(
            *(self._spawn(pid) for pid in self.server_ids),
            return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        if not failures:
            auth = self.spec.authenticator()
            results = await asyncio.gather(
                *(health_ping(self.handles[pid].address, auth,
                              timeout=self.ready_timeout)
                  for pid in self.server_ids),
                return_exceptions=True)
            failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            # A partial cluster is worse than none: stop every node we
            # managed to start before reporting the failure.
            await self._stop_zygote()
            raise failures[0]
        self._start_exporter()
        self._write_state()

    def _start_exporter(self) -> None:
        """Run the HTTP exporter sidecar when the spec asks for one.

        The exporter's handler threads fan StatsPing / TraceDump probes
        out to every node with their own short-lived event loop
        (``asyncio.run``), so a slow scrape stalls that one HTTP request
        -- never the supervisor's loop or the cluster.
        """
        port = self.spec.observability.get("exporter_port")
        if port is None or self.exporter is not None:
            return
        from repro.obs.httpd import MetricsExporter
        host = str(self.spec.observability.get("exporter_host",
                                               "127.0.0.1"))
        auth = self.spec.authenticator()

        def scrape_all() -> List[Dict]:
            async def gather():
                acks = await asyncio.gather(
                    *(stats_ping(address, auth)
                      for address in self.addresses.values()),
                    return_exceptions=True)
                return [ack.metrics for ack in acks
                        if not isinstance(ack, BaseException)
                        and ack.metrics]
            return asyncio.run(gather())

        def lookup(op_id: int) -> List[Dict]:
            async def gather():
                acks = await asyncio.gather(
                    *(trace_dump(address, auth, target_op=op_id)
                      for address in self.addresses.values()),
                    return_exceptions=True)
                records: List[Dict] = []
                for ack in acks:
                    if not isinstance(ack, BaseException):
                        records.extend(dict(r) for r in ack.records or ())
                return records
            return asyncio.run(gather())

        self.exporter = MetricsExporter(scrape_all, trace_lookup=lookup,
                                        host=host, port=port)
        self.exporter.start()
        logger.info("metrics exporter serving on http://%s:%d",
                    *self.exporter.address)

    async def stop(self) -> None:
        """Close clients, then stop every node and the zygote.

        Returns once every process of the cluster has exited and the
        zygote's pipes are closed: nothing of it writes anywhere after.
        """
        if self.exporter is not None:
            self.exporter.stop()
            self.exporter = None
        for client in self._clients:
            await client.close()
        self._clients.clear()
        await self._stop_zygote()
        if os.path.exists(self.state_path):
            os.unlink(self.state_path)

    async def _stop_zygote(self) -> None:
        """EOF on the zygote's stdin: it SIGTERMs its nodes, waits, exits."""
        zygote, self._zygote = self._zygote, None
        if zygote is None:
            return
        zygote.stdin.close()
        try:
            await asyncio.wait_for(zygote.wait(), timeout=10.0)
        except asyncio.TimeoutError:  # pragma: no cover - stuck zygote
            zygote.kill()
            for handle in self.handles.values():
                if handle.running:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(handle.pid, signal.SIGKILL)
            await zygote.wait()
        # EOF on its stdout: the last process holding the pipe is gone.
        await self._reader

    # -- spawning ----------------------------------------------------------
    async def _spawn(self, node_id: ProcessId,
                     port: Optional[int] = None) -> None:
        """Have the zygote fork ``node_id``; wait for its READY line."""
        handle = self.handles[node_id]
        stdin = self._zygote.stdin if self._zygote is not None else None
        if stdin is None or stdin.is_closing():
            raise ConfigurationError(
                f"cannot start {node_id}: the node zygote is not running")
        ready = handle.expect_line()
        stdin.write(f"spawn {node_id} {port or ''}\n".encode())
        try:
            line = await asyncio.wait_for(ready, timeout=self.ready_timeout)
        except asyncio.TimeoutError:
            raise ConfigurationError(
                f"node {node_id} did not report readiness within "
                f"{self.ready_timeout}s")
        if line is None or line[0] != READY:
            raise ConfigurationError(
                f"node {node_id} exited ({line or 'zygote gone'}) before "
                f"reporting readiness")
        self.registry.counter("supervisor_spawns_total",
                              node=str(node_id)).inc()
        logger.info("node %s up: pid %d at %s:%d", node_id, handle.pid,
                    *handle.address)

    async def _read_zygote(self, stdout: asyncio.StreamReader) -> None:
        """Apply the zygote's READY / EXIT lines until its stdout closes."""
        while True:
            raw = await stdout.readline()
            if not raw:
                break
            line = parse_line(raw.decode(errors="replace"))
            handle = self.handles.get(line[1]) if line else None
            if handle is None:
                logger.debug("zygote: %s", raw.decode(errors="replace"))
                continue
            if line[0] == READY:
                handle.address, handle.pid = (line[2], line[3]), line[4]
                handle.running = True
            elif line[2] == handle.pid:
                handle.running = False
            handle.deliver(line)
        for handle in self.handles.values():
            handle.running = False
            handle.deliver(None)

    # -- fault injection ---------------------------------------------------
    def kill(self, node_id: ProcessId,
             signum: int = signal.SIGKILL) -> int:
        """Deliver ``signum`` to the node process; returns its pid."""
        handle = self.handles[node_id]
        if not handle.running:
            raise ConfigurationError(f"node {node_id} is not running")
        os.kill(handle.pid, signum)
        return handle.pid

    async def crash(self, node_id: ProcessId) -> None:
        """SIGKILL the node process and wait until the zygote reaps it."""
        self.kill(node_id, signal.SIGKILL)
        handle = self.handles[node_id]
        while handle.running:
            await handle.expect_line()
        self.registry.counter("supervisor_crashes_total",
                              node=str(node_id)).inc()
        logger.info("node %s crashed (SIGKILL)", node_id)

    async def restart(self, node_id: ProcessId) -> None:
        """Fork a dead node afresh; it recovers from its snapshot.

        The previously-bound port is pinned so clients' reconnect loops
        find the node at the address they already know.
        """
        handle = self.handles[node_id]
        if handle.running:
            await self.crash(node_id)
        port = handle.address[1] if handle.address else None
        await self._spawn(node_id, port=port)
        handle.restarts += 1
        self.registry.counter("supervisor_restarts_total",
                              node=str(node_id)).inc()
        self._write_state()

    # -- observation -------------------------------------------------------
    @property
    def addresses(self) -> Dict[ProcessId, Tuple[str, int]]:
        """Live node id -> ``(host, port)`` map (from readiness reports)."""
        return {pid: handle.address for pid, handle in self.handles.items()
                if handle.address is not None}

    def status(self) -> List[Dict]:
        """One dict per node: id, pid, address, running flag, restarts."""
        return [
            {
                "node": pid,
                "pid": handle.pid,
                "address": list(handle.address) if handle.address else None,
                "running": handle.running,
                "restarts": handle.restarts,
            }
            for pid, handle in self.handles.items()
        ]

    async def healthy(self, node_id: ProcessId, timeout: float = 2.0) -> bool:
        """Whether the node answers a health ping right now."""
        handle = self.handles[node_id]
        if handle.address is None:
            return False
        try:
            await health_ping(handle.address, self.spec.authenticator(),
                              timeout=timeout)
            return True
        except PING_FAILURES:
            return False

    async def scrape(self, node_id: ProcessId,
                     timeout: float = 2.0) -> Optional[Dict]:
        """The node's metric-registry snapshot, or None when unreachable."""
        handle = self.handles[node_id]
        if handle.address is None:
            return None
        try:
            ack = await stats_ping(handle.address, self.spec.authenticator(),
                                   timeout=timeout)
        except PING_FAILURES:
            return None
        return ack.metrics

    def client(self, client_id: ProcessId,
               **client_kwargs) -> AsyncRegisterClient:
        """A client wired to the live addresses (closed by :meth:`stop`)."""
        client_kwargs.setdefault("registry", self.registry)
        client = self.spec.client(client_id, addresses=self.addresses,
                                  **client_kwargs)
        self._clients.append(client)
        return client

    # -- state file --------------------------------------------------------
    def _write_state(self) -> None:
        state = {
            "spec_path": self.spec_path,
            "zygote_pid": self._zygote.pid if self._zygote else None,
            "exporter": (
                {"host": self.exporter.host, "port": self.exporter.port}
                if self.exporter is not None else None),
            "nodes": {
                str(pid): {
                    "pid": handle.pid,
                    "host": handle.address[0] if handle.address else None,
                    "port": handle.address[1] if handle.address else None,
                    "restarts": handle.restarts,
                }
                for pid, handle in self.handles.items()
            },
        }
        os.makedirs(os.path.dirname(self.state_path) or ".", exist_ok=True)
        tmp = self.state_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.state_path)
