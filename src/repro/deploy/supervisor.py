"""Process supervision: spawn, watch, kill and restart real node processes.

:class:`ClusterSupervisor` turns a :class:`~repro.deploy.spec.ClusterSpec`
into a running cluster of OS processes -- one ``repro node serve`` child
per node -- and is the hand the chaos nemesis uses for *real* crashes:
:meth:`crash` delivers SIGKILL (no cooperation, no flushing, exactly what
the paper's crash fault model means by a server stopping), and
:meth:`restart` respawns the process, which recovers from its snapshot
and rebinds its previous port so clients can re-dial.

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
import json
import logging
import os
import signal
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.deploy.serve import (
    PING_FAILURES,
    health_ping,
    parse_ready_line,
    stats_ping,
    trace_dump,
)
from repro.deploy.spec import ClusterSpec
from repro.errors import ConfigurationError
from repro.obs import MetricRegistry, MetricsExporter
from repro.runtime.client import AsyncRegisterClient
from repro.types import ProcessId

logger = logging.getLogger(__name__)


@dataclass
class NodeHandle:
    """One supervised node process."""

    node_id: ProcessId
    process: Optional[asyncio.subprocess.Process] = None
    address: Optional[Tuple[str, int]] = None
    restarts: int = 0
    _drain_task: Optional[asyncio.Task] = field(default=None, repr=False)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    @property
    def running(self) -> bool:
        return self.process is not None and self.process.returncode is None


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
    """Spawn one ``repro node serve`` process per node and babysit them.

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
        self._own_spec_file = False
        #: HTTP metrics exporter sidecar (``observability.exporter_port``
        #: in the spec); ``None`` when not configured.
        self.exporter: Optional[MetricsExporter] = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Spawn every node, wait for readiness, health-ping each one."""
        if self.spec_path is None:
            # Children re-load their configuration from disk: write an
            # exact copy of this spec where they (and `repro cluster
            # status`) can find it.
            directory = self.spec.snapshot_dir or tempfile.mkdtemp(
                prefix="repro-cluster-")
            os.makedirs(directory, exist_ok=True)
            self.spec_path = self.spec.save(
                os.path.join(directory, "cluster.json"))
            self._own_spec_file = True
        results = await asyncio.gather(
            *(self._spawn(pid) for pid in self.server_ids),
            return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        if not failures:
            auth = self.spec.authenticator()
            try:
                for pid in self.server_ids:
                    await health_ping(self.handles[pid].address, auth,
                                      timeout=self.ready_timeout)
            except BaseException as exc:
                failures.append(exc)
        if failures:
            # A partial cluster is worse than none: reap every child we
            # managed to spawn before reporting the failure.
            await self._reap_all()
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
        """Close clients, then SIGTERM every node (SIGKILL stragglers)."""
        if self.exporter is not None:
            self.exporter.stop()
            self.exporter = None
        for client in self._clients:
            await client.close()
        self._clients.clear()
        for handle in self.handles.values():
            if handle.running:
                handle.process.send_signal(signal.SIGTERM)
        await self._reap_all()
        if os.path.exists(self.state_path):
            os.unlink(self.state_path)

    async def _reap_all(self) -> None:
        """Wait for every spawned child (SIGKILL any that linger)."""
        for handle in self.handles.values():
            if handle.process is None:
                continue
            try:
                await asyncio.wait_for(handle.process.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - stuck child
                handle.process.kill()
                await handle.process.wait()
            if handle._drain_task is not None:
                handle._drain_task.cancel()

    # -- spawning ----------------------------------------------------------
    def _command(self, node_id: ProcessId,
                 port: Optional[int]) -> List[str]:
        command = [self.python, "-m", "repro", "node", "serve",
                   "--spec", self.spec_path, "--node", str(node_id)]
        if port:
            command += ["--port", str(port)]
        return command

    async def _spawn(self, node_id: ProcessId,
                     port: Optional[int] = None) -> None:
        handle = self.handles[node_id]
        if handle._drain_task is not None:
            handle._drain_task.cancel()
            handle._drain_task = None
        process = await asyncio.create_subprocess_exec(
            *self._command(node_id, port), env=child_env(),
            stdout=asyncio.subprocess.PIPE)
        handle.process = process
        try:
            ready = await asyncio.wait_for(
                self._read_until_ready(node_id, process),
                timeout=self.ready_timeout)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
            raise ConfigurationError(
                f"node {node_id} did not report readiness within "
                f"{self.ready_timeout}s")
        handle.address = (ready[1], ready[2])
        handle._drain_task = asyncio.ensure_future(
            self._drain_stdout(node_id, process))
        self.registry.counter("supervisor_spawns_total",
                              node=str(node_id)).inc()
        logger.info("node %s up: pid %d at %s:%d", node_id, process.pid,
                    *handle.address)

    async def _read_until_ready(self, node_id: ProcessId,
                                process) -> Tuple[str, str, int]:
        while True:
            line = await process.stdout.readline()
            if not line:
                raise ConfigurationError(
                    f"node {node_id} exited (rc={process.returncode}) "
                    f"before reporting readiness")
            ready = parse_ready_line(line.decode(errors="replace"))
            if ready is not None:
                if ready[0] != str(node_id):
                    raise ConfigurationError(
                        f"process for {node_id} reported readiness as "
                        f"{ready[0]}")
                return ready

    async def _drain_stdout(self, node_id: ProcessId, process) -> None:
        # Keep the pipe from filling (a full pipe blocks the child) and
        # forward anything the node prints to our logger.
        try:
            while True:
                line = await process.stdout.readline()
                if not line:
                    return
                logger.debug("node %s: %s", node_id,
                             line.decode(errors="replace").rstrip())
        except asyncio.CancelledError:  # pragma: no cover - teardown
            return

    # -- fault injection ---------------------------------------------------
    def kill(self, node_id: ProcessId,
             signum: int = signal.SIGKILL) -> int:
        """Deliver ``signum`` to the node process; returns its pid."""
        handle = self.handles[node_id]
        if not handle.running:
            raise ConfigurationError(f"node {node_id} is not running")
        handle.process.send_signal(signum)
        return handle.process.pid

    async def crash(self, node_id: ProcessId) -> None:
        """SIGKILL the node process and wait until the OS reaps it."""
        self.kill(node_id, signal.SIGKILL)
        handle = self.handles[node_id]
        await handle.process.wait()
        if handle._drain_task is not None:
            await handle._drain_task
            handle._drain_task = None
        self.registry.counter("supervisor_crashes_total",
                              node=str(node_id)).inc()
        logger.info("node %s crashed (SIGKILL)", node_id)

    async def restart(self, node_id: ProcessId) -> None:
        """Respawn a dead node; it recovers from its snapshot.

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
