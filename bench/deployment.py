"""Start a workload's cluster and read it from outside.

One surface over the two backends: an in-process
:class:`~repro.runtime.LocalCluster` or a
:class:`~repro.deploy.ClusterSupervisor` over ``repro node serve``
processes.  The program runs as shipped: wire v2, default flight
sampling, ``max_history=128``.  Node metrics and flight records are
always read the way an operator would -- ``StatsPing`` / ``TraceDump``
over the authenticated wire -- so both backends are observed alike.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
from typing import Any, Dict, List, Tuple

from repro.deploy import (
    ClusterSpec,
    ClusterSupervisor,
    health_ping,
    stats_ping,
    trace_dump,
)
from repro.obs import merge_snapshots
from repro.runtime import LocalCluster
from repro.sharding import KeyspaceConfig
from repro.transport.auth import Authenticator, KeyChain

from workloads import KEYSPACE, MAX_HISTORY, Workload

SECRET = "register-bench"

#: Per-operation liveness deadline.  Far above any healthy latency, so
#: a timeout is a failure, never a slow success.
OP_TIMEOUT = 10.0


class Deployment:
    def __init__(self, workload: Workload, workdir: str) -> None:
        self.workload = workload
        self.workdir = workdir
        self.spawn_s = 0.0
        self.stop_s = 0.0
        self._backend: Any = None

    async def start(self) -> None:
        w = self.workload
        started = time.perf_counter()
        if w.procs:
            # The supervisor's children re-read the spec from disk; keep
            # that file (and its state file) inside the checkout.
            os.makedirs(self.workdir, exist_ok=True)
            spec = ClusterSpec(
                algorithm=w.algorithm, f=w.f, n=w.n, secret=SECRET,
                max_history=MAX_HISTORY,
                keyspace=dict(KEYSPACE) if w.sharded else {},
                byzantine={f"s{i:03d}": b for i, b in w.byzantine.items()})
            path = spec.save(os.path.join(self.workdir, "cluster.json"))
            self._backend = ClusterSupervisor(spec, spec_path=path)
        else:
            self._backend = LocalCluster(
                w.algorithm, f=w.f, n=w.n, secret=SECRET.encode(),
                max_history=MAX_HISTORY, byzantine=dict(w.byzantine),
                keyspace=KeyspaceConfig(**KEYSPACE) if w.sharded else None)
        await self._backend.start()
        self.spawn_s = time.perf_counter() - started

    async def stop(self) -> None:
        started = time.perf_counter()
        await self._backend.stop()
        self.stop_s = time.perf_counter() - started
        if self.workload.procs:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def client(self, client_id: str, **kwargs: Any) -> Any:
        """A client of this cluster (closed by :meth:`stop`)."""
        return self._backend.client(client_id, timeout=OP_TIMEOUT, **kwargs)

    @property
    def server_ids(self) -> List[str]:
        return list(self._backend.server_ids)

    @property
    def node_pids(self) -> List[int]:
        if not self.workload.procs:
            return []
        return [h.pid for h in self._backend.handles.values() if h.running]

    @property
    def registry(self) -> Any:
        """The generator-side registry (shared with in-process nodes)."""
        return self._backend.registry

    async def history_len_max(self) -> int:
        """Longest per-register history any node holds (0 = not visible).

        A single-register node reports it in its ``HealthAck``; an
        in-process table can be walked; a table in another process
        exposes no such figure yet, so it reads 0 there.
        """
        if not self.workload.sharded:
            auth = self._probe_auth()
            acks = await asyncio.gather(*(
                health_ping(address, auth, timeout=5.0)
                for address in self._backend.addresses.values()))
            return max(ack.history_len for ack in acks)
        if self.workload.procs:
            return 0
        return max((len(server.history)
                    for node in self._backend.nodes.values()
                    for server in node.protocol.registers.values()),
                   default=0)

    def _probe_auth(self) -> Authenticator:
        return Authenticator(
            KeyChain.from_secret(SECRET.encode(), self.server_ids))

    async def snapshot(self) -> Dict:
        """Every registry of the deployment, concatenated.

        The generator-side registry (clients; in-process also the
        nodes, which share it) plus, for real processes, each node's own
        registry scraped over ``StatsPing``.
        """
        snapshots = [self._backend.registry.snapshot()]
        if self.workload.procs:
            auth = self._probe_auth()
            acks = await asyncio.gather(*(
                stats_ping(address, auth, timeout=5.0)
                for address in self._backend.addresses.values()))
            snapshots.extend(ack.metrics for ack in acks)
        return merge_snapshots(snapshots)

    async def flight(self) -> Tuple[List[Dict], int]:
        """``(retained flight records, records ever captured)``."""
        auth = self._probe_auth()
        acks = await asyncio.gather(*(
            trace_dump(address, auth, timeout=5.0)
            for address in self._backend.addresses.values()))
        records = [dict(r) for ack in acks for r in ack.records or ()]
        return records, sum(ack.total for ack in acks)
