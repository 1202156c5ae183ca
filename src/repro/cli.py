"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands:

* ``demo``      -- run a tiny write/read execution of any algorithm.
* ``scenario``  -- replay one of the paper's proof executions (t3, t5, t6).
* ``workload``  -- run a synthetic workload and print latency statistics.
* ``chaos``     -- run a live TCP workload under a nemesis fault schedule
  (``--procs`` runs it against real OS processes).
* ``node``      -- serve exactly one register node in this process.
* ``cluster``   -- serve / inspect / signal a process-per-node cluster
  (``status --metrics`` adds scraped per-phase latency histograms).
* ``metrics``   -- scrape a served cluster's metric registries and dump
  them as Prometheus text exposition or JSON (``dump --watch`` appends
  a JSON-lines snapshot time series with size-based rotation;
  ``serve`` runs the HTTP exporter sidecar).
* ``trace``     -- record client span files against a served cluster,
  then stitch them with the nodes' flight-recorder dumps into causal
  per-operation timelines (``show`` / ``slow``).
* ``top``       -- live terminal dashboard: per-node health, frame
  rates and windowed per-phase latency percentiles.
* ``load``      -- open-loop multi-process load generator with honest
  latency, merged per-worker histograms and an SLO sweep
  (``load-worker`` is its internal per-process entry point).
* ``keys``      -- inspect a sharded keyspace: placement stats, the
  group serving one key, and rebalance dry-runs.
* ``algorithms`` -- list the implemented algorithms and their bounds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal as signal_module
import sys
from typing import Dict, List, Optional

from repro.chaos import PROCESS_SCHEDULES, SCHEDULES, run_soak

from repro.byzantine.scenarios import (
    theorem3_regularity_violation,
    theorem5_bsr_below_bound,
    theorem6_bcsr_below_bound,
)
from repro.consistency import check_regularity, check_safety
from repro.core.register import RegisterSystem
from repro.metrics import format_table, summarize_trace
from repro.sim.delays import UniformDelay
from repro.sim.rng import SimRng
from repro.modelcheck import ModelChecker
from repro.modelcheck.scenarios import all_quorum_pairs, bsr_read_stage
from repro.workloads import WorkloadSpec, apply_schedule, generate_schedule


def _cmd_algorithms(args: argparse.Namespace) -> int:
    # Generated from the protocol registry: registering a plugin is all
    # it takes to appear here (and everywhere else).
    from repro.protocols import specs

    rows = [
        (spec.name, spec.quorum_rule, f"n >= {spec.min_servers(1)} @ f=1",
         spec.read_rounds, spec.fault_model, spec.description)
        for spec in specs()
    ]
    print(format_table(("algorithm", "min servers", "example", "read rounds",
                        "faults", "summary"), rows))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    system = RegisterSystem(args.algorithm, f=args.f, seed=args.seed,
                            delay_model=UniformDelay(0.5, 2.0))
    system.write(b"paper", writer=0, at=0.0)
    system.write(b"rocks", writer=1, at=10.0)
    read = system.read(reader=0, at=20.0)
    trace = system.run()
    print(trace.format())
    print(f"\nread returned: {read.value!r} in {read.rounds} round(s), "
          f"{read.latency:.2f}s simulated")
    print(check_safety(trace))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.name == "t3":
        result = theorem3_regularity_violation(args.algorithm or "bsr",
                                               seed=args.seed)
    elif args.name == "t5":
        result = theorem5_bsr_below_bound(n=args.n, seed=args.seed)
    else:
        result = theorem6_bcsr_below_bound(n=args.n, seed=args.seed)
    print(result.description)
    print(result.trace.format())
    print(f"\nread returned: {result.read_value!r}")
    print(result.safety)
    print(result.regularity)
    for violation in result.safety.violations + result.regularity.violations:
        print(f"  - {violation}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(num_ops=args.ops, read_ratio=args.read_ratio,
                        value_size=args.value_size,
                        mean_interarrival=args.interarrival)
    rng = SimRng(args.seed, "cli-workload")
    schedule = generate_schedule(spec, rng)
    system = RegisterSystem(args.algorithm, f=args.f, seed=args.seed,
                            num_writers=spec.num_writers,
                            num_readers=spec.num_readers,
                            delay_model=UniformDelay(0.5, 2.0))
    apply_schedule(system, schedule)
    trace = system.run()
    summaries = summarize_trace(trace)
    rows = []
    for kind, summary in summaries.items():
        lat = summary.latency
        rows.append((kind, lat.count, f"{lat.mean:.3f}", f"{lat.p50:.3f}",
                     f"{lat.p99:.3f}", f"{summary.mean_rounds:.2f}"))
    print(format_table(
        ("op", "count", "mean(s)", "p50(s)", "p99(s)", "rounds"), rows,
        title=f"{args.algorithm}: {args.ops} ops, {args.read_ratio:.1%} reads",
    ))
    safety = check_safety(trace)
    print(safety)
    return 0 if safety.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    client_kwargs = ({"max_inflight": args.max_inflight}
                     if args.max_inflight is not None else None)
    result = asyncio.run(run_soak(
        algorithm=args.algorithm, f=args.f, schedule=args.schedule,
        ops=args.ops, read_ratio=args.read_ratio,
        value_size=args.value_size, seed=args.seed, period=args.period,
        timeout=args.timeout, procs=args.procs,
        max_history=args.max_history, concurrency=args.concurrency,
        keys=args.keys, zipf_s=args.zipf_s,
        client_kwargs=client_kwargs,
        timeseries_path=args.timeseries,
        timeseries_interval=args.timeseries_interval,
    ))
    backend = "OS processes" if result.procs else "in-process cluster"
    print(f"nemesis schedule {args.schedule!r} (seed {args.seed}, "
          f"{backend}):")
    for event in result.nemesis_events or ["  (no faults)"]:
        print(f"  {event}")
    if result.fault_counts:
        injected = ", ".join(f"{kind}={count}" for kind, count
                             in sorted(result.fault_counts.items()))
        print(f"frames faulted: {injected}")
    rows = []
    for kind, summary in result.latency_summary().items():
        lat = summary.latency
        rows.append((kind, lat.count, f"{lat.mean * 1000:.1f}",
                     f"{lat.p50 * 1000:.1f}", f"{lat.p99 * 1000:.1f}"))
    print(format_table(
        ("op", "count", "mean(ms)", "p50(ms)", "p99(ms)"), rows,
        title=f"{args.algorithm} under {args.schedule}: "
              f"{result.ops_completed} ops in {result.wall_time:.1f}s",
    ))
    phase_rows = []
    for op, phases in sorted(result.phase_summary().items()):
        for phase, lat in sorted(phases.items()):
            phase_rows.append((op, phase, lat.count,
                               f"{lat.mean * 1000:.1f}",
                               f"{lat.p50 * 1000:.1f}",
                               f"{lat.p95 * 1000:.1f}",
                               f"{lat.p99 * 1000:.1f}"))
    if phase_rows:
        print(format_table(
            ("op", "phase", "count", "mean(ms)", "p50(ms)", "p95(ms)",
             "p99(ms)"), phase_rows,
            title="per-phase latency (live histograms)"))
    outcomes = result.outcome_counts()
    if outcomes:
        rendered = "; ".join(
            f"{op} " + ",".join(f"{o}={c}"
                                for o, c in sorted(counts.items()))
            for op, counts in sorted(outcomes.items()))
        print(f"op outcomes: {rendered}")
    for client_id, stats in sorted(result.client_stats.items()):
        interesting = {k: v for k, v in sorted(stats.items()) if v}
        print(f"  {client_id}: {interesting}")
    if result.snapshot_bytes:
        total = sum(result.snapshot_bytes.values())
        print(f"snapshots: {total} bytes across "
              f"{len(result.snapshot_bytes)} nodes")
    for error in result.errors:
        print(f"  LIVENESS FAILURE: {error}")
    print(result.safety)
    return 0 if result.ok else 1


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.deploy import ClusterSpec, serve_node

    spec = ClusterSpec.from_file(args.spec)
    try:
        asyncio.run(serve_node(spec, args.node, port=args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _parse_signal(name: str) -> int:
    """``KILL`` / ``SIGKILL`` / ``9`` -> the signal number."""
    if name.isdigit():
        return int(name)
    upper = name.upper()
    if not upper.startswith("SIG"):
        upper = "SIG" + upper
    try:
        return getattr(signal_module, upper)
    except AttributeError:
        raise SystemExit(f"unknown signal {name!r}")


def _print_cluster_status(rows) -> None:
    print(format_table(("node", "pid", "address", "state", "restarts"), rows))


def _phases_from_snapshot(snapshot: Dict,
                          node: Optional[str] = None) -> Dict[str, Dict]:
    """Per-phase latency digests from a registry snapshot.

    Summarizes every ``node_phase_seconds`` histogram (optionally
    filtered to one ``node`` label) into
    ``{phase: {count, p50, p95, p99, mean}}`` -- the shape
    ``cluster status --json --metrics`` reports per node.
    """
    from repro.obs import summarize_histogram_snapshot

    phases: Dict[str, Dict] = {}
    for entry in snapshot.get("histograms", ()):
        if entry.get("name") != "node_phase_seconds":
            continue
        labels = entry.get("labels", {})
        if node is not None and labels.get("node") != node:
            continue
        summary = summarize_histogram_snapshot(entry)
        if summary.count:
            phases[labels.get("phase", "")] = {
                "count": summary.count,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
            }
    return phases


def _state_addresses(state: Dict) -> Dict[str, tuple]:
    """``{node: (host, port)}`` for every bound node in a state file."""
    return {node: (info["host"], info["port"])
            for node, info in sorted(state["nodes"].items())
            if info.get("port")}


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.deploy import (
        ClusterSpec,
        ClusterSupervisor,
        PING_FAILURES,
        default_state_path,
        health_ping,
        read_state,
        stats_ping,
    )

    spec = ClusterSpec.from_file(args.spec)
    state_path = args.state or default_state_path(spec, args.spec)

    if args.cluster_command == "serve":
        async def serve() -> None:
            supervisor = ClusterSupervisor(spec, spec_path=args.spec,
                                           state_path=state_path)
            await supervisor.start()
            rows = [(s["node"], s["pid"],
                     "{}:{}".format(*s["address"]), "up", s["restarts"])
                    for s in supervisor.status()]
            _print_cluster_status(rows)
            print(f"state file: {supervisor.state_path}")
            try:
                if args.duration > 0:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()  # until Ctrl-C
            finally:
                await supervisor.stop()

        try:
            asyncio.run(serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        return 0

    if args.cluster_command == "status":
        state = read_state(state_path)
        auth = spec.authenticator()

        async def probe() -> List[Dict]:
            nodes = []
            for node, info in sorted(state["nodes"].items()):
                pid = info.get("pid")
                alive = False
                if pid:
                    try:
                        os.kill(pid, 0)
                        alive = True
                    except (OSError, ProcessLookupError):
                        alive = False
                health = None
                if info.get("port"):
                    try:
                        ack = await health_ping((info["host"], info["port"]),
                                                auth, timeout=args.timeout)
                        health = {
                            "history_len": ack.history_len,
                            "frames": ack.frames,
                            "throttled": ack.throttled,
                            "snapshot_age": ack.snapshot_age,
                        }
                        if getattr(ack, "keys_resident", -1) >= 0:
                            # Sharded nodes report RegisterTable occupancy.
                            health["keys_resident"] = ack.keys_resident
                            health["keys_archived"] = ack.keys_archived
                            health["rehydrations"] = ack.rehydrations
                    except PING_FAILURES:
                        health = None
                entry = {
                    "node": node,
                    "pid": pid,
                    "address": f"{info.get('host')}:{info.get('port')}",
                    "state": ("healthy" if health is not None
                              else "running" if alive else "down"),
                    "restarts": info.get("restarts", 0),
                    "health": health,
                }
                if args.metrics and health is not None:
                    try:
                        ack = await stats_ping((info["host"], info["port"]),
                                               auth, timeout=args.timeout)
                        entry["phases"] = _phases_from_snapshot(
                            ack.metrics or {}, node=node)
                    except PING_FAILURES:
                        entry["phases"] = {}
                nodes.append(entry)
            return nodes

        nodes = asyncio.run(probe())
        ok = all(entry["state"] == "healthy" for entry in nodes)
        if args.json:
            print(json.dumps({"ok": ok, "nodes": nodes}, indent=2,
                             sort_keys=True))
            return 0 if ok else 1
        _print_cluster_status([
            (entry["node"], entry["pid"], entry["address"], entry["state"],
             entry["restarts"])
            for entry in nodes
        ])
        for entry in nodes:
            health = entry.get("health")
            if health is not None:
                age = health["snapshot_age"]
                rendered_age = f"{age:.1f}s" if age >= 0 else "none"
                occupancy = ""
                if "keys_resident" in health:
                    occupancy = (
                        f" keys={health['keys_resident']}"
                        f"(+{health['keys_archived']} demoted)"
                        f" rehydrations={health['rehydrations']}")
                print(f"  {entry['node']}: history={health['history_len']} "
                      f"frames={health['frames']} "
                      f"throttled={health['throttled']} "
                      f"snapshot_age={rendered_age}{occupancy}")
            for phase, digest in sorted(entry.get("phases", {}).items()):
                print(f"    {phase}: count={digest['count']} "
                      f"p50={digest['p50'] * 1000:.1f}ms "
                      f"p95={digest['p95'] * 1000:.1f}ms "
                      f"p99={digest['p99'] * 1000:.1f}ms")
        return 0 if ok else 1

    # kill
    state = read_state(state_path)
    info = state["nodes"].get(args.node)
    if info is None or not info.get("pid"):
        print(f"node {args.node!r} not found in {state_path}")
        return 1
    signum = _parse_signal(args.signal)
    os.kill(info["pid"], signum)
    print(f"sent signal {signum} to node {args.node} (pid {info['pid']})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.deploy import (
        ClusterSpec,
        PING_FAILURES,
        default_state_path,
        read_state,
        stats_ping,
        trace_dump,
    )
    from repro.obs import SnapshotLog, merge_snapshots, render_prometheus

    spec = ClusterSpec.from_file(args.spec)
    state_path = args.state or default_state_path(spec, args.spec)
    state = read_state(state_path)
    auth = spec.authenticator()

    async def scrape_all() -> List[Dict]:
        snapshots = []
        for node, info in sorted(state["nodes"].items()):
            if not info.get("port"):
                continue
            try:
                ack = await stats_ping((info["host"], info["port"]), auth,
                                       timeout=args.timeout)
            except PING_FAILURES:
                print(f"# node {node} unreachable, skipped",
                      file=sys.stderr)
                continue
            if ack.metrics:
                snapshots.append(ack.metrics)
        return snapshots

    if args.metrics_command == "serve":
        import time as time_module

        from repro.obs import MetricsExporter

        addresses = _state_addresses(state)

        def scrape() -> List[Dict]:
            async def gather_all() -> List[Dict]:
                results = await asyncio.gather(
                    *(stats_ping(address, auth, timeout=args.timeout)
                      for address in addresses.values()),
                    return_exceptions=True)
                return [ack.metrics for ack in results
                        if not isinstance(ack, BaseException)
                        and ack.metrics]
            return asyncio.run(gather_all())

        def lookup(op_id: int) -> List[Dict]:
            async def gather_all() -> List[Dict]:
                results = await asyncio.gather(
                    *(trace_dump(address, auth, target_op=op_id,
                                 timeout=args.timeout)
                      for address in addresses.values()),
                    return_exceptions=True)
                records: List[Dict] = []
                for ack in results:
                    if isinstance(ack, BaseException):
                        continue
                    records.extend(dict(r) for r in ack.records or ())
                return records
            return asyncio.run(gather_all())

        exporter = MetricsExporter(scrape, trace_lookup=lookup,
                                   host=args.host, port=args.port)
        host, port = exporter.start()
        print(f"exporter on http://{host}:{port}/metrics "
              f"({len(addresses)} nodes; /metrics.json /traces/<op_id> "
              f"/healthz)")
        try:
            if args.duration > 0:
                time_module.sleep(args.duration)
            else:
                while True:  # pragma: no cover - interactive loop
                    time_module.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            exporter.stop()
        return 0

    if args.watch:
        # Time-series sidecar: one JSON line per scrape interval,
        # appended to --out (or streamed to stdout).
        import time as time_module

        log = SnapshotLog(args.out if args.out else sys.stdout,
                          max_bytes=(args.max_bytes
                                     if args.out and args.max_bytes else None),
                          keep=args.keep, windows=args.windows)
        scrapes = 0
        try:
            while True:
                snapshots = asyncio.run(scrape_all())
                if snapshots:
                    log.append(merge_snapshots(snapshots),
                               ts=time_module.time(),
                               extra={"nodes": len(snapshots)})
                scrapes += 1
                if args.count and scrapes >= args.count:
                    break
                time_module.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            log.close()
        if args.out:
            print(f"appended {log.lines} snapshots to {args.out}",
                  file=sys.stderr)
        return 0

    snapshots = asyncio.run(scrape_all())
    if not snapshots:
        print("no node answered a stats ping", file=sys.stderr)
        return 1
    merged = merge_snapshots(snapshots)
    if args.format == "json":
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_prometheus(merged))
    return 0


def _load_client_spans(path: str) -> List[Dict]:
    """Client span records from a ``--trace`` JSONL file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


async def _scrape_flights(addresses: Dict, auth, timeout: float,
                          target_op: int = -1) -> List[Dict]:
    """Fan a TraceDump over every node; unreachable nodes are skipped."""
    from repro.deploy import trace_dump

    results = await asyncio.gather(
        *(trace_dump(address, auth, target_op=target_op, timeout=timeout)
          for address in addresses.values()),
        return_exceptions=True)
    records: List[Dict] = []
    for node, ack in zip(addresses, results):
        if isinstance(ack, BaseException):
            print(f"# node {node} unreachable, skipped", file=sys.stderr)
            continue
        records.extend(dict(r) for r in ack.records or ())
    return records


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.deploy import ClusterSpec, default_state_path, read_state
    from repro.obs import (
        JsonlSink,
        MemorySink,
        SamplingSink,
        format_timeline,
        slowest,
        stitch,
        stitch_op,
    )

    spec = ClusterSpec.from_file(args.spec)
    state_path = args.state or default_state_path(spec, args.spec)
    state = read_state(state_path)
    addresses = _state_addresses(state)
    auth = spec.authenticator()

    if args.trace_command == "record":
        import random as random_module

        memory = MemorySink()
        jsonl = JsonlSink(args.out)

        class Tee:
            def emit(self, record: Dict) -> None:
                jsonl.emit(record)
                memory.emit(record)

            def close(self) -> None:
                jsonl.close()

        sink = SamplingSink(Tee(), args.sample)
        rng = random_module.Random(args.seed)

        async def record() -> None:
            client = spec.client("t000", addresses=addresses,
                                 timeout=args.timeout, trace_sink=sink)
            await client.connect()
            try:
                for index in range(args.ops):
                    if index == 0 or rng.random() >= args.read_ratio:
                        value = f"trace-{args.seed}:{index}".encode()
                        await client.write(value.ljust(args.value_size, b"."))
                    else:
                        await client.read()
            finally:
                await client.close()

        asyncio.run(record())
        sink.close()
        op_ids = [r.get("op_id") for r in memory.records]
        print(f"recorded {len(op_ids)} sampled client spans to {args.out} "
              f"(1-in-{args.sample} of {args.ops} ops)")
        if op_ids:
            shown = ", ".join(str(op) for op in op_ids[:12])
            more = " ..." if len(op_ids) > 12 else ""
            print(f"op_ids: {shown}{more}")
            print(f"next: repro trace show {op_ids[-1]} "
                  f"--trace {args.out} --spec {args.spec}")
        return 0

    client_records = _load_client_spans(args.trace)

    if args.trace_command == "show":
        server_records = asyncio.run(_scrape_flights(
            addresses, auth, args.timeout, target_op=args.op_id))
        op = stitch_op(args.op_id, client_records, server_records)
        if op is None:
            print(f"no client span for op {args.op_id} in {args.trace} "
                  f"(sampled out, or never issued?)", file=sys.stderr)
            return 1
        print(format_timeline(op))
        return 0

    # slow --top N
    server_records = asyncio.run(_scrape_flights(
        addresses, auth, args.timeout))
    stitched = stitch(client_records, server_records)
    if not stitched:
        print(f"no stitchable spans in {args.trace}", file=sys.stderr)
        return 1
    rows = []
    for op in slowest(stitched, top=args.top):
        rows.append((op.op_id, op.kind, op.client, op.outcome,
                     f"{op.latency * 1000:.2f}", op.dominant_phase,
                     len(op.servers),
                     ",".join(op.missing_servers) or "-",
                     ",".join(op.held_servers) or "-"))
    print(format_table(
        ("op", "kind", "client", "outcome", "latency(ms)",
         "dominant phase", "server records", "missing", "held"), rows,
        title=f"slowest {len(rows)} of {len(stitched)} stitched ops"))
    print(f"drill in: repro trace show <op> --trace {args.trace} "
          f"--spec {args.spec}")
    return 0


def _phase_windows(prev: Dict, cur: Dict) -> Dict[str, Dict]:
    """Per-phase ``{count, p50, p99}`` deltas between two merged scrapes.

    Entries are matched per ``(phase, node)`` so each node's cumulative
    histogram subtracts against its own previous scrape; a shrunk count
    (node restart) falls back to the cumulative values.
    """
    from repro.obs import bucket_percentile

    def index(snapshot: Dict) -> Dict:
        out = {}
        for entry in snapshot.get("histograms", ()):
            if entry.get("name") != "node_phase_seconds":
                continue
            labels = entry.get("labels", {})
            out[(labels.get("phase", ""), labels.get("node", ""))] = entry
        return out

    prev_idx, phases = index(prev), {}
    for (phase, node), entry in index(cur).items():
        counts = list(entry["counts"])
        old = prev_idx.get((phase, node))
        if old is not None and len(old["counts"]) == len(counts):
            deltas = [c - p for c, p in zip(counts, old["counts"])]
            if all(d >= 0 for d in deltas):
                counts = deltas
        agg = phases.setdefault(phase, {
            "bounds": list(entry["buckets"]),
            "counts": [0] * len(counts),
            "max": float(entry.get("max", 0.0)),
        })
        if (agg["bounds"] == list(entry["buckets"])
                and len(agg["counts"]) == len(counts)):
            agg["counts"] = [a + c for a, c in zip(agg["counts"], counts)]
            agg["max"] = max(agg["max"], float(entry.get("max", 0.0)))
    out = {}
    for phase, agg in sorted(phases.items()):
        total = sum(agg["counts"])
        if total:
            out[phase] = {
                "count": total,
                "p50": bucket_percentile(agg["bounds"], agg["counts"],
                                         0.50, agg["max"]),
                "p99": bucket_percentile(agg["bounds"], agg["counts"],
                                         0.99, agg["max"]),
            }
    return out


def _cmd_top(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.deploy import (
        ClusterSpec,
        PING_FAILURES,
        default_state_path,
        health_ping,
        read_state,
        stats_ping,
    )
    from repro.obs import merge_snapshots

    spec = ClusterSpec.from_file(args.spec)
    state_path = args.state or default_state_path(spec, args.spec)
    state = read_state(state_path)
    addresses = _state_addresses(state)
    auth = spec.authenticator()

    async def scrape():
        acks, snapshots = {}, []
        for node, address in addresses.items():
            try:
                acks[node] = await health_ping(address, auth,
                                               timeout=args.timeout)
            except PING_FAILURES:
                acks[node] = None
                continue
            try:
                sack = await stats_ping(address, auth, timeout=args.timeout)
                if sack.metrics:
                    snapshots.append(sack.metrics)
            except PING_FAILURES:
                pass
        return acks, merge_snapshots(snapshots)

    prev_frames: Dict[str, int] = {}
    prev_merged: Dict = {}
    prev_at: Optional[float] = None
    scrapes = 0
    try:
        while True:
            acks, merged = asyncio.run(scrape())
            now = time_module.time()
            elapsed = (now - prev_at) if prev_at is not None else None
            if not args.no_clear and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            healthy = sum(1 for ack in acks.values() if ack is not None)
            print(f"repro top -- {spec.algorithm} f={spec.f} "
                  f"{healthy}/{len(addresses)} nodes healthy -- "
                  f"scrape #{scrapes + 1} every {args.interval:.1f}s")
            rows = []
            for node, ack in acks.items():
                if ack is None:
                    rows.append((node, "down", "-", "-", "-", "-", "-"))
                    continue
                rate = "-"
                if elapsed and node in prev_frames:
                    rate = f"{(ack.frames - prev_frames[node]) / elapsed:.1f}"
                occupancy = "-"
                if getattr(ack, "keys_resident", -1) >= 0:
                    occupancy = (f"{ack.keys_resident}"
                                 f"+{ack.keys_archived}d"
                                 f"/{ack.rehydrations}r")
                rows.append((node, "healthy", ack.frames, rate,
                             ack.throttled, ack.history_len, occupancy))
                prev_frames[node] = ack.frames
            print(format_table(
                ("node", "state", "frames", "frames/s", "throttled",
                 "history", "keys"), rows))
            windows = _phase_windows(prev_merged, merged)
            if windows:
                window_rows = [
                    (phase, digest["count"],
                     f"{digest['p50'] * 1000:.2f}",
                     f"{digest['p99'] * 1000:.2f}")
                    for phase, digest in windows.items()]
                label = (f"last {elapsed:.1f}s" if elapsed is not None
                         else "since start")
                print(format_table(
                    ("phase", "count", "p50(ms)", "p99(ms)"), window_rows,
                    title=f"server phase latency ({label})"))
            prev_merged, prev_at = merged, now
            scrapes += 1
            if args.count and scrapes >= args.count:
                break
            time_module.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.load import LoadProfile, SloPolicy, parse_mix, run_load

    profile = LoadProfile(
        users=args.users, rps=args.rps, read_ratio=parse_mix(args.mix),
        keys=args.keys, zipf_s=args.zipf_s, value_size=args.value_size,
        duration=args.duration, warmup=args.warmup, cooldown=args.cooldown,
        seed=args.seed, timeout=args.timeout, algorithm=args.algorithm,
        f=args.f, n=args.n, clients_per_worker=args.clients_per_worker,
        max_history=args.max_history,
    )
    slo = SloPolicy(p99_ms=args.slo_p99_ms,
                    max_error_rate=args.slo_error_rate)
    sweep = ("none" if args.no_sweep
             else "binary" if args.sweep else "step")
    report = asyncio.run(run_load(
        profile, procs=args.procs, workers=args.workers, slo=slo,
        sweep=sweep, sweep_duration=args.sweep_duration,
        inline=args.inline, timeseries_path=args.timeseries,
    ))
    print(report.format())
    if args.out:
        report.write(args.out)
        print(f"wrote {args.out}")
    return 0 if report.safety_ok else 1


def _cmd_load_worker(args: argparse.Namespace) -> int:
    from repro.load import worker_main

    return worker_main()


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.deploy import ClusterSpec
    from repro.sharding import HashRing, key_name

    spec = ClusterSpec.from_file(args.spec)
    config = spec.keyspace_config()
    if config is None:
        print(f"spec {args.spec} has no [keyspace] block; this is a "
              "single-register deployment", file=sys.stderr)
        return 1
    ring = spec.ring()

    if args.keys_command == "locate":
        group = spec.locate(args.key)
        print(f"key {args.key!r}")
        print(f"  ring point: {ring.key_point(args.key):#018x}")
        print(f"  primary:    {ring.primary(args.key)}")
        print(f"  group:      {', '.join(str(node) for node in group)} "
              f"(size {config.group_size}, f={spec.f})")
        return 0

    sample = [key_name(i) for i in range(args.sample)]

    if args.keys_command == "stats":
        share = ring.load_share(sample, config.group_size)
        expected = args.sample * config.group_size / spec.n
        rows = [(str(node), count, f"{count / expected:.2f}x")
                for node, count in sorted(share.items())]
        print(format_table(
            ("node", "keys hosted", "vs. even share"), rows,
            title=f"{spec.n} nodes, group_size={config.group_size}, "
                  f"vnodes={config.vnodes}, seed={config.seed}; "
                  f"{args.sample} sampled keys"))
        print(f"placement fingerprint: "
              f"{ring.fingerprint(sample, config.group_size)[:16]}")
        return 0

    # rebalance --dry-run: compare against the ring with nodes added
    # and/or removed.  Only the dry run exists -- live data migration is
    # out of scope (a moved key rebuilds from its new group's writes).
    if not args.dry_run:
        print("only --dry-run is supported: this computes which keys "
              "would change groups, it does not migrate data",
              file=sys.stderr)
        return 1
    nodes = list(ring.nodes)
    for node in args.remove:
        if node not in nodes:
            print(f"cannot remove unknown node {node!r}", file=sys.stderr)
            return 1
        nodes.remove(node)
    next_index = spec.n
    for _ in range(args.add):
        nodes.append(f"s{next_index:03d}")
        next_index += 1
    if len(nodes) < config.group_size:
        print(f"{len(nodes)} nodes cannot host groups of "
              f"{config.group_size}", file=sys.stderr)
        return 1
    target = HashRing(nodes, vnodes=config.vnodes, seed=config.seed)
    moved = ring.moved_keys(target, sample, config.group_size)
    print(f"fleet {len(ring.nodes)} -> {len(nodes)} nodes "
          f"(+{args.add}/-{len(args.remove)}); groups of "
          f"{config.group_size}")
    print(f"  {len(moved)} of {args.sample} sampled keys change groups "
          f"({len(moved) / args.sample:.1%}); a full reshuffle would "
          f"move ~100%")
    for key in moved[:args.show]:
        print(f"    {key}: "
              f"{'+'.join(str(n) for n in ring.group(key, config.group_size))}"
              f" -> "
              f"{'+'.join(str(n) for n in target.group(key, min(config.group_size, len(nodes))))}")
    if len(moved) > args.show:
        print(f"    ... {len(moved) - args.show} more")
    return 0


def _cmd_modelcheck(args: argparse.Namespace) -> int:
    n, f = args.n, args.f
    print(f"model-checking the BSR read stage at n={n}, f={f} "
          f"(bound: n >= {4 * f + 1})")
    rows = []
    violating = 0
    for w1, w2 in all_quorum_pairs(n, f):
        factory, predicate = bsr_read_stage(n, f, w1, w2)
        checker = ModelChecker(factory, predicate, max_states=args.max_states)
        if args.exhaustive:
            report = checker.verify()
            outcome = ("OK" if report.ok else "VIOLATED")
            if report.truncated:
                outcome += " (truncated)"
            detail = f"{report.states_explored} states"
        else:
            found = checker.find_violation()
            outcome = "VIOLATION FOUND" if found else "safe"
            detail = found[0] if found else ""
        if "VIOLAT" in outcome:
            violating += 1
        rows.append((str(w1), str(w2), outcome, detail))
    print(format_table(("W1 quorum", "W2 quorum", "outcome", "detail"), rows))
    print(f"\n{violating} of {len(rows)} quorum pairs admit a violation")
    return 0 if (violating == 0) == (n >= 4 * f + 1) else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.protocols import names
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semi-fast Byzantine-tolerant shared registers "
                    "(ICDCS 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list implemented algorithms")

    demo = sub.add_parser("demo", help="run a tiny write/read execution")
    demo.add_argument("--algorithm", default="bsr", choices=names())
    demo.add_argument("--f", type=int, default=1)
    demo.add_argument("--seed", type=int, default=0)

    scenario = sub.add_parser("scenario", help="replay a proof execution")
    scenario.add_argument("name", choices=("t3", "t5", "t6"))
    scenario.add_argument("--algorithm", default=None,
                          help="register variant for t3 (bsr / bsr-history / "
                               "bsr-2round)")
    scenario.add_argument("--n", type=int, default=None,
                          help="server count for t5/t6 (default: below the bound)")
    scenario.add_argument("--seed", type=int, default=0)

    workload = sub.add_parser("workload", help="run a synthetic workload")
    workload.add_argument("--algorithm", default="bsr", choices=names())
    workload.add_argument("--f", type=int, default=1)
    workload.add_argument("--ops", type=int, default=200)
    workload.add_argument("--read-ratio", type=float, default=0.9)
    workload.add_argument("--value-size", type=int, default=64)
    workload.add_argument("--interarrival", type=float, default=1.0)
    workload.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="run a workload on a live TCP cluster under a nemesis "
             "fault schedule and check safety + liveness",
    )
    chaos.add_argument("--algorithm", default="bsr", choices=names())
    chaos.add_argument("--schedule", default="combo", choices=SCHEDULES)
    chaos.add_argument("--f", type=int, default=1)
    chaos.add_argument("--ops", type=int, default=40)
    chaos.add_argument("--read-ratio", type=float, default=0.6)
    chaos.add_argument("--value-size", type=int, default=32)
    chaos.add_argument("--period", type=float, default=0.8,
                       help="seconds per nemesis fault window")
    chaos.add_argument("--timeout", type=float, default=15.0,
                       help="per-operation liveness timeout")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--procs", action="store_true",
                       help="run against real OS processes (SIGKILL "
                            f"crashes; schedules {PROCESS_SCHEDULES})")
    chaos.add_argument("--max-history", type=int, default=None,
                       help="bound the history list of history-serving "
                            "(bsr-history, bsr-2round) and Byzantine "
                            "servers; other correct servers keep one pair")
    chaos.add_argument("--concurrency", type=int, default=1,
                       help="in-flight operations per client (1 = the "
                            "classic closed loop)")
    chaos.add_argument("--max-inflight", type=int, default=None,
                       help="client-side admission cap on concurrently "
                            "executing operations")
    chaos.add_argument("--keys", type=int, default=1,
                       help="distinct keys the workload spans (>1 turns "
                            "the cluster into a sharded keyspace and "
                            "checks safety per register)")
    chaos.add_argument("--zipf-s", type=float, default=0.99,
                       help="Zipf exponent for key popularity "
                            "(0 = uniform)")
    chaos.add_argument("--timeseries", default=None,
                       help="append windowed registry snapshots (JSON "
                            "lines with per-interval percentile deltas) "
                            "to this file during the soak")
    chaos.add_argument("--timeseries-interval", type=float, default=1.0,
                       help="seconds between --timeseries snapshots")

    node = sub.add_parser(
        "node", help="serve a single register node in this process")
    node_sub = node.add_subparsers(dest="node_command", required=True)
    node_serve = node_sub.add_parser(
        "serve", help="host one node from a cluster spec until SIGTERM")
    node_serve.add_argument("--spec", required=True,
                            help="cluster spec file (.toml or .json)")
    node_serve.add_argument("--node", required=True,
                            help="node id to serve (e.g. s002)")
    node_serve.add_argument("--port", type=int, default=None,
                            help="override the spec's port (supervisors pin "
                                 "a restarted node's previous port)")

    cluster = sub.add_parser(
        "cluster",
        help="serve / inspect / signal a process-per-node cluster",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)
    cluster_serve = cluster_sub.add_parser(
        "serve", help="spawn one OS process per node and supervise them")
    cluster_serve.add_argument("--spec", required=True)
    cluster_serve.add_argument("--state", default=None,
                               help="state file path (default: next to "
                                    "snapshots / the spec)")
    cluster_serve.add_argument("--duration", type=float, default=0.0,
                               help="serve for N seconds then exit "
                                    "(0 = until Ctrl-C)")
    cluster_status = cluster_sub.add_parser(
        "status", help="health-ping every node of a served cluster")
    cluster_status.add_argument("--spec", required=True)
    cluster_status.add_argument("--state", default=None)
    cluster_status.add_argument("--timeout", type=float, default=2.0)
    cluster_status.add_argument("--metrics", action="store_true",
                                help="scrape each node's registry and show "
                                     "per-phase latency histograms")
    cluster_status.add_argument("--json", action="store_true",
                                help="machine-readable status document")
    cluster_kill = cluster_sub.add_parser(
        "kill", help="signal one node process of a served cluster")
    cluster_kill.add_argument("--spec", required=True)
    cluster_kill.add_argument("--state", default=None)
    cluster_kill.add_argument("--node", required=True)
    cluster_kill.add_argument("--signal", default="KILL",
                              help="signal name or number (default KILL)")

    metrics = sub.add_parser(
        "metrics",
        help="scrape a served cluster's metrics (Prometheus text or JSON)",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command",
                                         required=True)
    metrics_dump = metrics_sub.add_parser(
        "dump", help="scrape every node and print the merged registry")
    metrics_dump.add_argument("--spec", required=True)
    metrics_dump.add_argument("--state", default=None)
    metrics_dump.add_argument("--timeout", type=float, default=2.0)
    metrics_dump.add_argument("--format", default="prometheus",
                              choices=("prometheus", "json"))
    metrics_dump.add_argument("--watch", action="store_true",
                              help="scrape periodically and append one "
                                   "JSON line per interval (time-series "
                                   "sidecar)")
    metrics_dump.add_argument("--interval", type=float, default=2.0,
                              help="seconds between --watch scrapes")
    metrics_dump.add_argument("--count", type=int, default=0,
                              help="stop --watch after N scrapes "
                                   "(0 = until Ctrl-C)")
    metrics_dump.add_argument("--out", default=None,
                              help="append --watch lines to this file "
                                   "(default: stdout)")
    metrics_dump.add_argument("--max-bytes", type=int, default=None,
                              help="rotate the --watch --out file when it "
                                   "would exceed this size (keeps "
                                   "--keep segments)")
    metrics_dump.add_argument("--keep", type=int, default=4,
                              help="rotated segments to retain "
                                   "(file.1 .. file.N)")
    metrics_dump.add_argument("--windows", action="store_true",
                              help="attach per-interval histogram deltas "
                                   "to every --watch line (read back "
                                   "with read_snapshot_log(windows=True))")
    metrics_serve = metrics_sub.add_parser(
        "serve", help="HTTP exporter sidecar: /metrics /metrics.json "
                      "/traces/<op_id> /healthz")
    metrics_serve.add_argument("--spec", required=True)
    metrics_serve.add_argument("--state", default=None)
    metrics_serve.add_argument("--host", default="127.0.0.1")
    metrics_serve.add_argument("--port", type=int, default=9464,
                               help="listen port (0 = ephemeral)")
    metrics_serve.add_argument("--timeout", type=float, default=2.0,
                               help="per-node scrape timeout")
    metrics_serve.add_argument("--duration", type=float, default=0.0,
                               help="serve for N seconds then exit "
                                    "(0 = until Ctrl-C)")

    trace = sub.add_parser(
        "trace",
        help="record client spans and stitch them with server flight "
             "records into causal per-op timelines",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_record = trace_sub.add_parser(
        "record", help="run a small traced workload against a served "
                       "cluster, appending sampled client spans to a file")
    trace_record.add_argument("--spec", required=True)
    trace_record.add_argument("--state", default=None)
    trace_record.add_argument("--out", required=True,
                              help="client span JSONL file to append to")
    trace_record.add_argument("--ops", type=int, default=20)
    trace_record.add_argument("--read-ratio", type=float, default=0.5)
    trace_record.add_argument("--value-size", type=int, default=32)
    trace_record.add_argument("--sample", type=int, default=1,
                              help="client-side sampling modulus (match "
                                   "the spec's observability.trace_sample "
                                   "so both halves keep the same ops)")
    trace_record.add_argument("--seed", type=int, default=0)
    trace_record.add_argument("--timeout", type=float, default=10.0)
    trace_show = trace_sub.add_parser(
        "show", help="stitched causal timeline for one operation")
    trace_show.add_argument("op_id", type=int)
    trace_show.add_argument("--trace", required=True,
                            help="client span JSONL (from trace record or "
                                 "a client trace_sink)")
    trace_show.add_argument("--spec", required=True)
    trace_show.add_argument("--state", default=None)
    trace_show.add_argument("--timeout", type=float, default=2.0)
    trace_slow = trace_sub.add_parser(
        "slow", help="rank the slowest stitched operations")
    trace_slow.add_argument("--trace", required=True)
    trace_slow.add_argument("--spec", required=True)
    trace_slow.add_argument("--state", default=None)
    trace_slow.add_argument("--top", type=int, default=10)
    trace_slow.add_argument("--timeout", type=float, default=2.0)

    top = sub.add_parser(
        "top",
        help="live cluster dashboard: node health, frame rates, "
             "windowed per-phase percentiles",
    )
    top.add_argument("--spec", required=True)
    top.add_argument("--state", default=None)
    top.add_argument("--interval", type=float, default=2.0)
    top.add_argument("--count", type=int, default=0,
                     help="stop after N scrapes (0 = until Ctrl-C)")
    top.add_argument("--timeout", type=float, default=2.0)
    top.add_argument("--no-clear", action="store_true",
                     help="do not clear the terminal between scrapes")

    load = sub.add_parser(
        "load",
        help="open-loop multi-process load generator with honest latency "
             "and an SLO sweep",
    )
    load.add_argument("--users", type=int, default=200,
                      help="total concurrent sessions across all workers")
    load.add_argument("--rps", type=float, default=500.0,
                      help="target aggregate arrival rate (Poisson)")
    load.add_argument("--mix", default="90/10",
                      help="read/write mix, e.g. 90/10 (or a bare read "
                           "ratio like 0.9)")
    load.add_argument("--keys", type=int, default=64,
                      help="distinct keys (>1 shards the cluster; Zipf "
                           "popularity)")
    load.add_argument("--zipf-s", type=float, default=0.99,
                      help="Zipf exponent for key popularity (0 = uniform)")
    load.add_argument("--value-size", type=int, default=64)
    load.add_argument("--duration", type=float, default=10.0,
                      help="measured window, seconds")
    load.add_argument("--warmup", type=float, default=2.0)
    load.add_argument("--cooldown", type=float, default=0.5)
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--timeout", type=float, default=10.0,
                      help="per-operation liveness timeout")
    load.add_argument("--algorithm", default="bsr", choices=names())
    load.add_argument("--f", type=int, default=1)
    load.add_argument("--n", type=int, default=None)
    load.add_argument("--workers", type=int, default=2,
                      help="worker processes the offered load splits "
                           "across")
    load.add_argument("--clients-per-worker", type=int, default=4,
                      help="real connection sets per worker (sessions "
                           "multiplex over them)")
    load.add_argument("--max-history", type=int, default=128,
                      help="bound the per-register history of "
                           "history-serving and Byzantine servers; other "
                           "correct servers keep one pair")
    load.add_argument("--procs", action="store_true",
                      help="drive a real process-per-node cluster instead "
                           "of the in-process one")
    load.add_argument("--inline", action="store_true",
                      help="run workers as tasks in this process instead "
                           "of subprocesses (tests, smoke runs)")
    load.add_argument("--sweep", action="store_true",
                      help="binary-refine the max sustainable rate "
                           "(default: step sweep at fractions of --rps)")
    load.add_argument("--no-sweep", action="store_true",
                      help="run only the main pass, no SLO sweep")
    load.add_argument("--sweep-duration", type=float, default=None,
                      help="measured seconds per sweep pass (default: "
                           "duration/3, clamped to [3, 8])")
    load.add_argument("--slo-p99-ms", type=float, default=250.0,
                      help="SLO: honest p99 bound, milliseconds")
    load.add_argument("--slo-error-rate", type=float, default=0.005,
                      help="SLO: failed-operation share bound")
    load.add_argument("--out", default="BENCH_load.json",
                      help="write the report JSON here ('' = skip)")
    load.add_argument("--timeseries", default=None,
                      help="append per-worker snapshot JSON lines to "
                           "this file during the run")

    sub.add_parser(
        "load-worker",
        help="internal: one load-rig worker (config on stdin, JSONL out)")

    keys = sub.add_parser(
        "keys",
        help="inspect a sharded keyspace: placement stats, key location, "
             "rebalance dry-runs",
    )
    keys_sub = keys.add_subparsers(dest="keys_command", required=True)
    keys_stats = keys_sub.add_parser(
        "stats", help="per-node key share and the placement fingerprint")
    keys_stats.add_argument("--spec", required=True,
                            help="cluster spec with a [keyspace] block")
    keys_stats.add_argument("--sample", type=int, default=1000,
                            help="synthetic keys to place (key-0000 ...)")
    keys_locate = keys_sub.add_parser(
        "locate", help="which quorum group serves one key")
    keys_locate.add_argument("key", help="key name to resolve")
    keys_locate.add_argument("--spec", required=True)
    keys_rebalance = keys_sub.add_parser(
        "rebalance",
        help="dry-run a fleet change: which keys would move groups")
    keys_rebalance.add_argument("--spec", required=True)
    keys_rebalance.add_argument("--dry-run", action="store_true",
                                help="required: only the dry run exists")
    keys_rebalance.add_argument("--add", type=int, default=0,
                                help="hypothetical nodes to add")
    keys_rebalance.add_argument("--remove", action="append", default=[],
                                help="node id to remove (repeatable)")
    keys_rebalance.add_argument("--sample", type=int, default=1000,
                                help="synthetic keys to compare")
    keys_rebalance.add_argument("--show", type=int, default=5,
                                help="moved keys to list individually")

    modelcheck = sub.add_parser(
        "modelcheck",
        help="exhaustively explore read-stage schedules (Theorem 5)",
    )
    modelcheck.add_argument("--n", type=int, default=4,
                            help="server count (default 4 = below the bound)")
    modelcheck.add_argument("--f", type=int, default=1)
    modelcheck.add_argument("--exhaustive", action="store_true",
                            help="full verification instead of directed search")
    modelcheck.add_argument("--max-states", type=int, default=100_000)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "algorithms": _cmd_algorithms,
        "demo": _cmd_demo,
        "scenario": _cmd_scenario,
        "workload": _cmd_workload,
        "chaos": _cmd_chaos,
        "node": _cmd_node,
        "cluster": _cmd_cluster,
        "metrics": _cmd_metrics,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "keys": _cmd_keys,
        "load": _cmd_load,
        "load-worker": _cmd_load_worker,
        "modelcheck": _cmd_modelcheck,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; exit quietly
        # (and detach stdout so the interpreter's flush-at-exit does not
        # raise the same error again).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
