"""Layer replay: time each layer's public entry points from outside.

A layer is a module under ``src/repro/``.  The replay first builds the
workload's real message population -- by running the protocol's own
client operations against its own server state machines, in memory,
through public constructors only -- and then times each layer's public
entry points on that population.  Replies keep the object sharing the
program gives them (a server answers every read of a quiet key with the
same stored pair), so the codec caches see the hit pattern they see in
a live run.

Every probe resolves its entry points by name at call time.  A probe
whose target has been deleted or renamed reports ``None`` with a
warning; it never takes the end-to-end run down with it.

Imports are limited to what ROADMAP item 3 keeps: no ``repro.metrics``,
no v1 ``transport.codec`` API, no ``NamespacedServer``, no
``baselines``, no ``kernels=False``.  (``FrameAssembler`` has no home
outside ``transport.codec`` yet, so it is looked up in ``codec2`` first
and falls back.)
"""

from __future__ import annotations

import importlib
import random
import statistics
import struct
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from gate import Gate
from spans import Spans
from workloads import KEYSPACE, MAX_HISTORY, Workload, op_stream

#: Seconds of timing per probe (five batches share it).
PROBE_BUDGET = 0.06
BATCHES = 5

#: Operations in the replayed population.
POPULATION_OPS = 256

CLIENT = "g0"


class ProbeMissing(Exception):
    """A probe's entry point no longer exists."""


def resolve(*candidates: str) -> Any:
    """The first of ``"module:attr.path"`` candidates that exists."""
    for candidate in candidates:
        module_name, _, path = candidate.partition(":")
        try:
            target = importlib.import_module(module_name)
            for part in path.split("."):
                target = getattr(target, part)
            return target
        except (ImportError, AttributeError):
            continue
    raise ProbeMissing(" / ".join(candidates))


def per_call_us(fn: Callable[[], Any], calls: int = 1,
                budget: float = PROBE_BUDGET) -> float:
    """Median over batches of ``fn``'s time, in µs per ``calls``.

    ``fn`` performs ``calls`` entry-point calls per invocation.
    """
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= budget / BATCHES or reps >= 1 << 16:
            break
        reps *= 2
    times = [elapsed]
    for _ in range(BATCHES - 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (reps * calls) * 1e6


class Population:
    """The workload's messages, as the program itself produces them."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = w = workload
        get_spec = resolve("repro.protocols:get_spec")
        self.ServerContext = resolve("repro.protocols:ServerContext")
        self.OpContext = resolve("repro.protocols:OpContext")
        self.spec = get_spec(w.algorithm)
        self.servers: Tuple[str, ...] = tuple(
            f"s{i:03d}" for i in range(w.n))
        self.codec = (self.spec.make_codec(w.n, w.f)
                      if self.spec.make_codec is not None else None)
        self.gate = Gate(w.value_size, seed)
        self.ops = [op for op, _ in zip(op_stream(w, seed, "replay"),
                                        range(POPULATION_OPS))]
        #: (server, request) in send order / (server, reply) in reply order.
        self.requests: List[Tuple[str, Any]] = []
        self.replies: List[Tuple[str, Any]] = []
        #: One entry per client round: the distinct request objects sent.
        self.rounds: List[List[Any]] = []
        self.reader_states: Dict[Any, Any] = {}
        self.hosts = {pid: self.make_host(pid) for pid in self.servers}
        for op in self.ops:
            self._execute(op)

    # -- public-constructor builders ---------------------------------------
    def make_server(self, pid: str) -> Any:
        """One bare protocol server (what a table hosts per key)."""
        return self.spec.make_server(self.ServerContext(
            server_id=pid, index=self.servers.index(pid),
            servers=self.servers, f=self.workload.f,
            max_history=MAX_HISTORY, codec=self.codec))

    def make_host(self, pid: str, max_resident: Optional[int] = None) -> Any:
        """What a node hosts: a register table when sharded."""
        w = self.workload
        if not w.sharded:
            return self.make_server(pid)
        table = resolve("repro.sharding:RegisterTable")
        behavior = None
        name = w.byzantine.get(self.servers.index(pid))
        if name is not None:
            behavior = resolve("repro.byzantine.behaviors:make_behavior")(name)
        return table(pid, lambda key: self.make_server(pid),
                     behavior=behavior, max_resident=max_resident)

    def make_operation(self, op: Any, value: Optional[bytes] = None) -> Any:
        """The client operation the runtime would build for ``op``."""
        w = self.workload
        key = w.key(op.rank)
        if op.write:
            operation = self.spec.make_write(self.OpContext(
                client_id=CLIENT, servers=self.servers, f=w.f,
                value=value, codec=self.codec))
        else:
            state = self.reader_states.get(key)
            if state is None and self.spec.make_reader_state is not None:
                state = self.reader_states[key] = (
                    self.spec.make_reader_state(b""))
            operation = self.spec.make_read(self.OpContext(
                client_id=CLIENT, servers=self.servers, f=w.f,
                reader_state=state, codec=self.codec))
        if w.sharded:
            wrap = resolve("repro.core.namespace:NamespacedOperation")
            operation = wrap(key, operation)
        return operation

    def _execute(self, op: Any) -> None:
        value = (self.gate.mint(self.workload.key(op.rank), CLIENT)
                 if op.write else None)
        operation = self.make_operation(op, value)
        envelopes = operation.start()
        while envelopes:
            self.rounds.append(_distinct(m for _, m in envelopes))
            follow_up: List = []
            for dest, message in envelopes:
                self.requests.append((dest, message))
                for _, reply in self.hosts[dest].handle(CLIENT, message):
                    self.replies.append((dest, reply))
                    follow_up.extend(operation.on_reply(dest, reply))
            envelopes = follow_up
        if not operation.done:
            raise RuntimeError("replayed operation did not complete")

    # -- derived views -----------------------------------------------------
    def inner(self, message: Any) -> Any:
        return message.inner if self.workload.sharded else message


def _distinct(messages) -> List[Any]:
    seen: Dict[int, Any] = {}
    for message in messages:
        seen.setdefault(id(message), message)
    return list(seen.values())


# -- probes -----------------------------------------------------------------
# Each returns {metric name: value}, or None when its layer is not on the
# workload's path.  ``ctx`` carries the population, the frames-per-batch
# the live run measured, and the live registry.

class Context:
    def __init__(self, population: Population, frames_per_batch: float = 1.0,
                 live_registry: Any = None) -> None:
        self.pop = population
        self.batch = max(1, round(frames_per_batch))
        self.live_registry = live_registry


def probe_codec(ctx: Context) -> Dict[str, float]:
    pop = ctx.pop
    encoder_cls = resolve("repro.transport.codec2:CachedEncoder")
    decoder_cls = resolve("repro.transport.codec2:CachedDecoder")
    # One encoder per party, as in the runtime: the client's, and each
    # node's own.
    client_encode = encoder_cls()
    node_encode = {pid: encoder_cls() for pid in pop.servers}
    rounds = [m for sent in pop.rounds for m in sent]

    def encode_all() -> None:
        for message in rounds:
            client_encode(message)
        for pid, reply in pop.replies:
            node_encode[pid](reply)

    calls = len(rounds) + len(pop.replies)
    out = {"transport.encode_us": per_call_us(encode_all, calls)}
    requests = [(pid, client_encode(m)) for pid, m in pop.requests]
    replies = [(pid, node_encode[pid](m)) for pid, m in pop.replies]
    node_decode = {pid: decoder_cls() for pid in pop.servers}
    link_decode = {pid: decoder_cls() for pid in pop.servers}

    def decode_all() -> None:
        for pid, payload in requests:
            node_decode[pid](payload)
        for pid, payload in replies:
            link_decode[pid](payload)

    out["transport.decode_us"] = per_call_us(
        decode_all, len(requests) + len(replies))
    return out


def _payloads(pop: Population) -> List[Tuple[str, bytes]]:
    encode = resolve("repro.transport.codec2:encode_message_v2")
    return ([(CLIENT, encode(m)) for _, m in pop.requests]
            + [(pid, encode(m)) for pid, m in pop.replies])


def probe_frames(ctx: Context) -> Dict[str, float]:
    pop = ctx.pop
    keychain = resolve("repro.transport.auth:KeyChain")
    auth = resolve("repro.transport.auth:Authenticator")(
        keychain.from_secret(b"replay", list(pop.servers) + [CLIENT]))
    assembler_cls = resolve("repro.transport.codec2:FrameAssembler",
                            "repro.transport.codec:FrameAssembler")
    payloads = _payloads(pop)
    singles = [auth.seal_frames(sender, [payload])[0]
               for sender, payload in payloads]
    # Bursts as the runtime forms them: consecutive payloads of one
    # sender, ``batch`` at a time.
    bursts: List[Tuple[str, List[bytes]]] = []
    for sender, payload in payloads:
        if (bursts and bursts[-1][0] == sender
                and len(bursts[-1][1]) < ctx.batch):
            bursts[-1][1].append(payload)
        else:
            bursts.append((sender, [payload]))

    def seal_all() -> List[bytes]:
        return [frame for sender, burst in bursts
                for frame in auth.seal_frames(sender, burst, batch=True)]

    frames = seal_all()

    def open_all() -> None:
        for frame in frames:
            auth.open_any(frame)

    chunks = [struct.pack(">I", len(f)) + f for f in frames]
    assembler = assembler_cls()

    def feed_all() -> None:
        for chunk in chunks:
            assembler.feed(chunk)

    return {
        "transport.seal_us": per_call_us(seal_all, len(bursts)),
        "transport.open_us": per_call_us(open_all, len(frames)),
        "transport.assemble_us": per_call_us(feed_all, len(chunks)),
        "transport.frame_bytes": statistics.fmean(
            len(f) + 4 for f in singles),
    }


def probe_core(ctx: Context) -> Dict[str, float]:
    pop = ctx.pop
    server = pop.make_server(pop.servers[0])
    inner = [pop.inner(m) for pid, m in pop.requests if pid == pop.servers[0]]

    def handle_all() -> None:
        for message in inner:
            server.handle(CLIENT, message)

    out = {"core.server_handle_us": per_call_us(handle_all, len(inner))}
    out["core.client_op_us"] = _client_op_us(pop)
    return out


def _client_op_us(pop: Population) -> float:
    """Build + start + replies-to-completion, per op, mix-weighted.

    Replies are canned outside the timed region: what ``n - f`` honest
    servers holding one written value would answer.
    """
    w = pop.workload
    messages = "repro.core.messages"
    data_reply = resolve(f"{messages}:DataReply")
    tag_reply = resolve(f"{messages}:TagReply")
    put_ack = resolve(f"{messages}:PutAck")
    tag = resolve("repro.core.tags:Tag")(7, "w000")
    value = pop.gate.mint(w.key(0), CLIENT)
    stored = (pop.codec.encode(value) if pop.codec is not None
              else [value] * w.n)
    quorum = pop.servers[:w.n - w.f]
    wrap = (resolve("repro.core.namespace:NamespacedMessage")
            if w.sharded else None)
    ops = pop.ops[:64]

    def can(op: Any, operation: Any, build) -> List[Tuple[str, Any]]:
        replies = [(pid, build(operation.op_id, i))
                   for i, pid in enumerate(quorum)]
        if wrap is not None:
            key = w.key(op.rank)
            replies = [(pid, wrap(register=key, inner=m))
                       for pid, m in replies]
        return replies

    batch_seconds = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        operations = [pop.make_operation(op, value) for op in ops]
        elapsed = time.perf_counter() - start
        scripts = []
        for op, operation in zip(ops, operations):
            if op.write:
                scripts.append((operation, [
                    can(op, operation, lambda oid, i: tag_reply(oid, tag)),
                    can(op, operation, lambda oid, i: put_ack(
                        oid, tag.next_for(CLIENT)))]))
            else:
                scripts.append((operation, [
                    can(op, operation,
                        lambda oid, i: data_reply(oid, tag, stored[i]))]))
        start = time.perf_counter()
        for operation, script in scripts:
            operation.start()
            for replies in script:
                for pid, reply in replies:
                    operation.on_reply(pid, reply)
        batch_seconds.append(elapsed + time.perf_counter() - start)
        if not all(operation.done for operation, _ in scripts):
            raise RuntimeError("canned replies did not complete the op")
    return statistics.median(batch_seconds) / len(ops) * 1e6


def probe_sharding(ctx: Context) -> Optional[Dict[str, float]]:
    pop = ctx.pop
    if not pop.workload.sharded:
        return None                          # layer not on this path
    config = resolve("repro.sharding:KeyspaceConfig")(**KEYSPACE)
    keys = [pop.workload.key(op.rank) for op in pop.ops]
    placement = config.placement(pop.servers)
    for key in keys:
        placement.servers_for(key)

    def route_warm() -> None:
        for key in keys:
            placement.servers_for(key)

    distinct = sorted(set(keys))

    def route_cold() -> None:
        cold = config.placement(pop.servers)
        for key in distinct:
            cold.servers_for(key)

    # Ring construction is set-up, not routing: time it alone and take
    # it out of the cold figure.
    ring_us = per_call_us(lambda: config.placement(pop.servers))
    cold_us = (per_call_us(route_cold) - ring_us) / len(distinct)

    pid = pop.servers[0]
    resident = pop.make_host(pid)          # unbounded: nothing is evicted
    mine = [m for dest, m in pop.requests if dest == pid]
    for message in mine:
        resident.handle(CLIENT, message)

    def table_all() -> None:
        for message in mine:
            resident.handle(CLIENT, message)

    bare = pop.make_server(pid)
    inner = [m.inner for m in mine]

    def bare_all() -> None:
        for message in inner:
            bare.handle(CLIENT, message)

    query = resolve("repro.core.messages:QueryData")
    wrap = resolve("repro.core.namespace:NamespacedMessage")
    fresh_keys = [f"probe-{i:05d}" for i in range(512)]

    def first_touch() -> None:
        table = pop.make_host(pid)
        for i, key in enumerate(fresh_keys):
            table.handle(CLIENT, wrap(register=key, inner=query(op_id=i)))

    # A one-slot table: touching two written keys in turn demotes one
    # and rehydrates the other on every call.
    tiny = pop.make_host(pid, max_resident=1)
    pair = [m for m in mine if type(m.inner).__name__ == "PutData"][:2]
    if len(pair) < 2 or pair[0].register == pair[1].register:
        put = resolve("repro.core.messages:PutData")
        tag = resolve("repro.core.tags:Tag")(1, CLIENT)
        value = pop.gate.mint("probe-a", CLIENT)
        pair = [wrap(register=k, inner=put(op_id=1, tag=tag, payload=value))
                for k in ("probe-a", "probe-b")]
    for message in pair:
        tiny.handle(CLIENT, message)
    touches = [wrap(register=m.register, inner=query(op_id=2)) for m in pair]

    def rehydrate() -> None:
        for message in touches:
            tiny.handle(CLIENT, message)

    return {
        "sharding.route_us": per_call_us(route_warm, len(keys)),
        "sharding.route_cold_us": max(0.0, cold_us),
        "sharding.table_handle_us": max(0.0, (
            per_call_us(table_all, len(mine))
            - per_call_us(bare_all, len(inner)))),
        "sharding.first_touch_us": per_call_us(first_touch, len(fresh_keys)),
        "sharding.rehydrate_us": per_call_us(rehydrate, len(touches)),
    }


def probe_erasure(ctx: Context) -> Optional[Dict[str, float]]:
    pop = ctx.pop
    if pop.codec is None:
        return None                          # layer not on this path
    w = pop.workload
    codec = pop.codec
    element_cls = resolve("repro.erasure.striping:CodedElement")
    value = pop.gate.mint(None, CLIENT)
    elements = codec.encode(value)
    received = elements[:w.n - w.f]          # what a reader collects
    # 2f elements corrupted throughout: the worst case Lemma 4 allows.
    corrupted = list(received)
    for i in range(2 * w.f):
        corrupted[i] = element_cls(
            index=corrupted[i].index,
            data=bytes(b ^ 0xA5 for b in corrupted[i].data))
    if codec.decode(corrupted) != value:
        raise RuntimeError("decoder failed within its error budget")
    encode_us = per_call_us(lambda: codec.encode(value))
    return {
        "erasure.encode_us": encode_us,
        "erasure.decode_clean_us": per_call_us(lambda: codec.decode(received)),
        "erasure.decode_err_us": per_call_us(
            lambda: codec.decode(corrupted), budget=PROBE_BUDGET * 3),
        "erasure.mb_per_s": len(value) / encode_us,      # B/µs = MB/s
        "erasure.stored_bytes_per_value_byte": (
            sum(len(e.data) for e in elements) / len(value)),
    }


def probe_byzantine(ctx: Context) -> Optional[Dict[str, float]]:
    pop = ctx.pop
    if not pop.workload.byzantine:
        return None                          # layer not on this path
    index, name = next(iter(pop.workload.byzantine.items()))
    behavior = resolve("repro.byzantine.behaviors:make_behavior")(name)
    pid = pop.servers[index]
    server = pop.make_server(pid)
    cases = []
    for dest, message in pop.requests:
        if dest == pid:
            inner = pop.inner(message)
            cases.append((inner, server.handle(CLIENT, inner)))

    def misbehave() -> None:
        for inner, correct in cases:
            behavior.on_message(server, CLIENT, inner, correct)

    return {"byzantine.behavior_us": per_call_us(misbehave, len(cases))}


def probe_obs(ctx: Context) -> Dict[str, float]:
    registry = resolve("repro.obs:MetricRegistry")()
    histogram = registry.histogram("bench_probe_seconds")
    counter = registry.counter("bench_probe_total")
    live = ctx.live_registry if ctx.live_registry is not None else registry

    def observe() -> None:
        for _ in range(100):
            histogram.observe(0.00123)

    def inc() -> None:
        for _ in range(100):
            counter.inc()

    return {
        "obs.observe_ns": per_call_us(observe, 100) * 1e3,
        "obs.counter_inc_ns": per_call_us(inc, 100) * 1e3,
        "obs.snapshot_ms": per_call_us(live.snapshot) / 1e3,
    }


def probe_generator(ctx: Context) -> Dict[str, float]:
    """The generator's own per-op cost: sampling, minting, checking."""
    w = ctx.pop.workload
    out = {"workloads.sample_us": 0.0}
    if w.sharded:
        sampler = resolve("repro.workloads:ZipfSampler")(w.keys, w.zipf_s)
        rng = random.Random(1)

        def sample() -> None:
            for _ in range(100):
                sampler.key(rng)

        out["workloads.sample_us"] = per_call_us(sample, 100)
    gate = Gate(w.value_size, 0)
    stream = op_stream(w, 0, "self")
    held: Dict[int, bytes] = {}          # rank -> a value to "read back"

    def one_pass() -> None:
        for _ in range(100):
            op = next(stream)
            key = w.key(op.rank)
            if op.write or op.rank not in held:
                held[op.rank] = gate.mint(key, CLIENT)
            else:
                gate.check_read(key, held[op.rank])

    out["loadgen.self_us_per_op"] = per_call_us(one_pass, 100)
    return out


#: Every probe with the metrics it reports.  A probe returns ``None``
#: when its layer is not on the workload's path (its metrics read 0); a
#: probe that raises yields ``None`` for each of its metrics.
Probe = Tuple[Callable[[Context], Optional[Dict[str, float]]],
              Tuple[str, ...]]
PROBES: Tuple[Probe, ...] = (
    (probe_codec, ("transport.encode_us", "transport.decode_us")),
    (probe_frames, ("transport.seal_us", "transport.open_us",
                    "transport.assemble_us", "transport.frame_bytes")),
    (probe_core, ("core.server_handle_us", "core.client_op_us")),
    (probe_sharding, ("sharding.route_us", "sharding.route_cold_us",
                      "sharding.table_handle_us", "sharding.first_touch_us",
                      "sharding.rehydrate_us")),
    (probe_erasure, ("erasure.encode_us", "erasure.decode_clean_us",
                     "erasure.decode_err_us", "erasure.mb_per_s",
                     "erasure.stored_bytes_per_value_byte")),
    (probe_byzantine, ("byzantine.behavior_us",)),
    (probe_obs, ("obs.observe_ns", "obs.counter_inc_ns", "obs.snapshot_ms")),
    (probe_generator, ("workloads.sample_us", "loadgen.self_us_per_op")),
)


def run_replay(workload: Workload, seed: int, frames_per_batch: float = 1.0,
               live_registry: Any = None, spans: Optional[Spans] = None,
               probes: Sequence[Probe] = PROBES
               ) -> Dict[str, Optional[float]]:
    """Run every probe; a probe that cannot run reports ``None``s."""
    spans = spans if spans is not None else Spans()
    results: Dict[str, Optional[float]] = {}
    # The enclosing span closes after its children; reserve its id now.
    root = spans.add("layer-replay", time.monotonic(), 0.0)
    try:
        population = spans.timed("replay.population",
                                 lambda: Population(workload, seed), root)
    except Exception as exc:             # nothing to time anything on
        _warn("population", exc)
        population = None
    for probe, names in probes:
        values: Dict[str, Optional[float]] = dict.fromkeys(names)
        if population is not None:
            ctx = Context(population, frames_per_batch, live_registry)
            try:
                measured = spans.timed(f"replay.{probe.__name__}",
                                       lambda: probe(ctx), root)
                values = (dict.fromkeys(names, 0.0) if measured is None
                          else {name: measured[name] for name in names})
            except Exception as exc:     # a vanished or broken entry point
                _warn(probe.__name__, exc)
        results.update(values)
    spans.records[root]["end"] = time.monotonic()
    return results


def _warn(what: str, exc: Exception) -> None:
    reason = ("entry point vanished: " if isinstance(exc, ProbeMissing)
              else f"{type(exc).__name__}: ")
    print(f"warning: layer probe {what} reports null ({reason}{exc})",
          file=sys.stderr)
