"""The four benchmark workloads and their seeded operation streams.

Everything the program receives comes from here: a workload fixes the
cluster shape and the traffic, and the operation streams (which key,
read or write, when) are a pure function of ``(stream, seed, phase)``.
``zipf90`` and ``zipf90-procs`` share ``stream="zipf90"``, so the
in-process and the process-per-node cluster replay byte-identical
operations and their difference is the deployment alone.

Ladder rates are *fixed absolute* rates, frozen after one calibration on
the seed commit (see README "Ladder"): the lower rungs sit below the
seed's saturation throughput and the top one above it, so the latency
limit is crossed between two rungs and the sustainable rate is read on
the steep part of the latency curve, with headroom left for a later
speed-up to show.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.keys import key_name
from repro.workloads import ZipfSampler, poisson_offsets

#: Closed-loop session count of the ``sat`` phase (and ``warm``).
SAT_SESSIONS = 16

#: An untraced run is ``warm`` (a fixed number of operations, so every
#: run starts measuring from the same state whatever the host's speed:
#: resident tables and histories full, caches settled) and then this
#: many cycles of ``solo -> sat``.  Cycling spreads every metric's
#: samples over the whole run, so a few seconds of interference from a
#: co-tenant cannot sit on all of one metric's samples.
CYCLES = 8

#: Share of ``--seconds`` per phase of an untraced run (each phase once
#: per cycle) ...
SHARE = {"solo": 0.045, "sat": 0.08}

#: ... and of a traced run: one pass, the full four-rung ladder, then
#: ``solo`` and ``sat`` again with tracing on.  The layer replay takes
#: the remaining tenth.
TRACED_SHARE = {"solo": 0.05, "rung": 0.11, "sat": 0.175,
                "traced_solo": 0.05, "traced_sat": 0.175}
RUNGS = 4

#: Popularity ranks whose full history goes through the safety checker:
#: spread from the hot head to the cold tail.
SAMPLED_RANKS = (1, 3, 7, 15, 31, 63, 127, 255)


class Op(NamedTuple):
    write: bool
    rank: int          #: popularity rank of the key (0 = hottest)


class Arrival(NamedTuple):
    offset: float      #: seconds after the rung starts
    op: Op


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    n: int
    keys: int                      #: 1 = one unsharded register
    read_ratio: float
    value_size: int
    ladder_rps: Tuple[float, ...]
    slo_ms: float                  #: limit on the ladder tail percentile
    warm_ops: int                  #: operations of the discarded warm-up
    zipf_s: float = 0.0
    f: int = 1
    stream: str = ""               #: op-stream identity (default: name)
    procs: bool = False            #: ClusterSupervisor instead of LocalCluster
    byzantine: Dict[int, str] = field(default_factory=dict)
    split_roles: bool = False      #: client 0 writes, client 1 reads

    @property
    def stream_id(self) -> str:
        return self.stream or self.name

    @property
    def sharded(self) -> bool:
        return self.keys > 1

    def key(self, rank: int) -> Optional[str]:
        """Register name for ``rank`` (``None`` = the default register)."""
        return key_name(rank) if self.sharded else None

    @property
    def sampled_keys(self) -> Tuple[Optional[str], ...]:
        if not self.sharded:
            return (None,)
        ranks = [r for r in SAMPLED_RANKS if r < self.keys]
        if len(ranks) < len(SAMPLED_RANKS):     # small keyspace: spread evenly
            step = max(1, self.keys // len(SAMPLED_RANKS))
            ranks = list(range(0, self.keys, step))[:len(SAMPLED_RANKS)]
        return tuple(key_name(r) for r in ranks)


KEYSPACE = {"group_size": 5, "max_resident": 1024}
MAX_HISTORY = 128

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="zipf90",
        algorithm="bsr", n=5, keys=10_000, zipf_s=0.99, read_ratio=0.9,
        value_size=64, ladder_rps=(400, 800, 1500, 2600), slo_ms=50.0,
        # Enough distinct keys to fill every node's resident table, so
        # evictions run at their steady rate from the first cycle on.
        warm_ops=4500),
    Workload(
        name="write50",
        algorithm="bsr", n=5, keys=64, read_ratio=0.5, value_size=64,
        ladder_rps=(350, 600, 1000, 1600), slo_ms=50.0, warm_ops=1500,
        byzantine={4: "forge_tag"}),
    Workload(
        name="bcsr64k",
        algorithm="bcsr", n=8, keys=1, read_ratio=0.8, value_size=65536,
        ladder_rps=(120, 220, 330, 500), slo_ms=150.0,
        # 128 writes fill the register's history (max_history).
        warm_ops=700, split_roles=True),
    Workload(
        name="zipf90-procs",
        algorithm="bsr", n=5, keys=10_000, zipf_s=0.99, read_ratio=0.9,
        value_size=64, ladder_rps=(400, 800, 1500, 2600), slo_ms=50.0,
        warm_ops=4500, stream="zipf90", procs=True),
)}


def _rng(workload: Workload, seed: int, phase: str) -> random.Random:
    # str seeds hash through SHA-512, so the stream is stable across
    # interpreter runs (unlike hash()).
    return random.Random(f"{workload.stream_id}/{seed}/{phase}")


def op_stream(workload: Workload, seed: int, phase: str) -> Iterator[Op]:
    """The endless closed-loop operation stream of one phase."""
    rng = _rng(workload, seed, phase)
    sampler = (ZipfSampler(workload.keys, workload.zipf_s)
               if workload.sharded else None)
    read_ratio = workload.read_ratio
    while True:
        write = rng.random() >= read_ratio
        yield Op(write, sampler.sample(rng) if sampler is not None else 0)


def rung_arrivals(workload: Workload, seed: int, rung: int,
                  seconds: float) -> List[Arrival]:
    """Poisson arrivals of ladder rung ``rung`` (0-based) of a traced run
    of ``seconds``."""
    rng = _rng(workload, seed, f"rung{rung}")
    ops = op_stream(workload, seed, f"rung{rung}/ops")
    return [Arrival(offset, next(ops)) for offset in poisson_offsets(
        workload.ladder_rps[rung], TRACED_SHARE["rung"] * seconds, rng)]


def plan_digest(workload: Workload, seed: int, seconds: float,
                closed_ops: int = 1000) -> str:
    """SHA-256 over everything the generator will offer for this seed.

    The ladder's schedules in full, plus the first ``closed_ops``
    operations of every closed-loop stream (those are consumed as fast
    as the system goes, so only a prefix is fixed in advance).
    """
    digest = hashlib.sha256()

    def closed(phase: str) -> None:
        stream = op_stream(workload, seed, phase)
        for _ in range(closed_ops):
            op = next(stream)
            digest.update(b"%d:%d;" % (op.write, op.rank))

    closed("warm")
    for cycle in range(CYCLES):
        closed(f"solo{cycle}")
        closed(f"sat{cycle}")
    for phase in ("solo", "sat", "traced-solo", "traced-sat"):
        closed(phase)
    for rung in range(RUNGS):
        for arrival in rung_arrivals(workload, seed, rung, seconds):
            digest.update(b"%r:%d:%d;" % (arrival.offset, arrival.op.write,
                                          arrival.op.rank))
    return digest.hexdigest()
