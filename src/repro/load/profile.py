"""Load-rig configuration: what to offer, how to judge it.

A :class:`LoadProfile` is the complete description of one open-loop
pass -- aggregate rate, session count, read/write mix, keyspace shape,
windows, seed -- and an :class:`SloPolicy` is the judgement applied to
the measured window afterwards.  Both serialize to plain dicts, because
the coordinator ships each worker its slice of the profile as one JSON
document over stdin (see :mod:`repro.load.worker`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.workloads.arrivals import Windows


def parse_mix(mix: str) -> float:
    """``"90/10"`` (reads/writes) -> read ratio ``0.9``.

    Accepts any pair of non-negative numbers; they are normalised by
    their sum, so ``"9/1"`` and ``"90/10"`` mean the same workload.
    A bare number is taken as the read ratio directly (``"0.9"``).
    """
    text = mix.strip()
    if "/" not in text:
        try:
            ratio = float(text)
        except ValueError:
            raise ConfigurationError(f"cannot parse mix {mix!r}")
        if not 0.0 <= ratio <= 1.0:
            raise ConfigurationError(
                f"bare mix ratio must be within [0, 1], got {mix!r}")
        return ratio
    parts = text.split("/")
    if len(parts) != 2:
        raise ConfigurationError(
            f"mix must look like 'reads/writes' (e.g. 90/10), got {mix!r}")
    try:
        reads, writes = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigurationError(f"cannot parse mix {mix!r}")
    if reads < 0 or writes < 0 or reads + writes <= 0:
        raise ConfigurationError(
            f"mix shares must be non-negative and not both zero, got {mix!r}")
    return reads / (reads + writes)


@dataclass
class LoadProfile:
    """One open-loop pass: offered load, workload shape, windows, seed."""

    users: int = 200
    rps: float = 500.0
    read_ratio: float = 0.9
    keys: int = 1
    zipf_s: float = 0.99
    value_size: int = 64
    #: Measured window, seconds (the figure every rate refers to).
    duration: float = 10.0
    warmup: float = 2.0
    cooldown: float = 0.5
    seed: int = 0
    #: Per-operation liveness timeout, seconds.
    timeout: float = 10.0
    algorithm: str = "bsr"
    f: int = 1
    n: Optional[int] = None
    #: Real clients (TCP connections sets) per worker; sessions share
    #: them round-robin through the multiplexed dispatcher.
    clients_per_worker: int = 4
    #: Bound the per-register history of history-serving protocols
    #: and Byzantine servers so long passes do not grow node memory
    #: without bound (other correct servers keep one pair regardless).
    max_history: Optional[int] = 128
    #: Keys whose every operation is logged into the sampled
    #: consistency trace (filled by the coordinator).
    sample_keys: List[str] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if self.users < 1:
            raise ConfigurationError("users must be at least 1")
        if self.rps <= 0:
            raise ConfigurationError("rps must be positive")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigurationError("read_ratio must be within [0, 1]")
        if self.keys < 1:
            raise ConfigurationError("keys must be at least 1")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.clients_per_worker < 1:
            raise ConfigurationError("clients_per_worker must be at least 1")

    def windows(self) -> Windows:
        return Windows(warmup=self.warmup, measure=self.duration,
                       cooldown=self.cooldown)

    def worker_slice(self, worker: int, workers: int) -> "LoadProfile":
        """This profile's share for one of ``workers`` worker processes.

        Rate and session count split evenly (remainders to the lowest
        indices); everything else -- including the seed, which the
        worker forks by its index -- is shared.
        """
        if not 0 <= worker < workers:
            raise ConfigurationError(
                f"worker index {worker} out of range for {workers} workers")
        users = self.users // workers + (1 if worker < self.users % workers
                                         else 0)
        return dataclasses.replace(self, users=max(1, users),
                                   rps=self.rps / workers)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoadProfile":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown load profile keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class SloPolicy:
    """Pass/fail judgement of one measured window.

    A pass *passes* when the measured p99 stays under ``p99_ms``, the
    error rate (errors + liveness timeouts + abandoned backlog, over
    all measured arrivals) stays under ``max_error_rate``, and the
    sampled consistency trace shows zero violations.
    """

    p99_ms: float = 250.0
    max_error_rate: float = 0.005

    def evaluate(self, p99_ms: float, error_rate: float,
                 violations: int) -> Dict[str, Any]:
        """Judge one pass; returns the verdict with per-clause detail."""
        clauses = {
            "p99": p99_ms <= self.p99_ms,
            "errors": error_rate <= self.max_error_rate,
            "consistency": violations == 0,
        }
        return {
            "ok": all(clauses.values()),
            "clauses": clauses,
            "p99_ms": p99_ms,
            "p99_limit_ms": self.p99_ms,
            "error_rate": error_rate,
            "error_rate_limit": self.max_error_rate,
            "violations": violations,
        }

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloPolicy":
        return cls(**data)
