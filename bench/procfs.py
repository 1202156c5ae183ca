"""Resource readings taken from outside the program: /proc and getrusage."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from typing import Dict, Iterable, Tuple

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has consumed (/proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        # The command name may contain spaces; fields resume after ")".
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def loopback() -> Tuple[int, int]:
    """``(bytes, packets)`` received on ``lo`` so far (/proc/net/dev).

    Everything sent on loopback is also received there, so one side
    counts each byte once.
    """
    with open("/proc/net/dev", "r", encoding="ascii") as fh:
        for line in fh:
            name, _, rest = line.partition(":")
            if name.strip() == "lo":
                fields = rest.split()
                return int(fields[0]), int(fields[1])
    raise RuntimeError("no loopback interface in /proc/net/dev")


def context_switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw + usage.ru_nivcsw


class Meter:
    """CPU, loopback and context-switch deltas across one phase.

    ``node_pids`` are the node processes of a process-per-node cluster
    (empty in-process, where the generator's own CPU is all there is).
    """

    def __init__(self, node_pids: Iterable[int] = ()) -> None:
        self.node_pids = list(node_pids)
        self._before = self._read()
        self.delta: Dict[str, float] = {}

    def _read(self) -> Dict[str, float]:
        lo_bytes, lo_packets = loopback()
        return {
            "wall": time.perf_counter(),
            "client_cpu": time.process_time(),
            "node_cpu": sum(cpu_seconds(pid) for pid in self.node_pids),
            "lo_bytes": lo_bytes, "lo_packets": lo_packets,
            "ctx": context_switches(),
        }

    def stop(self) -> None:
        """Fix the deltas (idempotent: the first call wins)."""
        if not self.delta:
            after = self._read()
            self.delta = {k: after[k] - self._before[k] for k in after}


def rss_mb(node_pids: Iterable[int] = ()) -> Tuple[float, float]:
    """``(generator + nodes, largest node)`` resident set, MiB."""
    nodes = [rss_bytes(pid) for pid in node_pids]
    total = rss_bytes(os.getpid()) + sum(nodes)
    return total / 2**20, max(nodes, default=0) / 2**20


def fingerprint() -> Dict[str, object]:
    """What a reader needs to judge whether two result files compare."""
    try:
        import uvloop  # noqa: F401
        has_uvloop = True
    except ImportError:
        has_uvloop = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "uvloop": has_uvloop,
        "kernel": platform.release(),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }
