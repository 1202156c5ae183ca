"""Shaping load-rig results: per-pass metrics, SLO verdicts, the report.

Every number here is computed from the pass's *merged* registry snapshot
(one bucket-wise aggregated histogram across all workers -- see
:func:`~repro.obs.registry.merge_registry_snapshots`), restricted to the
measured window by the ``window="measure"`` label the workers stamped at
scheduling time.  p999 comes from the same fixed buckets as p50/p99 via
:func:`~repro.obs.stats.bucket_percentile`; the estimate errs upward by
at most one bucket width and is clamped by the exact observed maximum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.load.profile import LoadProfile, SloPolicy
from repro.metrics import format_table
from repro.obs import aggregate_histograms, bucket_percentile, counter_sum

#: Operation outcomes a pass accounts for (``ok`` + the failure modes).
OUTCOMES = ("ok", "error", "timeout", "abandoned")


def _percentile_ms(entry: Optional[Dict], fraction: float) -> float:
    if entry is None or not sum(entry["counts"]):
        return 0.0
    return bucket_percentile(entry["buckets"], entry["counts"], fraction,
                             entry["max"]) * 1000.0


def pass_metrics(outcome, slo: SloPolicy) -> Dict[str, Any]:
    """One pass's report entry: rates, percentiles, the SLO verdict.

    ``outcome`` is a :class:`~repro.load.coordinator.PassOutcome`
    (duck-typed here to keep this module import-light for the tests).
    """
    snapshot = outcome.snapshot
    duration = outcome.measure_duration
    arrivals = counter_sum(snapshot, "load_arrivals_total",
                            window="measure")
    counts = {name: int(counter_sum(snapshot, "load_ops_total",
                                     window="measure", outcome=name))
              for name in OUTCOMES}
    total = sum(counts.values())
    failed = total - counts["ok"]
    error_rate = failed / total if total else 0.0
    honest = aggregate_histograms(snapshot, "load_op_seconds",
                                  window="measure")
    service = aggregate_histograms(snapshot, "load_service_seconds",
                                   window="measure")
    queue_delay = aggregate_histograms(snapshot, "load_queue_delay_seconds",
                                       window="measure")
    p99_ms = _percentile_ms(honest, 0.99)
    metrics = {
        "pass": outcome.label,
        "target_rps": outcome.target_rps,
        "offered_rps": arrivals / duration if duration else 0.0,
        "achieved_rps": counts["ok"] / duration if duration else 0.0,
        "measure_s": duration,
        "arrivals": int(arrivals),
        "ops": counts,
        "error_rate": error_rate,
        "p50_ms": _percentile_ms(honest, 0.50),
        "p99_ms": p99_ms,
        "p999_ms": _percentile_ms(honest, 0.999),
        "read_p99_ms": _percentile_ms(
            aggregate_histograms(snapshot, "load_op_seconds", op="read",
                                 window="measure"), 0.99),
        "write_p99_ms": _percentile_ms(
            aggregate_histograms(snapshot, "load_op_seconds", op="write",
                                 window="measure"), 0.99),
        "service_p99_ms": _percentile_ms(service, 0.99),
        "queue_delay_p99_ms": _percentile_ms(queue_delay, 0.99),
        "queued": int(counter_sum(snapshot, "load_ops_queued_total")),
        "throttled": int(counter_sum(snapshot, "client_throttled_total")),
        "max_backlog": max((s.get("max_backlog", 0)
                            for s in outcome.summaries), default=0),
        "violations": outcome.violations,
        "safety": outcome.safety_detail,
        "wall_s": outcome.wall_time,
        "slo": slo.evaluate(p99_ms, error_rate, outcome.violations),
    }
    return metrics


@dataclass
class LoadReport:
    """The whole run: configuration, every pass, the sustainable figure."""

    profile: Dict[str, Any]
    slo: Dict[str, Any]
    procs: bool
    workers: int
    sweep: str
    passes: List[Dict[str, Any]] = field(default_factory=list)
    max_sustainable_rps: float = 0.0
    safety_ok: bool = True
    safety_detail: str = ""

    @classmethod
    def build(cls, profile: LoadProfile, slo: SloPolicy, outcomes: List,
              procs: bool, workers: int, sweep: str) -> "LoadReport":
        passes = [pass_metrics(outcome, slo) for outcome in outcomes]
        sustainable = [entry["offered_rps"] for entry in passes
                       if entry["slo"]["ok"]]
        main = passes[0] if passes else None
        return cls(
            profile=profile.to_dict(), slo=slo.to_dict(), procs=procs,
            workers=workers, sweep=sweep, passes=passes,
            max_sustainable_rps=max(sustainable) if sustainable else 0.0,
            safety_ok=all(entry["violations"] == 0 for entry in passes),
            safety_detail=main["safety"] if main else "",
        )

    @property
    def main(self) -> Dict[str, Any]:
        """The full-duration pass at the target rate (always first)."""
        return self.passes[0]

    def to_dict(self) -> Dict[str, Any]:
        """The ``BENCH_load.json`` document (shared bench schema)."""
        return {
            "experiment": "E21-load",
            "config": {
                "profile": self.profile,
                "slo": self.slo,
                "procs": self.procs,
                "workers": self.workers,
                "sweep": self.sweep,
            },
            "results": self.passes,
            "max_sustainable_rps": self.max_sustainable_rps,
            "safety": {"ok": self.safety_ok, "detail": self.safety_detail},
        }

    def write(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def format(self) -> str:
        """Human-readable report (the ``repro load`` output)."""
        profile = self.profile
        backend = "OS processes" if self.procs else "in-process cluster"
        lines = [
            f"open-loop load: {profile['algorithm']} f={profile['f']} "
            f"({backend}, {self.workers} workers x "
            f"{profile['users'] // max(1, self.workers)}+ sessions, "
            f"{profile['keys']} keys, "
            f"{profile['read_ratio']:.0%} reads, seed {profile['seed']})",
        ]
        rows = []
        for entry in self.passes:
            verdict = "pass" if entry["slo"]["ok"] else "FAIL"
            rows.append((
                entry["pass"], f"{entry['offered_rps']:.0f}",
                f"{entry['achieved_rps']:.0f}",
                f"{entry['p50_ms']:.1f}", f"{entry['p99_ms']:.1f}",
                f"{entry['p999_ms']:.1f}",
                f"{entry['error_rate']:.2%}", entry["violations"], verdict,
            ))
        lines.append(format_table(
            ("pass", "offered/s", "achieved/s", "p50(ms)", "p99(ms)",
             "p999(ms)", "errors", "viol", "slo"), rows))
        main = self.main
        lines.append(
            f"main pass: honest p99 {main['p99_ms']:.1f}ms vs closed-loop "
            f"(service) p99 {main['service_p99_ms']:.1f}ms; queue-delay "
            f"p99 {main['queue_delay_p99_ms']:.1f}ms; "
            f"{main['queued']} ops queued late, "
            f"{main['ops']['abandoned']} abandoned, "
            f"max backlog {main['max_backlog']}")
        lines.append(f"consistency: "
                     f"{'OK' if self.safety_ok else 'VIOLATIONS'} -- "
                     f"{self.safety_detail}")
        lines.append(
            f"max sustainable throughput (p99 <= "
            f"{self.slo['p99_ms']:.0f}ms, errors <= "
            f"{self.slo['max_error_rate']:.2%}): "
            f"{self.max_sustainable_rps:.0f} rps"
            + (" (no pass met the SLO)"
               if self.max_sustainable_rps == 0.0 else ""))
        return "\n".join(lines)
