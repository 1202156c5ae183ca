"""Open-loop multi-process load generation with honest latency.

The north star is "heavy traffic from millions of users", and every
number published before this package came from closed-loop drivers --
which slow down when the system does, silently excluding queueing delay
from the recorded latency (*coordinated omission*).  This package is the
open-loop answer, layered on everything below it:

* :mod:`repro.load.profile` -- :class:`LoadProfile` (offered rate, mix,
  keyspace, windows) and :class:`SloPolicy` (the pass/fail judgement).
* :mod:`repro.load.worker` -- :class:`OpenLoopEngine`: one process's
  sessions replaying a deterministic Poisson/Zipf arrival schedule
  (:mod:`repro.workloads.arrivals`), measuring every operation from its
  *scheduled* instant, and the ``repro load-worker`` stdin/stdout
  protocol.
* :mod:`repro.load.coordinator` -- :func:`run_load`: starts the cluster,
  fans out worker processes, merges their registries bucket-wise,
  re-checks the sampled consistency trace, and runs the SLO sweep that
  produces the max-sustainable-throughput figure.
* :mod:`repro.load.report` -- :class:`LoadReport`, the
  ``BENCH_load.json`` document and its human rendering.

Surfaced as ``repro load`` and benchmark E21 (``make bench-load``).

The package imports none of its modules: a ``repro load-worker``
process imports the worker, not the coordinator that started it.
"""
