"""Runtime fault injection for the asyncio TCP deployment.

The simulator owns *modelled* faults (:mod:`repro.sim.failures`,
:mod:`repro.sim.partitions`); this package owns *real* ones.  It breaks
live TCP links the way production networks do -- dropped frames, delays,
duplicates, severed connections, blackholed links -- and crash-restarts
server processes, so the runtime's liveness claim (clients wait for
``n - f`` replies, Lemma 6) and safety claim (up to ``f`` misbehaving
servers) can be demonstrated outside the simulator.

Three layers:

* :class:`~repro.chaos.faults.FaultPlan` -- a deterministic, seeded
  per-link policy deciding the fate of every frame (drop / delay /
  duplicate / sever / blackhole / throttle / deliver).
* :class:`~repro.chaos.proxy.ChaosProxy` -- an asyncio TCP interposer
  that :class:`~repro.runtime.cluster.LocalCluster` places in front of
  each server node and that applies the plan frame-by-frame.
* :class:`~repro.chaos.nemesis.Nemesis` -- a scheduler that runs a timed
  fault schedule (partitions, crash-restarts, severs, link degradation)
  concurrently with a workload; :func:`~repro.chaos.soak.run_soak` ties
  a schedule and a mixed read/write workload together and checks the
  result against the paper's safety definition.

The package imports none of its modules: a cluster without chaos never
loads them, and one with it loads the plan and proxy, not the soak.
"""
