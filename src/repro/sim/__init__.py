"""Deterministic discrete-event simulation substrate.

This subpackage provides the asynchronous message-passing system of the
paper's model (Section II-A): asynchronous processes, reliable bidirectional
channels that may reorder messages arbitrarily, unbounded (but finite) message
delays, and crash/Byzantine failure injection.

The simulator is deterministic given a seed, which makes the adversarial
executions of Theorems 3, 5 and 6 exactly reproducible.

Import the module you need (:mod:`repro.sim.simulator`,
:mod:`repro.sim.trace`, ...): the package imports none of them, so a
consistency check over a live trace does not load the simulator.
"""
