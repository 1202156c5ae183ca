"""The discrete-event simulator tying clock, queue, network and processes.

Typical use::

    sim = Simulator(seed=7, delay_model=UniformDelay(0.5, 2.0))
    sim.add_process(server)
    sim.add_process(client)
    sim.run()          # until quiescence or the horizon

Determinism: with a fixed seed and fixed process registration order, two runs
execute byte-identical event sequences.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.delays import DelayModel
from repro.sim.events import Event, EventQueue
from repro.sim.network import Network
from repro.sim.process import Process, ProcessContext
from repro.sim.rng import SimRng
from repro.sim.trace import Trace
from repro.types import ProcessId


class Simulator:
    """Deterministic discrete-event simulation of one distributed execution."""

    def __init__(self, seed: int = 0, delay_model: Optional[DelayModel] = None,
                 horizon: float = 1_000_000.0) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.rng = SimRng(seed)
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.network = Network(self, delay_model=delay_model, rng=self.rng.fork("network"))
        self.processes: Dict[ProcessId, Process] = {}
        self.trace = Trace()
        self.horizon = horizon
        self._started = False
        self._events_executed = 0

    # -- construction ----------------------------------------------------
    def add_process(self, process: Process) -> Process:
        """Register a process; its ``on_start`` runs when the sim starts."""
        if process.pid in self.processes:
            raise SimulationError(f"duplicate process id {process.pid!r}")
        process.bind(ProcessContext(self, process.pid))
        self.processes[process.pid] = process
        if self._started:
            process.on_start()
        return process

    # -- scheduling primitives (used by network/process context) ---------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.schedule(self.now + delay, callback, label=label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        return self.queue.schedule(time, callback, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self.queue.cancel(event)

    # -- failure injection -------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Crash a process: it stops handling messages immediately."""
        process = self.processes.get(pid)
        if process is None:
            raise SimulationError(f"no such process {pid!r}")
        process.crash()

    # -- the run loop ------------------------------------------------------
    def _start_processes(self) -> None:
        if not self._started:
            self._started = True
            for process in self.processes.values():
                process.on_start()

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        self._start_processes()
        event = self.queue.pop()
        if event is None:
            return False
        if event.time > self.horizon:
            raise SimulationError(
                f"event {event.label!r} at t={event.time} exceeds horizon "
                f"{self.horizon}; likely a livelock or an unreleased HOLD"
            )
        self.clock.advance_to(event.time)
        event.callback()
        self._events_executed += 1
        return True

    def run(self, until: Optional[Callable[[], bool]] = None,
            max_events: int = 10_000_000, release_held_at_end: bool = True) -> int:
        """Run to quiescence (or until ``until()`` is true).

        ``release_held_at_end``: after quiescence, flush messages parked by
        HOLD rules and continue, so that channel reliability ("eventual
        delivery") holds over the whole execution.  Returns the number of
        events executed by this call.
        """
        executed_before = self._events_executed
        self._start_processes()
        while True:
            while self.queue:
                if until is not None and until():
                    return self._events_executed - executed_before
                if not self.step():
                    break
                if self._events_executed - executed_before > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a message storm"
                    )
            if release_held_at_end and self.network.held_count:
                self.network.release_held()
                continue
            break
        return self._events_executed - executed_before

    def run_for(self, duration: float) -> None:
        """Run all events scheduled within the next ``duration`` seconds."""
        deadline = self.now + duration
        self._start_processes()
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
        self.clock.advance_to(deadline)
