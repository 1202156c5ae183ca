"""The load generator: one event loop, sessions as coroutines.

Two drivers share one operation runner:

* :func:`closed_loop` -- ``sessions`` coroutines each issue their next
  operation when the previous one completes (``solo`` = 1 session,
  ``sat`` = 16).  A slow system receives less load.
* :func:`open_loop` -- a pacer releases each arrival at its scheduled
  instant into a queue served by a fixed pool of sessions.  Latency is
  charged from the *scheduled* instant, so an operation that waited
  behind a stall pays for the wait; a due operation is always issued,
  never skipped, and how late the pacer itself ran is reported.

Samples are kept raw; percentiles are nearest-rank over them and are
refused when fewer than ``MIN_BEYOND`` samples lie beyond the rank.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence

from workloads import Arrival, Op

#: Sessions serving the open-loop queue.  More arrivals than this in
#: flight wait in the queue -- that wait is the backlog being measured.
OPEN_SESSIONS = 64

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: How long a finished rung may take to drain before the rest of its
#: backlog is abandoned (and counted as failed).
DRAIN_GRACE = 20.0

clock = time.monotonic     # the clock the program's own spans use


class Sample(NamedTuple):
    write: bool
    due: float       #: scheduled instant (= start in a closed loop)
    start: float
    end: float
    ok: bool


#: ``await runner(op, session)`` executes one operation and returns
#: whether it succeeded.
Runner = Callable[[Op, int], Any]


def percentile(ordered: Sequence[float], fraction: float,
               min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Nearest-rank percentile of an ascending sample, or ``None``.

    ``None`` when fewer than ``min_beyond`` samples lie beyond the rank:
    a p99 of 300 samples is the third-largest value, not a measurement.
    """
    count = len(ordered)
    if count == 0:
        return None
    rank = max(0, math.ceil(fraction * count) - 1)
    if count - 1 - rank < min_beyond:
        return None
    return ordered[rank]


def latencies(samples: Sequence[Sample], write: Optional[bool] = None,
              from_due: bool = True) -> List[float]:
    """Ascending latencies (seconds) of the successful samples."""
    return sorted(
        s.end - (s.due if from_due else s.start) for s in samples
        if s.ok and (write is None or s.write == write))


class ClosedResult(NamedTuple):
    started: float
    seconds: float
    samples: List[Sample]

    def window_rates(self, windows: int) -> List[float]:
        """Completions per second in each of ``windows`` equal slices."""
        width = self.seconds / windows
        counts = [0] * windows
        for sample in self.samples:
            index = int((sample.end - self.started) / width)
            if sample.ok and 0 <= index < windows:
                counts[index] += 1
        return [count / width for count in counts]

    def completed_within(self) -> int:
        end = self.started + self.seconds
        return sum(1 for s in self.samples if s.ok and s.end <= end)


async def closed_loop(runner: Runner, stream: Iterator[Op], sessions: int,
                      seconds: float,
                      at_deadline: Optional[Callable[[], None]] = None
                      ) -> ClosedResult:
    """Run ``sessions`` closed-loop sessions for ``seconds``.

    No operation is started after the deadline (or once a finite
    ``stream`` is used up); the ones in flight finish (and are sampled)
    before this returns.  ``at_deadline`` is called at the deadline
    instant, while they still run, so resource counters can be read over
    exactly ``seconds``.
    """
    samples: List[Sample] = []
    started = clock()
    deadline = started + seconds

    async def session(index: int) -> None:
        while True:
            start = clock()
            if start >= deadline:
                return
            op = next(stream, None)
            if op is None:
                return
            ok = await runner(op, index)
            samples.append(Sample(op.write, start, start, clock(), ok))

    tasks = [asyncio.ensure_future(session(i)) for i in range(sessions)]
    if at_deadline is not None:
        await asyncio.sleep(max(0.0, deadline - clock()))
        at_deadline()
    await asyncio.gather(*tasks)
    return ClosedResult(started, seconds, samples)


class OpenResult(NamedTuple):
    seconds: float
    offered: int            #: arrivals scheduled
    samples: List[Sample]   #: one per arrival that ran (ok or not)
    abandoned: int          #: arrivals given up on after the drain grace
    late: List[float]       #: pacer lateness per arrival, seconds
    backlog_end: int        #: queued + in flight when the rung's time was up

    @property
    def failed(self) -> int:
        return self.abandoned + sum(1 for s in self.samples if not s.ok)


async def open_loop(runner: Runner, arrivals: Sequence[Arrival],
                    seconds: float, sessions: int = OPEN_SESSIONS,
                    drain_grace: float = DRAIN_GRACE) -> OpenResult:
    """Replay ``arrivals`` on their schedule; latency runs from ``due``."""
    queue: "asyncio.Queue" = asyncio.Queue()
    samples: List[Sample] = []
    late: List[float] = []
    inflight = 0

    async def session(index: int) -> None:
        nonlocal inflight
        while True:
            item = await queue.get()
            if item is None:
                return
            due, op = item
            inflight += 1
            start = clock()
            try:
                ok = await runner(op, index)
            finally:
                inflight -= 1
            samples.append(Sample(op.write, due, start, clock(), ok))

    tasks = [asyncio.ensure_future(session(i)) for i in range(sessions)]
    epoch = clock()
    for arrival in arrivals:
        due = epoch + arrival.offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        # Behind schedule (the loop was busy): release at once.  The
        # arrival is late, and its lateness is charged to its latency.
        late.append(max(0.0, clock() - due))
        queue.put_nowait((due, arrival.op))
    await asyncio.sleep(max(0.0, epoch + seconds - clock()))
    backlog_end = queue.qsize() + inflight
    for _ in tasks:
        queue.put_nowait(None)
    _, pending = await asyncio.wait(tasks, timeout=drain_grace)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in tasks:
        if task.done() and not task.cancelled() and task.exception():
            raise task.exception()       # a generator bug, not an op failure
    return OpenResult(seconds, len(arrivals), samples,
                      len(arrivals) - len(samples), late, backlog_end)
