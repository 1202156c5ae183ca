"""BCSR's multi-writer boundary (paper footnote 2).

BCSR is stated for a single writer but "can tolerate multiple writers as
long as writes are not concurrent".  These tests pin both sides:

* sequential writes from different writers are safe (the footnote's
  positive claim);
* under write concurrency a read may legitimately fall back to ``v0``
  (clause (ii) of Definition 1 -- the read is concurrent with a write),
  which is why the paper does not claim MWMR for the coded register.
"""

import pytest

from repro.core.register import RegisterSystem
from repro.consistency import check_safety
from repro.core.messages import PutData
from repro.sim.delays import ConstantDelay, RuleBasedDelays, UniformDelay
from repro.types import server_id, writer_id


def test_sequential_multi_writer_bcsr_is_safe():
    system = RegisterSystem("bcsr", f=1, seed=3, num_writers=3,
                            initial_value=b"v0",
                            delay_model=UniformDelay(0.3, 1.0))
    for i in range(3):
        system.write(f"writer-{i}".encode(), writer=i, at=i * 20.0)
    read = system.read(at=80.0)
    trace = system.run()
    assert read.value == b"writer-2"
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_concurrent_writes_still_decode_when_one_dominates():
    """Concurrent writes whose puts fully propagate: highest tag wins."""
    system = RegisterSystem("bcsr", f=1, seed=4, num_writers=2,
                            initial_value=b"v0",
                            delay_model=UniformDelay(0.3, 1.0))
    system.write(b"racer-a", writer=0, at=0.0)
    system.write(b"racer-b", writer=1, at=0.0)
    read = system.read(at=50.0)
    trace = system.run()
    assert read.value in (b"racer-a", b"racer-b")
    check_safety(trace, initial_value=b"v0").raise_if_violated()


def test_scattered_concurrent_writes_degrade_to_v0_but_stay_safe():
    """The coded analogue of Theorem 3's scatter: decode fails, v0 returns.

    Three concurrent writes each land on a disjoint sliver of servers, so
    the reader's elements mix three codewords and no consistent decode
    exists.  The read returns ``v0`` -- allowed by clause (ii) because it
    is concurrent with the unfinished writes -- which is exactly why BCSR
    is stated as SWMR, not MWMR.
    """
    delays = RuleBasedDelays(fallback=ConstantDelay(0.1))
    for i in range(3):
        writer = writer_id(i)
        fast = {server_id(2 * i), server_id(2 * i + 1)}

        def match(src, dst, msg, writer=writer, fast=fast):
            return isinstance(msg, PutData) and src == writer and dst not in fast

        delays.hold(match)
    system = RegisterSystem("bcsr", f=1, n=6, num_writers=3, num_readers=1,
                            seed=5, initial_value=b"v0", delay_model=delays)
    for i in range(3):
        system.write(f"concurrent-{i}".encode(), writer=i, at=0.0)
    read = system.read(at=10.0)
    trace = system.run()
    assert read.done
    assert read.value == b"v0"  # decode impossible; Fig 5's fallback
    check_safety(trace, initial_value=b"v0").raise_if_violated()
