"""Tests for bounded server histories (the max_history GC option)."""

import pytest

from repro.core.register import RegisterSystem
from repro.core.bcsr import BCSRServer, make_codec
from repro.core.bsr import BSRServer
from repro.core.messages import PutData, QueryData
from repro.core.regular import RegularBSRServer
from repro.core.tags import Tag
from repro.consistency import check_regularity
from repro.sim.delays import ConstantDelay, UniformDelay


def filled_server(cls, max_history, writes=10):
    server = cls("s000", initial_value=b"v0", max_history=max_history)
    for i in range(1, writes + 1):
        server.handle("w", PutData(op_id=i, tag=Tag(i, "w"),
                                   payload=f"v{i}".encode()))
    return server


def test_unbounded_history_keeps_everything():
    server = filled_server(BSRServer, max_history=None)
    assert len(server.history) == 11  # initial + 10 writes


def test_bounded_history_prunes_oldest():
    server = filled_server(BSRServer, max_history=3)
    assert len(server.history) == 3
    assert [pair.value for pair in server.history] == [b"v8", b"v9", b"v10"]


def test_latest_pair_always_survives_pruning():
    server = filled_server(BSRServer, max_history=1)
    assert len(server.history) == 1
    assert server.latest.value == b"v10"
    [(_, reply)] = server.handle("r", QueryData(op_id=99))
    assert reply.payload == b"v10"


def test_max_history_validation():
    with pytest.raises(ValueError):
        BSRServer("s", max_history=0)
    with pytest.raises(ValueError):
        BCSRServer("s", 0, make_codec(6, 1), max_history=-1)


def test_history_bytes_accounting():
    unbounded = filled_server(BSRServer, max_history=None)
    bounded = filled_server(BSRServer, max_history=2)
    assert bounded.history_bytes() < unbounded.history_bytes()


def test_bcsr_server_prunes_too():
    codec = make_codec(6, 1)
    server = BCSRServer("s000", 0, codec, max_history=2)
    for i in range(1, 6):
        element = codec.encode(f"value-{i}".encode())[0]
        server.handle("w", PutData(op_id=i, tag=Tag(i, "w"), payload=element))
    assert len(server.history) == 2


def test_plain_bsr_unaffected_by_pruning():
    """BSR only serves the newest pair, so GC is invisible to it."""
    system = RegisterSystem("bsr", f=1, seed=3, max_history=1,
                            delay_model=UniformDelay(0.3, 1.0))
    for i in range(5):
        system.write(f"w{i}".encode(), writer=i % 2, at=i * 10.0)
    read = system.read(at=60.0)
    system.run()
    assert read.value == b"w4"


def test_deep_history_keeps_history_variant_regular():
    from repro.byzantine.scenarios import theorem3_regularity_violation
    result = theorem3_regularity_violation("bsr-history")
    assert result.regularity.ok


def test_pruned_history_variant_loses_regularity_coverage():
    """The E12 ablation in test form: max_history=1 re-enables Theorem 3.

    With only the newest pair retained, a history read degenerates to a
    plain BSR read, so the Theorem-3 schedule (one value per server) again
    finds no witnessed pair and falls back to ``v0``.
    """
    from repro.byzantine import scenarios as sc
    from repro.core.messages import PutData as PD
    from repro.sim.delays import RuleBasedDelays, ConstantDelay
    from repro.types import server_id, writer_id

    delays = RuleBasedDelays(fallback=ConstantDelay(0.1))
    for i in range(1, 5):
        writer, fast_server = writer_id(i), server_id(i)

        def match(src, dst, msg, writer=writer, fast_server=fast_server):
            return isinstance(msg, PD) and src == writer and dst != fast_server

        delays.hold(match)
    system = RegisterSystem("bsr-history", f=1, n=5, num_writers=5,
                            num_readers=1, seed=0, delay_model=delays,
                            initial_value=b"v0", max_history=1)
    system.write(b"v1", writer=0, at=0.0)
    for i in range(1, 5):
        system.write(f"v{i + 1}".encode(), writer=i, at=10.0)
    read = system.read(reader=0, at=20.0)
    trace = system.run()
    assert read.value == b"v0"
    assert not check_regularity(trace, initial_value=b"v0").ok
