"""Tests for multi-register namespaces (simulated and unit level)."""

import pytest

from repro import RegisterSystem
from repro.consistency import check_safety
from repro.core.bsr import BSRServer
from repro.core.messages import DataReply, QueryData, QueryTag, TagReply
from repro.core.namespace import (
    DEFAULT_REGISTER,
    NamespacedMessage,
    NamespacedOperation,
)
from repro.core.tags import TAG_ZERO
from repro.byzantine.behaviors import StaleBehavior
from repro.errors import ConfigurationError
from repro.sharding import RegisterTable
from repro.sim.delays import ConstantDelay, UniformDelay


# -- unit level ---------------------------------------------------------------

def make_server(behavior=None):
    """What a namespaced deployment hosts: an unbounded register table."""
    return RegisterTable(
        "s000", factory=lambda name: BSRServer("s000", initial_value=name.encode()),
        behavior=behavior,
    )


def test_registers_created_on_demand():
    server = make_server()
    assert server.registers == {}
    server.handle("r0", NamespacedMessage("users", QueryData(op_id=1)))
    server.handle("r0", NamespacedMessage("carts", QueryData(op_id=2)))
    assert set(server.registers) == {"users", "carts"}


def test_factory_receives_register_name():
    server = make_server()
    [(_, reply)] = server.handle("r0", NamespacedMessage("users", QueryData(op_id=1)))
    assert reply.payload == b"users"  # initial value derived from name


def test_replies_go_bare_to_the_requester_and_wrapped_to_peers():
    server = RegisterTable("s000", factory=lambda name: BSRServer("s000"),
                           peers=["s000", "s001"])
    [(dest, reply)] = server.handle("w0", NamespacedMessage("a", QueryTag(op_id=1)))
    assert dest == "w0"
    assert type(reply) is TagReply and reply.tag == TAG_ZERO
    [(dest, reply)] = server.handle("s001", NamespacedMessage("a", QueryTag(op_id=2)))
    assert dest == "s001"
    assert isinstance(reply, NamespacedMessage) and reply.register == "a"
    assert reply.inner.tag == TAG_ZERO


def test_bare_messages_are_ignored():
    server = make_server()
    assert server.handle("w0", QueryTag(op_id=1)) == []


def test_behavior_applies_per_register_server():
    server = make_server(behavior=StaleBehavior())
    from repro.core.messages import PutData
    from repro.core.tags import Tag
    server.handle("w0", NamespacedMessage("a", PutData(op_id=1, tag=Tag(1, "w"),
                                                       payload=b"fresh")))
    [(_, reply)] = server.handle("r0", NamespacedMessage("a", QueryData(op_id=2)))
    assert reply.payload == b"a"  # stale behaviour: the initial value


def test_namespaced_message_exposes_op_id_and_size():
    message = NamespacedMessage("reg", QueryData(op_id=42))
    assert message.op_id == 42
    assert message.wire_size() > QueryData(op_id=42).wire_size()


def test_operation_wrapper_filters_foreign_registers():
    servers = [f"s{i:03d}" for i in range(5)]
    from repro.core.bsr import BSRReadOperation
    inner = BSRReadOperation("r000", servers, 1)
    op = NamespacedOperation("mine", inner)
    envelopes = op.start()
    assert all(isinstance(m, NamespacedMessage) and m.register == "mine"
               for _, m in envelopes)
    foreign = NamespacedMessage(
        "other", DataReply(op_id=inner.op_id, tag=TAG_ZERO, payload=b""))
    assert op.on_reply(servers[0], foreign) == []
    assert len(inner._replies) == 0


def test_storage_bytes_sums_registers():
    server = make_server()
    server.handle("r0", NamespacedMessage("aa", QueryData(op_id=1)))
    server.handle("r0", NamespacedMessage("bbb", QueryData(op_id=2)))
    assert server.storage_bytes() == len(b"aa") + len(b"bbb")


# -- integrated (simulated) --------------------------------------------------------

@pytest.mark.parametrize("algorithm", ["bsr", "bsr-history", "bsr-2round",
                                       "bcsr", "abd"])
def test_registers_are_independent(algorithm):
    system = RegisterSystem(algorithm, f=1, seed=4, namespaced=True,
                            delay_model=UniformDelay(0.3, 1.0))
    system.write(b"for-users", writer=0, at=0.0, register="users")
    system.write(b"for-carts", writer=1, at=0.0, register="carts")
    users = system.read(reader=0, at=20.0, register="users")
    carts = system.read(reader=0, at=20.0, register="carts")
    fresh = system.read(reader=1, at=20.0, register="untouched")
    system.run()
    assert users.value == b"for-users"
    assert carts.value == b"for-carts"
    assert fresh.value == b""  # untouched register still holds the initial


def test_default_register_used_when_unspecified():
    system = RegisterSystem("bsr", f=1, seed=1, namespaced=True,
                            delay_model=ConstantDelay(1.0))
    system.write(b"v", at=0.0)
    read = system.read(at=10.0)
    system.run()
    assert read.value == b"v"
    protocol = system.server_protocols["s000"]
    assert DEFAULT_REGISTER in protocol.registers


def test_namespaced_reads_stay_one_shot():
    system = RegisterSystem("bsr", f=1, seed=1, namespaced=True,
                            delay_model=ConstantDelay(1.0))
    system.write(b"v", at=0.0, register="k")
    read = system.read(at=10.0, register="k")
    system.run()
    assert read.rounds == 1
    assert read.latency == 2.0


def test_namespaced_byzantine_server_tolerated_on_every_register():
    system = RegisterSystem("bsr", f=1, seed=9, namespaced=True,
                            byzantine={1: "forge_tag"},
                            delay_model=UniformDelay(0.3, 1.0))
    handles = {}
    for i, name in enumerate(("a", "b", "c")):
        system.write(f"value-{name}".encode(), writer=i % 2, at=i * 10.0,
                     register=name)
        handles[name] = system.read(reader=0, at=40.0, register=name)
    trace = system.run()
    for name, handle in handles.items():
        assert handle.value == f"value-{name}".encode()


def test_namespaced_tags_are_per_register():
    system = RegisterSystem("bsr", f=1, seed=2, namespaced=True,
                            delay_model=ConstantDelay(1.0))
    first = system.write(b"x", writer=0, at=0.0, register="a")
    second = system.write(b"y", writer=0, at=10.0, register="b")
    system.run()
    # Each register starts from TAG_ZERO: both writes get tag number 1.
    assert first.value.num == 1
    assert second.value.num == 1


def test_rb_baseline_namespacing():
    # The per-key factory gives every register its own broadcast
    # instance, so the old namespacing prohibition is gone.
    system = RegisterSystem("rb", f=1, seed=5, namespaced=True)
    system.write(b"a-value", writer=0, at=0.0, register="a")
    read_a = system.read(reader=0, at=10.0, register="a")
    read_b = system.read(reader=0, at=20.0, register="b")
    system.run()
    assert read_a.value == b"a-value"
    assert read_b.value == b""


def test_namespaced_reader_state_is_per_register():
    # A reader's cached fallback from register "a" must not leak into "b".
    system = RegisterSystem("bsr", f=1, seed=3, namespaced=True,
                            delay_model=ConstantDelay(1.0))
    system.write(b"a-value", writer=0, at=0.0, register="a")
    read_a = system.read(reader=0, at=10.0, register="a")
    read_b = system.read(reader=0, at=20.0, register="b")
    system.run()
    assert read_a.value == b"a-value"
    assert read_b.value == b""  # not b"a-value"


# -- key-space DoS defence ----------------------------------------------------

def test_invalid_register_names_allocate_no_state():
    """Garbage names are dropped before any per-register state exists."""
    server = make_server()
    for bad in ("", "has space", "nul\x00byte", "x" * 129, "café", 42,
                None, b"bytes"):
        assert server.handle("r0", NamespacedMessage(bad, QueryData(op_id=1))) == []
    assert server.registers == {}


def test_valid_names_still_served_after_rejections():
    server = make_server()
    server.handle("r0", NamespacedMessage("x" * 500, QueryData(op_id=1)))
    [(_, reply)] = server.handle(
        "r0", NamespacedMessage("legit", QueryData(op_id=2)))
    assert reply.op_id == 2 and reply.payload == b"legit"
    assert set(server.registers) == {"legit"}


def test_max_length_name_accepted():
    server = make_server()
    name = "k" * 128  # exactly the bound
    assert server.handle("r0", NamespacedMessage(name, QueryData(op_id=1))) != []
    assert server.handle(
        "r0", NamespacedMessage(name + "k", QueryData(op_id=2))) == []
    assert set(server.registers) == {name}
