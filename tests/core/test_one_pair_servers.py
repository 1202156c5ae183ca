"""A plain server answers from its newest pair only, so one pair is enough.

BSR (Fig 3, also ABD's server) and BCSR (Fig 6) answer ``QUERY-TAG`` and
``QUERY-DATA`` from the highest-tagged pair of ``L``; no reply ever
carries an older one.  A server that keeps one pair must therefore be
indistinguishable, byte for byte on the wire, from one that keeps them
all -- whatever mix of fresh, duplicate and stale puts it is sent.  The
mesh servers (``rb``, ``rb2``, ``mpr``) keep the same store, so a
deployment bounds theirs alike.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bcsr import BCSRServer, make_codec
from repro.core.bsr import BSRServer
from repro.core.messages import PutData, QueryData, QueryTag
from repro.core.register import RegisterSystem
from repro.core.tags import Tag
from repro.transport.codec2 import encode_message_v2

VALUES = [b"", b"a", b"bb" * 40, bytes(range(256))]
CODEC = make_codec(6, 1)
#: Server index 2's coded element of each value.
ELEMENTS = [CODEC.encode(value)[2] for value in VALUES]

FACTORIES = {
    "bsr": lambda bound: BSRServer("s002", initial_value=b"v0",
                                   max_history=bound),
    "bcsr": lambda bound: BCSRServer("s002", 2, CODEC, initial_value=b"v0",
                                     max_history=bound),
}

#: A query, or a put of ``(tag number, writer, value index)``; few tag
#: numbers and two writers make duplicate and stale puts common.
STEPS = st.lists(st.one_of(
    st.just(("tag",)), st.just(("data",)),
    st.tuples(st.just("put"), st.integers(0, 6), st.sampled_from(["w0", "w1"]),
              st.integers(0, len(VALUES) - 1))),
    max_size=40)


def message(step, op_id, algorithm):
    if step[0] == "tag":
        return QueryTag(op_id=op_id)
    if step[0] == "data":
        return QueryData(op_id=op_id)
    _, num, writer, index = step
    payload = ELEMENTS[index] if algorithm == "bcsr" else VALUES[index]
    return PutData(op_id=op_id, tag=Tag(num, writer), payload=payload)


@settings(max_examples=60, deadline=None)
@given(algorithm=st.sampled_from(sorted(FACTORIES)), steps=STEPS)
def test_one_pair_server_replies_byte_identically(algorithm, steps):
    one = FACTORIES[algorithm](1)
    every = FACTORIES[algorithm](None)
    for op_id, step in enumerate(steps, start=1):
        msg = message(step, op_id, algorithm)
        replies = [[(dest, encode_message_v2(reply))
                    for dest, reply in server.handle("c0", msg)]
                   for server in (one, every)]
        assert replies[0] == replies[1], step
    assert len(one.history) == 1
    assert one.history[-1] == every.history[-1]


@pytest.mark.parametrize("algorithm", ["rb", "rb2", "mpr"])
def test_mesh_servers_keep_one_pair_and_byzantine_ones_the_bound(algorithm):
    # A mesh server answers from its newest pair too (its pushes carry
    # only the pair just adopted), so Fleet.server gives a correct one a
    # single pair; a Byzantine one answers from older entries and keeps
    # the deployment's bound.
    system = RegisterSystem(algorithm, f=1, max_history=8,
                            byzantine={0: "stale"})
    writes = [system.write(b"v%d" % i, at=100.0 * i) for i in range(20)]
    system.run()
    assert all(handle.done for handle in writes)
    lengths = {pid: len(server.history)
               for pid, server in system.server_protocols.items()}
    assert lengths == {pid: 8 if pid == "s000" else 1
                       for pid in system.server_ids}
    assert system.server_protocols["s001"].latest.value == b"v19"
