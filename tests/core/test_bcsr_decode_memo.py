"""BCSR decoding is a pure function, and the reader state is a memo of it.

Exactness, not timing.  Three executions of the same read must agree on
every input hypothesis can build -- within the ``2f`` budget and beyond it:

* a read carrying a :class:`DecodeMemo` with *any* history,
* a stateless read (fresh state) through the kernel decoder,
* a stateless read through the ``kernels=False`` scalar oracle,

and within the budget the value is always the written one.  The cost side
is pinned by *counting* Berlekamp-Welch calls and bulk passes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bcsr import BCSRReadOperation
from repro.core.messages import DataReply
from repro.core.tags import Tag
from repro.erasure.rs import ReedSolomon
from repro.erasure.striping import CodedElement, DecodeMemo, StripedCodec
from repro.errors import DecodingError

V0 = b"\x00<initial>"
TAG = Tag(1, "w000")

#: ``(n, f)`` with ``k = n - 5f`` from 1 to 4.
SHAPES = [(6, 1), (7, 1), (8, 1), (9, 1), (11, 2), (13, 2)]

CLEAN, STALE, ONE_BYTE, WHOLE, MIXED, SHORT, LONG, JUNK = range(8)
FAULTS = (STALE, ONE_BYTE, WHOLE, MIXED, SHORT, LONG, JUNK)


def servers_of(n):
    return [f"s{i:03d}" for i in range(n)]


def corrupt(kind, element, stale, draw):
    """One faulty payload for the position of ``element``."""
    data = element.data
    if kind == STALE:
        return stale
    if kind == ONE_BYTE:
        at = draw(st.integers(0, len(data) - 1))
        flipped = data[at] ^ draw(st.integers(1, 255))
        return CodedElement(element.index,
                            data[:at] + bytes([flipped]) + data[at + 1:])
    if kind == WHOLE:
        mask = draw(st.integers(1, 255))
        return CodedElement(element.index, bytes(b ^ mask for b in data))
    if kind == MIXED:
        masks = draw(st.lists(st.sampled_from([0, 0, 0x5A]),
                              min_size=len(data), max_size=len(data)))
        return CodedElement(element.index,
                            bytes(b ^ m for b, m in zip(data, masks)))
    if kind == SHORT:
        return CodedElement(element.index, data[:-1])
    if kind == LONG:
        return CodedElement(element.index, data + b"\x00")
    return b"not-an-element"


@st.composite
def read_replies(draw, n, f, current, stale):
    """``(replies, expected)``: the ``n - f`` replies one read collects.

    ``current``/``stale`` are the coded elements of the newest and of an
    older value.  ``expected`` is True when the faults are within what the
    decoder promises to absorb (so the read must return the newest value).
    """
    k, quorum = n - 5 * f, n - f
    received = draw(st.permutations(range(n)))[:quorum]
    if draw(st.booleans()):
        # Stale/new splits around the decodability edge k + e'.
        fresh = k + 2 * f + draw(st.sampled_from([-1, 0, 1]))
        kinds = [CLEAN] * fresh + [STALE] * (quorum - fresh)
    else:
        faulty = draw(st.integers(0, min(quorum, 2 * f + 2)))
        kinds = ([draw(st.sampled_from(FAULTS)) for _ in range(faulty)]
                 + [CLEAN] * (quorum - faulty))
    replies = []
    for index, kind in zip(received, kinds):
        payload = (current[index] if kind == CLEAN
                   else corrupt(kind, current[index], stale[index], draw))
        replies.append((index, payload))
    true_len = len(current[0].data)
    lengths = [len(p.data) for _, p in replies if isinstance(p, CodedElement)]
    usable = lengths.count(true_len)
    majority = max(set(lengths), key=lambda ln: (lengths.count(ln), ln),
                   default=None)
    wrong = sum(1 for index, p in replies if isinstance(p, CodedElement)
                and len(p.data) == true_len and p != current[index])
    within = (majority == true_len and usable >= k
              and wrong <= min(2 * f, (usable - k) // 2))
    return replies, within


def run_read(n, f, codec, replies, state=None):
    servers = servers_of(n)
    op = BCSRReadOperation("r000", servers, f, codec=codec, initial_value=V0,
                           reader_state=state)
    op.start()
    for index, payload in replies:
        op.on_reply(servers[index],
                    DataReply(op_id=op.op_id, tag=TAG, payload=payload))
    assert op.done and op.rounds == 1
    return op.result


def decode_or_error(codec, replies, f):
    elements = [CodedElement(index, p.data) for index, p in replies
                if isinstance(p, CodedElement)]
    try:
        return codec.decode(elements, max_errors=2 * f)
    except DecodingError:
        return DecodingError


@st.composite
def scenarios(draw):
    n, f = draw(st.sampled_from(SHAPES))
    k = n - 5 * f
    kernel, oracle = StripedCodec(n, k), StripedCodec(n, k, kernels=False)
    value = draw(st.binary(min_size=0, max_size=48))
    # An older value: unrelated, or a *near* codeword (one byte away, same
    # length) so stale elements agree with fresh ones at most stripes.
    if value and draw(st.booleans()):
        at = draw(st.integers(0, len(value) - 1))
        older = value[:at] + bytes([value[at] ^ 0x01]) + value[at + 1:]
    else:
        older = draw(st.binary(min_size=0, max_size=48))
    coded = {v: kernel.encode(v) for v in (value, older)}
    # Any prior history: earlier reads of the same, the near or the other
    # codeword, clean or faulty, through the state under test.
    history = []
    for _ in range(draw(st.integers(0, 3))):
        newest, other = draw(st.sampled_from([(value, older), (older, value)]))
        history.append(draw(read_replies(n, f, coded[newest], coded[other]))[0])
    replies, within = draw(read_replies(n, f, coded[value], coded[older]))
    return n, f, kernel, oracle, value, history, replies, within


@settings(max_examples=600, deadline=None)
@given(scenarios())
def test_stateful_read_equals_stateless_equals_oracle(scenario):
    n, f, kernel, oracle, value, history, replies, within = scenario
    state = DecodeMemo()
    for earlier in history:
        assert (run_read(n, f, kernel, earlier, state)
                == run_read(n, f, kernel, earlier))
    stateless = run_read(n, f, kernel, replies)
    assert run_read(n, f, kernel, replies, state) == stateless
    assert run_read(n, f, oracle, replies) == stateless
    decoded = decode_or_error(kernel, replies, f)
    assert decoded == decode_or_error(oracle, replies, f)
    assert stateless == (V0 if decoded is DecodingError else decoded)
    if within:
        assert stateless == value
    # Whatever the state now remembers is sound: the verified columns all
    # lie on one codeword, and it is the remembered value's.
    if state.verified:
        columns = [CodedElement(p, col) for p, col in state.verified.items()]
        assert kernel.decode(columns, max_errors=0) == state.value
        assert not set(state.verified) & state.suspects


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SHAPES), st.binary(min_size=1, max_size=64),
       st.randoms(use_true_random=False))
def test_oracle_and_kernel_report_the_same_columns(shape, value, rng):
    """Within the budget both paths verify and locate the same positions."""
    n, f = shape
    k = n - 5 * f
    kernel, oracle = StripedCodec(n, k), StripedCodec(n, k, kernels=False)
    received = rng.sample(kernel.encode(value), n - f)
    liars = set(rng.sample(range(n - f), rng.randint(0, 2 * f)))
    received = [CodedElement(e.index, bytes(b ^ 0x3C for b in e.data))
                if j in liars else e for j, e in enumerate(received)]
    fast, slow = DecodeMemo(), DecodeMemo()
    assert kernel.decode(received, max_errors=2 * f, memo=fast) == value
    assert oracle.decode(received, max_errors=2 * f, memo=slow) == value
    assert fast == slow
    assert fast.suspects == {received[j].index for j in liars}
    assert set(fast.verified) == ({e.index for e in received} - fast.suspects)


# -- count, don't clock -------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Counts of single-stripe Berlekamp-Welch calls and bulk passes."""
    counts = {"bw": 0, "bulk": 0}

    def counting(name, original):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(ReedSolomon, "decode",
                        counting("bw", ReedSolomon.decode))
    monkeypatch.setattr(ReedSolomon, "decode_columns",
                        counting("bulk", ReedSolomon.decode_columns))
    return counts


@pytest.mark.parametrize("liar", [0, 5], ids=["systematic", "parity"])
def test_one_corrupt_element_costs_one_locate_then_a_compare(calls, liar):
    n, f = 8, 1
    budget = 2 * f
    codec = StripedCodec(n, n - 5 * f)
    value = bytes(range(256)) * 32
    replies = [(e.index, CodedElement(e.index, bytes(b ^ 0xA5 for b in e.data))
                if e.index == liar else e)
               for e in codec.encode(value)[:n - f]]
    state = DecodeMemo()
    assert run_read(n, f, codec, replies, state) == value
    assert calls["bw"] <= budget + 1 and calls["bulk"] <= budget + 2
    if liar >= codec.k:
        # The reconstruction never needed a parity element.
        assert calls == {"bw": 0, "bulk": 1}
    assert state.suspects == {liar} and liar not in state.verified
    # The same elements again: neither decoder runs.
    calls.update(bw=0, bulk=0)
    assert run_read(n, f, codec, replies, state) == value
    assert calls == {"bw": 0, "bulk": 0}
    assert state.take_counts() == (1, 1, [liar])
    # A new version from the same liar: the suspect is tried last, so even
    # a systematic liar no longer needs locating.
    newer = bytes(reversed(value))
    replies = [(e.index, CodedElement(e.index, bytes(b ^ 0xA5 for b in e.data))
                if e.index == liar else e)
               for e in codec.encode(newer)[:n - f]]
    assert run_read(n, f, codec, replies, state) == newer
    assert calls == {"bw": 0, "bulk": 1}
    assert state.take_counts() == (0, 1, [liar])


def test_memo_never_holds_the_v0_fallback():
    n, f = 6, 1
    codec = StripedCodec(n, 1)
    state = DecodeMemo()
    junk = [(i, CodedElement(i, bytes([i]) * (i + 1))) for i in range(n - f)]
    assert run_read(n, f, codec, junk, state) == V0
    assert state.value is None and not state.verified
    assert run_read(n, f, codec, junk, state) == V0
    assert state.take_counts() == (0, 2, [])  # a failed decode leaves no memo


def test_memo_needs_byte_equality_at_n_minus_budget_positions():
    """One differing column too many and the decoder runs again."""
    n, f = 8, 1
    codec = StripedCodec(n, 3)
    old, new = b"a" * 90, b"a" * 89 + b"b"   # near codewords
    state = DecodeMemo()
    clean = [(e.index, e) for e in codec.encode(old)[:n - f]]
    assert run_read(n, f, codec, clean, state) == old
    for fresh in range(n - f + 1):
        replies = [(i, e) for i, e in enumerate(
            codec.encode(new)[:fresh] + codec.encode(old)[fresh:n - f])]
        assert (run_read(n, f, codec, replies, state)
                == run_read(n, f, codec, replies))


@pytest.mark.parametrize("kernels", [True, False], ids=["kernel", "oracle"])
def test_a_stripe_beyond_the_budget_fails_whatever_earlier_stripes_located(kernels):
    """Decoding is per stripe: suspicion never widens what is accepted.

    ``N - k = 3`` is odd, so the budget is 1.  Stripes 0 and 1 each have
    one (different) wrong column -- both get located -- and stripe 2 has
    *both* wrong: the four remaining columns agree on a codeword there, but
    it is 2 > 1 symbols from what was received, so no value is returned.
    """
    codec = StripedCodec(6, 3, kernels=kernels)
    columns = [bytearray(e.data) for e in codec.encode(b"12345")]
    assert len(columns[0]) == 3
    columns[0][0] ^= 0x11
    columns[1][1] ^= 0x22
    received = [CodedElement(i, bytes(c)) for i, c in enumerate(columns)]
    assert codec.decode(received) == b"12345"
    columns[0][2] ^= 0x33
    columns[1][2] ^= 0x44
    received = [CodedElement(i, bytes(c)) for i, c in enumerate(columns)]
    with pytest.raises(DecodingError):
        codec.decode(received)
