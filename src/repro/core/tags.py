"""Tags: the logical timestamps ordering writes.

A tag is a pair ``(num, writer)`` (Fig. 1, line 6 of the paper).  Tags are
totally ordered lexicographically: first by the integer ``num``, then by the
writer identifier, using the total order on process IDs the system model
assumes.  Ties between concurrent writes that picked the same ``num`` are
thereby broken deterministically (Lemma 2, Case 2).
"""

from __future__ import annotations

from typing import Any

from repro.core.record import Record
from repro.types import ProcessId

_store = object.__setattr__

#: Bytes a tag occupies on the wire (an int plus a short writer id).  Lives
#: here, next to the type, so payload carriers (messages, namespace
#: wrappers) and the tagged values themselves charge the same amount.
TAG_BYTES = 12

#: The largest tag number anything here accepts.  The codec refuses a
#: larger one on encode and on decode, and a correct server refuses to
#: store one (the simulator hands objects over without the codec), so a
#: tag out of range is turned away where it enters, on every path.
TAG_MAX = 2 ** 63 - 1


def tag_in_range(tag: Any) -> bool:
    """Whether ``tag`` is a :class:`Tag` whose number is at most
    :data:`TAG_MAX` -- what a correct server may store."""
    return type(tag) is Tag and tag.num <= TAG_MAX


class Tag(Record):
    """A write timestamp ``(num, writer)`` with lexicographic total order.

    Equality, hashing and the four orderings are those of the tuple
    ``(num, writer)``, written out so a comparison builds no tuples: a
    read compares a tag per reply.  Each returns ``NotImplemented`` for
    anything but a :class:`Tag`.
    """

    __slots__ = ("num", "writer")

    def __init__(self, num: int, writer: ProcessId) -> None:
        if num < 0:
            raise ValueError(f"tag number must be non-negative, got {num}")
        _store(self, "num", num)
        _store(self, "writer", writer)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Tag:
            return NotImplemented
        return self.num == other.num and self.writer == other.writer

    def __hash__(self) -> int:
        return hash((self.num, self.writer))

    def __lt__(self, other: "Tag") -> bool:
        if other.__class__ is not Tag:
            return NotImplemented
        if self.num != other.num:
            return self.num < other.num
        return self.writer < other.writer

    def __le__(self, other: "Tag") -> bool:
        if other.__class__ is not Tag:
            return NotImplemented
        if self.num != other.num:
            return self.num < other.num
        return self.writer <= other.writer

    def __gt__(self, other: "Tag") -> bool:
        if other.__class__ is not Tag:
            return NotImplemented
        if self.num != other.num:
            return self.num > other.num
        return self.writer > other.writer

    def __ge__(self, other: "Tag") -> bool:
        if other.__class__ is not Tag:
            return NotImplemented
        if self.num != other.num:
            return self.num > other.num
        return self.writer >= other.writer

    def next_for(self, writer: ProcessId) -> "Tag":
        """The tag a write by ``writer`` creates after observing this tag."""
        return Tag(self.num + 1, writer)

    def wire_size(self) -> int:
        """Approximate on-the-wire size of a tag."""
        return TAG_BYTES

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.num},{self.writer})"


#: The tag of the initial value ``v0`` -- smaller than every real write's
#: tag because real writers have non-empty IDs and write numbers >= 1.
TAG_ZERO = Tag(0, "")


class TaggedValue(Record):
    """A ``(tag, value)`` pair as stored by servers and exchanged on the wire.

    ``value`` must be hashable (bytes recommended) so readers can count
    witnesses per distinct pair.
    """

    __slots__ = ("tag", "value")

    def __init__(self, tag: Tag, value: Any) -> None:
        _store(self, "tag", tag)
        _store(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TaggedValue:
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.tag, self.value))

    def __lt__(self, other: "TaggedValue") -> bool:
        return self.tag < other.tag

    def wire_size(self) -> int:
        """Actual encoded length of the pair: tag plus its value's bytes.

        Delegates to the value's own ``wire_size()`` when it has one (coded
        elements, nested pairs); the ``repr`` fallback only remains for
        exotic test payloads.
        """
        value = self.value
        if value is None:
            inner = 0
        elif hasattr(value, "wire_size"):
            inner = int(value.wire_size())
        elif isinstance(value, (bytes, bytearray)):
            inner = len(value)
        elif isinstance(value, str):
            inner = len(value.encode())
        else:
            inner = len(repr(value))
        return TAG_BYTES + inner

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.tag}:{self.value!r}"
