"""Correctness gate: self-certifying values and a sampled safety check.

Every value the generator writes is ``key|writer|seq|digest|filler``
where ``digest`` is the first 16 hex digits of ``sha256(filler)``.  A
read is therefore checkable on the spot, against nothing but what the
generator itself issued:

* the key prefix must be the key that was read (no cross-register bleed),
* the filler must hash to the digest (no corrupted payload),
* ``(writer, seq)`` must be a write the generator really issued to that
  key, with that digest (no fabricated value).

On top of that the complete history of a few sampled keys goes through
the program's own Definition-1 checker
(:func:`repro.consistency.check_safety_per_register`).  The checker is
quadratic in the writes it sees, so the history is first cut into
chunks of reads, each carrying only the writes that can still matter to
them (see :func:`chunk_history`); the verdict is the same as on the
whole history.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.consistency import check_safety_per_register
# The checker's input type lives with the simulator; nothing else of
# repro.sim is used by the benchmark.
from repro.sim.trace import OpKind, Trace

INITIAL_VALUE = b""
DIGEST_HEX = 16

#: Label under which the single unsharded register is recorded.
SINGLE_REGISTER = "the-register"

#: Reads per chunk handed to the safety checker.
CHUNK_READS = 64


class Rec(NamedTuple):
    """One operation on a sampled key."""

    client: str
    write: bool
    start: float
    end: Optional[float]       #: ``None`` = began but never completed
    token: bytes               #: ``writer|seq`` of the value written/read


class Gate:
    """Mints values, checks every read, keeps sampled-key histories."""

    def __init__(self, value_size: int, seed: int,
                 sampled_keys: Iterable[Optional[str]] = ()) -> None:
        self.value_size = value_size
        # One block of seeded random bytes; each value's filler is a
        # window into it, so minting a 64 KiB value costs one slice and
        # one hash, not 64 Ki random draws.
        self._pool = random.Random(f"filler/{seed}").randbytes(
            value_size + 4096)
        self._seq: Dict[str, int] = {}
        #: (writer, seq) -> (key label, digest) of every value minted.
        self._issued: Dict[tuple, tuple] = {}
        self.history: Dict[str, List[Rec]] = {
            label(key): [] for key in sampled_keys}
        self.violations: List[str] = []
        self.reads_checked = 0

    # -- writes ------------------------------------------------------------
    def mint(self, key: Optional[str], writer: str) -> bytes:
        """A fresh self-certifying value for ``writer`` to put in ``key``."""
        name = label(key)
        seq = self._seq[writer] = self._seq.get(writer, 0) + 1
        head = f"{name}|{writer}|{seq}|".encode()
        fill = max(0, self.value_size - len(head) - DIGEST_HEX - 1)
        offset = seq % 4096
        filler = self._pool[offset:offset + fill]
        digest = hashlib.sha256(filler).hexdigest()[:DIGEST_HEX].encode()
        self._issued[(writer, seq)] = (name, digest)
        return head + digest + b"|" + filler

    # -- reads -------------------------------------------------------------
    def check_read(self, key: Optional[str], value: Any) -> Optional[str]:
        """Why ``value`` cannot be what ``key`` holds, or ``None``.

        A complaint is also appended to :attr:`violations`.
        """
        self.reads_checked += 1
        problem = self._problem(label(key), value)
        if problem is not None:
            self.violations.append(problem)
        return problem

    def _problem(self, name: str, value: Any) -> Optional[str]:
        if not isinstance(value, (bytes, bytearray)):
            return f"read of {name} returned {type(value).__name__}, not bytes"
        if value == INITIAL_VALUE:
            return None
        parts = bytes(value).split(b"|", 4)
        if len(parts) != 5:
            return f"read of {name} returned an unparseable value {value[:32]!r}"
        key, writer, seq, digest, filler = parts
        if key != name.encode():
            return (f"read of {name} returned a value written to "
                    f"{key[:32]!r} (cross-register bleed)")
        if hashlib.sha256(filler).hexdigest()[:DIGEST_HEX].encode() != digest:
            return f"read of {name} returned a corrupted payload"
        try:
            issued = self._issued.get((writer.decode(), int(seq)))
        except ValueError:
            issued = None
        if issued != (name, digest):
            return (f"read of {name} returned {writer[:16]!r}|{seq[:16]!r}, "
                    "which the generator never wrote there")
        return None

    # -- sampled histories -------------------------------------------------
    def sampled(self, key: Optional[str]) -> bool:
        return label(key) in self.history

    def began_write(self, key: Optional[str], client: str, value: bytes,
                    start: float) -> int:
        """Log a write *before* it is attempted; returns its slot.

        Safety quantifies over writes that began: a write that times
        out may still have reached the servers.
        """
        records = self.history[label(key)]
        records.append(Rec(client, True, start, None, token_of(value)))
        return len(records) - 1

    def completed_write(self, key: Optional[str], slot: int,
                        end: float) -> None:
        records = self.history[label(key)]
        records[slot] = records[slot]._replace(end=end)

    def completed_read(self, key: Optional[str], client: str, value: bytes,
                       start: float, end: float) -> None:
        self.history[label(key)].append(
            Rec(client, False, start, end, token_of(value)))

    def verify(self) -> Dict[str, float]:
        """Run the safety checker over every sampled history.

        Returns ``{ops_checked, reads_checked, seconds, violations}``;
        checker complaints are appended to :attr:`violations` too.
        """
        started = time.perf_counter()
        trace = Trace()
        written = set()
        ops = 0
        for name, records in sorted(self.history.items()):
            ops += len(records)
            written.update(rec.token for rec in records if rec.write)
            for index, chunk in enumerate(chunk_history(records)):
                for rec in chunk:
                    kind = OpKind.WRITE if rec.write else OpKind.READ
                    entry = trace.begin(rec.client, kind, rec.start,
                                        value=rec.token if rec.write else None)
                    entry.meta["register"] = f"{name}#{index}"
                    if rec.end is not None:
                        trace.complete(entry, rec.end, value=rec.token)
        result = check_safety_per_register(
            trace, initial_value=INITIAL_VALUE, extra_values=written)
        for violation in result.violations:
            self.violations.append(f"safety: {violation.message}")
        return {"ops_checked": ops, "reads_checked": result.reads_checked,
                "seconds": time.perf_counter() - started,
                "violations": len(result.violations)}


def label(key: Optional[str]) -> str:
    return key if key is not None else SINGLE_REGISTER


def token_of(value: bytes) -> bytes:
    """``writer|seq`` of a checked value (``b""`` for the initial value).

    Histories keep this instead of the value: once :meth:`Gate.check_read`
    has matched key, digest and issue record, the token identifies the
    value, and a 64 KiB-value run does not hold every read in memory.
    """
    if value == INITIAL_VALUE:
        return INITIAL_VALUE
    parts = bytes(value).split(b"|", 3)
    return parts[1] + b"|" + parts[2]


def chunk_history(records: Sequence[Rec],
                  chunk_reads: int = CHUNK_READS) -> Iterable[List[Rec]]:
    """Cut one key's history into independently checkable chunks.

    Each chunk holds up to ``chunk_reads`` completed reads (in invocation
    order) plus every write that can influence their verdict.  A write
    is left out only when it is *superseded* for all of them -- it
    completed before the invocation of the chunk's anchor, the
    latest-invoked write that completed before the chunk's first read --
    or was invoked after all of them responded.  Neither kind is
    concurrent with a read of the chunk, admissible for it, or able to
    supersede a write that is kept, so Definition 1 gives each read the
    verdict it gets on the whole history (the value domain is passed
    separately as ``extra_values``).
    """
    writes = sorted((r for r in records if r.write), key=lambda r: r.start)
    reads = sorted((r for r in records if not r.write and r.end is not None),
                   key=lambda r: r.start)
    for at in range(0, len(reads), chunk_reads):
        chunk = reads[at:at + chunk_reads]
        first = chunk[0].start
        last = max(r.end for r in chunk)
        anchor = max((w.start for w in writes
                      if w.end is not None and w.end <= first),
                     default=None)
        kept = [w for w in writes
                if w.start < last
                and (anchor is None or w.end is None or w.end > anchor)]
        yield kept + chunk
