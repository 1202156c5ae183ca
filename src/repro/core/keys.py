"""Key-name validation for multi-register keyspaces.

The layer that materialises per-key state on first touch
(:class:`~repro.sharding.table.RegisterTable`) validates the key *before*
instantiating anything.  Without this, any authenticated-but-buggy (or
Byzantine) client could exhaust a server's memory by spraying messages
tagged with unbounded garbage names -- each one would allocate a fresh
register state machine (key-space exhaustion DoS).

A valid key is a non-empty ``str`` of at most :data:`MAX_KEY_LENGTH`
printable non-whitespace ASCII characters.  The charset keeps keys safe
to embed in metric labels, log lines and filenames without escaping.
"""

from __future__ import annotations

from typing import Any, Optional

#: Longest accepted key name, in characters.  Bounds the per-key memory
#: an unauthenticated garbage name can pin before it is rejected, and
#: keeps ring hashing / metric labels cheap.
MAX_KEY_LENGTH = 128

#: Printable ASCII minus space (0x21..0x7E): safe in labels and paths.
_ALLOWED = frozenset(chr(c) for c in range(0x21, 0x7F))


def key_error(name: Any, max_len: int = MAX_KEY_LENGTH) -> Optional[str]:
    """Why ``name`` is not a valid key, or ``None`` when it is.

    ``max_len`` tightens the length bound (a keyspace's ``max_key_len``).
    """
    if not isinstance(name, str):
        return f"key must be a str, got {type(name).__name__}"
    if not name:
        return "key must not be empty"
    bound = min(max_len, MAX_KEY_LENGTH)
    if len(name) > bound:
        return f"key length {len(name)} exceeds the {bound}-char bound"
    for ch in name:
        if ch not in _ALLOWED:
            return f"key contains disallowed character {ch!r}"
    return None


def key_name(index: int) -> str:
    """Canonical name of the ``index``-th key of a generated keyspace.

    One formatter shared by the workload generator, the benchmarks and
    the tests, so schedules and placements line up across tools.
    """
    return f"key-{index:04d}"
