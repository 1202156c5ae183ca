"""Phase names: what the client calls its rounds and the node its frames.

A write's rounds are ``get-tag`` then ``put-data``, a semi-fast read's
one round ``get-data``; each protocol registers its own vocabulary
(:func:`register_phase_names`) when it registers.  The client names its
spans' rounds and the node buckets its per-frame service times with
these same names, so both sides' histograms line up phase for phase.
A module of its own so a node, which records phases but no client
spans, does not import :mod:`repro.telemetry.tracing`.
"""

from __future__ import annotations

#: Request message type -> protocol phase, shared by the client (naming
#: its rounds) and the node (bucketing its per-frame service times), so
#: client-side and server-side histograms line up phase for phase.  The
#: protocol registry merges each registered protocol's message vocabulary
#: into this dict (the node keeps a reference, so updates are live).
PHASE_BY_MESSAGE = {
    "QueryTag": "get-tag",
    "PutData": "put-data",
    "QueryData": "get-data",
    "QueryDataHeld": "get-data",
}

#: algorithm -> {"write": {round: phase}, "read": {round: phase}},
#: populated by :func:`register_phase_names` as protocols register.
_ROUND_PHASES: dict = {}

#: Fallbacks for rounds no protocol named explicitly: the get-tag /
#: put-data write shape and one-shot get-data reads are the lingua
#: franca of every register here.
_DEFAULT_PHASES = {
    "write": {1: "get-tag", 2: "put-data"},
    "read": {1: "get-data"},
}


def register_phase_names(algorithm: str, write_phases, read_phases,
                         message_phases=None) -> None:
    """Teach the tracer a protocol's phase vocabulary.

    Called by the protocol registry at registration time, keeping this
    module free of per-algorithm knowledge: ``write_phases`` and
    ``read_phases`` map round numbers to phase names for the client
    side, ``message_phases`` maps request type names to phases for the
    server side (merged into :data:`PHASE_BY_MESSAGE`).
    """
    _ROUND_PHASES[algorithm] = {
        "write": dict(write_phases or {}),
        "read": dict(read_phases or {}),
    }
    PHASE_BY_MESSAGE.update(message_phases or {})


def phase_name(kind: str, round_number: int, algorithm: str = "") -> str:
    """Human name of a client round (``get-tag``, ``put-data``, ...)."""
    if algorithm and algorithm not in _ROUND_PHASES:
        # Looking a protocol up registers its phases; importing the
        # registry from here at module load would be circular.
        from repro.protocols.registry import HOMES, get_spec
        if algorithm in HOMES:
            get_spec(algorithm)
    table = _ROUND_PHASES.get(algorithm, _DEFAULT_PHASES)
    name = table.get(kind, {}).get(round_number)
    if name is None:
        name = _DEFAULT_PHASES.get(kind, {}).get(round_number)
    return name if name is not None else f"round-{round_number}"
