"""The protocol registry: one declarative spec per register algorithm.

Historically every algorithm was dispatched by stringly ``if/elif``
chains duplicated across the runtime client, the local cluster, the
deployment spec, the simulator facade, the CLI table and the tracing
phase vocabulary -- six layers to edit in lockstep per protocol.  This
module collapses all of that into a single :class:`ProtocolSpec`: the
client-operation factories, the server factory, the resilience bound,
the fault model, capability flags and display metadata, registered once
via :func:`register` and consumed everywhere through :func:`get_spec`.

Adding a protocol is now one module that builds a spec and registers it
(see ``repro/protocols/rb2.py`` for a complete worked example), plus its
line in :data:`HOMES`; the sim, the asyncio runtime, ``--procs``
deployment, sharding, chaos soaks, the load rig, ``repro algorithms`` and
the conformance suite all pick it up from the registration alone.

A protocol's module is imported on its first :func:`get_spec`, not
before: :func:`names` reads :data:`HOMES` and imports nothing, so a BSR
node or client never loads the erasure codec or the broadcast baselines.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.record import Record
from repro.errors import ConfigurationError, QuorumError
from repro.telemetry.phases import register_phase_names

#: The two failure assumptions a protocol can be proven under.
BYZANTINE, CRASH = "byzantine", "crash"


class ServerContext(Record):
    """Everything a server factory may need to build one protocol instance.

    ``servers`` is the quorum group the instance belongs to -- the whole
    fleet for plain deployments, the key's consistent-hash group when
    sharded -- so broadcast-based protocols know their peers.
    """

    __slots__ = ("server_id", "index", "servers", "f", "initial_value",
                 "max_history", "codec")
    _defaults = {"initial_value": b"", "max_history": None, "codec": None}


class OpContext(Record):
    """Everything an operation factory may need to build one client op:
    ``value`` is a write's value, ``reader_state`` the semi-fast reader's
    hint state, ``codec`` a coded protocol's erasure codec, ``repair``
    BSR's opt-in read repair."""

    __slots__ = ("client_id", "servers", "f", "value", "initial_value",
                 "reader_state", "codec", "repair")
    _defaults = {"value": None, "initial_value": b"", "reader_state": None,
                 "codec": None, "repair": False}


@dataclass(frozen=True)
class ProtocolSpec:
    """One register algorithm, declaratively.

    Factories receive a :class:`ServerContext` / :class:`OpContext` and
    may ignore any field they do not use; capability flags tell the
    infrastructure what the protocol can do instead of the
    infrastructure guessing from the algorithm's name.
    """

    name: str
    description: str
    #: Display form of the resilience bound, e.g. ``"4f + 1"``.
    quorum_rule: str
    min_servers: Callable[[int], int]
    #: :data:`BYZANTINE` or :data:`CRASH`.
    fault_model: str
    #: Display form of the read round count, e.g. ``"1 (one-shot)"``.
    read_rounds: str
    make_server: Callable[[ServerContext], Any]
    make_write: Callable[[OpContext], Any]
    make_read: Callable[[OpContext], Any]
    #: ``(n, f) -> codec`` for erasure-coded protocols; the built codec
    #: reaches both factories via their contexts.
    make_codec: Optional[Callable[[int, int], Any]] = None
    #: ``initial_value -> state`` for semi-fast reader hint state that
    #: persists across one reader's operations on one register.
    make_reader_state: Optional[Callable[[Any], Any]] = None
    #: Server state survives a snapshot/restore round-trip.
    snapshot_ok: bool = True
    #: Reads are answered from older entries of ``L``, not only the
    #: newest pair; a correct server of any other protocol keeps one pair.
    serves_history: bool = False
    #: Servers exchange messages with each other (needs a peer mesh and
    #: pinned ports in multi-process deployments).
    peer_links: bool = False
    #: Sharded quorum groups must span the whole fleet (coded protocols
    #: whose codec dimension is derived from ``n``).
    group_spans_fleet: bool = False
    #: Only safe with a single writer (SWMR).
    single_writer: bool = False
    #: Client round -> phase name, merged into the tracing vocabulary.
    write_phases: Mapping[int, str] = field(
        default_factory=lambda: {1: "get-tag", 2: "put-data"})
    read_phases: Mapping[int, str] = field(
        default_factory=lambda: {1: "get-data"})
    #: Request message type name -> phase name (server-side histograms).
    message_phases: Mapping[str, str] = field(default_factory=dict)

    def validate_config(self, n: int, f: int) -> None:
        """Raise :class:`QuorumError` unless ``n`` meets the bound."""
        floor = self.min_servers(f)
        if n < floor:
            raise QuorumError(
                f"{self.name} requires n >= {self.quorum_rule} = {floor} "
                f"for f={f}, got n={n}"
            )


#: Every built-in protocol, in display order, and the module whose import
#: registers it.
HOMES: Mapping[str, str] = {
    "bsr": "repro.protocols.bsr",
    "bsr-history": "repro.protocols.regular",
    "bsr-2round": "repro.protocols.regular",
    "bcsr": "repro.protocols.bcsr",
    "rb": "repro.protocols.rb",
    "abd": "repro.protocols.abd",
    "mpr": "repro.protocols.mpr",
    "rb2": "repro.protocols.rb2",
}

_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Register ``spec`` (returns it, so modules can keep a handle).

    Registration also merges the spec's phase vocabulary into the
    tracing tables, so client spans and server frame histograms label
    the new protocol's rounds without the obs layer knowing about it.
    """
    if spec.fault_model not in (BYZANTINE, CRASH):
        raise ConfigurationError(
            f"fault model {spec.fault_model!r} must be "
            f"{BYZANTINE!r} or {CRASH!r}"
        )
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"protocol {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    register_phase_names(spec.name, spec.write_phases, spec.read_phases,
                         spec.message_phases)
    return spec


def get_spec(name: str) -> ProtocolSpec:
    """Look up a protocol, importing its module on first use."""
    spec = _REGISTRY.get(name)
    if spec is None and name in HOMES:
        importlib.import_module(HOMES[name])
        spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from {names()}")
    return spec


def names() -> Tuple[str, ...]:
    """Every protocol name: the built-ins, then any registered since."""
    return (*HOMES, *(name for name in _REGISTRY if name not in HOMES))


def specs() -> Tuple[ProtocolSpec, ...]:
    """Every spec, in :func:`names` order (imports every protocol)."""
    return tuple(get_spec(name) for name in names())
