"""Lazy per-key register table: bounded-memory server state for a keyspace.

One protocol state machine per register name, kept forever, is fine for
a handful of named registers and fatal for a keyspace of millions where
most keys are cold at any instant.  :class:`RegisterTable` serves both:

* **Lazy**: per-key state (tag, value, history -- the protocol instance)
  is created on first touch by ``factory(name)``.
* **Validated**: the key name is checked (:mod:`repro.core.keys`) before
  anything is allocated, so garbage names cannot exhaust memory.
* **Bounded**: at most ``max_resident`` keys hold a live protocol
  instance (``None`` = every key stays live).  Beyond the cap the
  longest-idle key is *demoted* and the heavy state machine dropped.
  What stays behind is only what the factory could not rebuild: a key
  never written leaves nothing; a written one leaves its history (via
  :mod:`repro.core.persistence`) as a compact byte record, serialised
  once per change -- a key rehydrated and not written since goes back
  as the bytes it came from.  The next touch rehydrates (or re-creates)
  it, so demotion is invisible to the protocol -- the rehydrated server
  re-adopts the archived tags and the per-key register stays safe
  (an archived-then-restored key behaves like an honestly-slow server,
  which the algorithms already tolerate).

Archived records are two orders of magnitude smaller than live state
machines (bytes of JSON vs objects + dict overhead) and there is one per
*written* key, not per name a client ever touched, which is what keeps
a million-key node affordable.  A correct key of a protocol that does
not serve history keeps one pair, so its record holds one; elsewhere
bound each key's history (``max_history``) to bound the archive too.

The table speaks the exact protocol surface the runtimes and the
simulator expect from a server (``handle(sender, message) -> envelopes``)
plus ``registers``, ``register_server`` and ``storage_bytes``, so it
drops into :class:`~repro.runtime.node.RegisterServerNode`, the
process-per-node deployment and the simulator unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.keys import MAX_KEY_LENGTH, key_error
from repro.core.namespace import NamespacedMessage
from repro.core.persistence import (
    is_pristine,
    restore_server,
    snapshot_mark,
    snapshot_server,
)
from repro.errors import ProtocolError
from repro.types import Envelope, ProcessId


class RegisterTable:
    """Route namespaced messages to bounded, lazily created per-key state.

    ``factory(key)`` builds a fresh per-key server protocol; ``behavior``
    (optional) is the Byzantine strategy applied per key -- it sees the
    per-key server instance, exactly as in the single-register case.
    ``max_resident`` caps live per-key state machines (``None`` =
    unbounded); ``max_key_len`` tightens the global key-length bound per
    deployment; ``peers`` are the fleet's servers, whose messages are
    answered wrapped (see :meth:`handle`).

    Metrics land in ``registry`` when one is given (the node's):
    ``table_keys_resident``, ``table_keys_archived``,
    ``table_evictions_total`` (every demotion),
    ``table_snapshots_total`` (the ones that serialised),
    ``table_rehydrations_total`` and ``table_keys_rejected_total``,
    all labeled by node.
    """

    def __init__(self, server_id: ProcessId,
                 factory: Callable[[str], Any],
                 behavior: Optional[Any] = None,
                 max_resident: Optional[int] = None,
                 max_key_len: int = MAX_KEY_LENGTH,
                 registry: Optional[Any] = None,
                 peers: Iterable[ProcessId] = ()) -> None:
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.server_id = server_id
        self._factory = factory
        self.behavior = behavior
        self.max_resident = max_resident
        self.max_key_len = max_key_len
        #: Servers whose own tables this one talks to (never sent bare).
        self.peers = frozenset(peers)
        #: key -> live protocol instance, least-recently-touched first.
        self.registers: "OrderedDict[str, Any]" = OrderedDict()
        #: key -> compact archived state of demoted cold keys.
        self._archive: Dict[str, bytes] = {}
        #: Resident key -> (the record it was rehydrated from, its
        #: :func:`snapshot_mark` then).
        self._clean: Dict[str, Tuple[bytes, Any]] = {}
        #: Keys whose protocol cannot snapshot (never demoted).
        self._pinned: Set[str] = set()
        #: Codec handed to rehydration (captured from the first coded
        #: server evicted; ``None`` for replicated protocols).
        self._codec: Optional[Any] = None
        self._gauge_resident = None
        self._gauge_archived = None
        self._c_evictions = None
        self._c_snapshots = None
        self._c_rehydrations = None
        self._c_rejected = None
        if registry is not None:
            node = str(server_id)
            self._gauge_resident = registry.gauge("table_keys_resident",
                                                  node=node)
            self._gauge_archived = registry.gauge("table_keys_archived",
                                                  node=node)
            self._c_evictions = registry.counter("table_evictions_total",
                                                 node=node)
            self._c_snapshots = registry.counter("table_snapshots_total",
                                                 node=node)
            self._c_rehydrations = registry.counter(
                "table_rehydrations_total", node=node)
            self._c_rejected = registry.counter(
                "table_keys_rejected_total", node=node)

    # -- state inspection --------------------------------------------------
    @property
    def resident_keys(self) -> List[str]:
        """Keys currently holding live state, least-recently-used first."""
        return list(self.registers)

    @property
    def archived_keys(self) -> List[str]:
        """Keys demoted to compact archived records."""
        return sorted(self._archive)

    def storage_bytes(self) -> int:
        """Bytes of user data in live state plus archived records."""
        live = sum(server.storage_bytes()
                   for server in self.registers.values()
                   if hasattr(server, "storage_bytes"))
        return live + sum(len(blob) for blob in self._archive.values())

    # -- key lifecycle -----------------------------------------------------
    def register_server(self, name: str) -> Any:
        """The live per-key server for ``name`` (created or rehydrated).

        Touching a key marks it most-recently-used; the touch may demote
        another key to stay within ``max_resident``.
        """
        server = self.registers.get(name)
        if server is not None:
            if self.max_resident is not None:
                # LRU order only matters when a cap can evict; skip the
                # per-touch reorder on unbounded tables (the hot path).
                self.registers.move_to_end(name)
            return server
        blob = self._archive.pop(name, None)
        if blob is not None:
            server = self._rehydrate(name, blob)
            if self._c_rehydrations is not None:
                self._c_rehydrations.inc()
                self._gauge_archived.set(len(self._archive))
        else:
            server = self._factory(name)
        self.registers[name] = server
        self._shed()
        if self._gauge_resident is not None:
            self._gauge_resident.set(len(self.registers))
        return server

    def _rehydrate(self, name: str, blob: bytes) -> Any:
        try:
            server = restore_server(blob, codec=self._codec)
        except ProtocolError:  # archived by an older build; start fresh
            return self._factory(name)
        # Until the history moves, demoting again is putting ``blob`` back.
        self._clean[name] = (blob, snapshot_mark(server))
        return server

    def _shed(self) -> None:
        """Demote longest-idle keys until the residency cap holds."""
        if self.max_resident is None:
            return
        while len(self.registers) > self.max_resident:
            victim = None
            for key in self.registers:
                if key not in self._pinned:
                    victim = key
                    break
            if victim is None:
                return  # everything resident is unevictable
            if not self._demote(victim):
                # Cannot snapshot this protocol: pin it and retry with
                # the next-oldest key (the cap may overshoot by the
                # pinned count, never by unbounded garbage).
                self._pinned.add(victim)

    def _demote(self, key: str) -> bool:
        """Evict ``key``, serialising only a history its record lacks.

        Unchanged since it was rehydrated: the record it came from goes
        back.  Never written: no record at all, the factory re-creates
        it.  Otherwise :func:`snapshot_server`.  Persistence decides all
        three, so a protocol it cannot snapshot is pinned, never dropped.
        """
        server = self.registers[key]
        mark = snapshot_mark(server)
        if mark is None:
            return False
        blob, clean_mark = self._clean.pop(key, (None, None))
        if clean_mark is not mark:
            blob = None
            if not is_pristine(server):
                try:
                    blob = snapshot_server(server)
                except ProtocolError:
                    return False
                if self._c_snapshots is not None:
                    self._c_snapshots.inc()
        if self._codec is None:
            self._codec = getattr(server, "codec", None)
        del self.registers[key]
        if blob is not None:
            self._archive[key] = blob
        if self._c_evictions is not None:
            self._c_evictions.inc()
            self._gauge_archived.set(len(self._archive))
        return True

    # -- message flow ------------------------------------------------------
    def handle(self, sender: ProcessId, message: Any) -> List[Envelope]:
        """Validate, route to the key's server, wrap what needs it.

        A reply to the requesting party goes back *bare*: the reader
        named the register in its own query, and its ``op_id`` already
        pins the operation (see :meth:`NamespacedOperation.on_reply`).
        Everything else -- messages to peer servers, whose tables route
        by register, and pushes to parties other than the sender --
        keeps the wrapper.
        """
        if not isinstance(message, NamespacedMessage):
            return []
        register = message.register
        if (register not in self.registers
                and register not in self._archive
                and key_error(register, self.max_key_len) is not None):
            if self._c_rejected is not None:
                self._c_rejected.inc()
            return []
        server = self.register_server(register)
        replies = server.handle(sender, message.inner)
        if self.behavior is not None:
            replies = self.behavior.on_message(
                server, sender, message.inner, replies)
        origin = None if sender in self.peers else sender
        return [
            (dest, reply if dest == origin
             else NamespacedMessage(register=register, inner=reply))
            for dest, reply in replies
        ]
