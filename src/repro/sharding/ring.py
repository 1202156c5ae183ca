"""Consistent-hash placement of keys onto overlapping quorum groups.

A production keyspace cannot give every key its own ``n`` servers, and it
cannot send every key to *all* servers either (that caps throughput at one
group's capacity).  The middle ground -- the one the register-composition
results build on -- is to place each key on a fixed-size *group* of
servers and run the paper's protocol inside that group: safety and
liveness are per key, so each group only has to satisfy the per-register
bounds (``n >= 4f + 1`` for BSR, etc.) with respect to its own size.

:class:`HashRing` implements the classic consistent-hash construction:
every node owns ``vnodes`` pseudo-random points on a 64-bit ring (derived
from a deterministic seed, so every party -- client, server, simulator,
tooling -- computes the identical ring from the same spec), a key hashes
to a point, and its group is the next ``group_size`` *distinct* nodes
clockwise.  Groups overlap, which is what spreads load: two keys landing
one vnode apart share most of their group but not all of it.

Group members are returned **sorted by node id**, not in ring order.
Ring order is an artifact of the walk; sorting makes the group a
canonical set, lets index-aligned protocols (the MDS-coded BCSR) work in
the degenerate ``group_size == n`` case, and makes placement trivially
comparable across implementations (the determinism lint hashes it).

:class:`KeyspaceConfig` is the serializable description (group size,
vnode count, seed, residency bounds) embedded in a
:class:`~repro.deploy.spec.ClusterSpec` so one file pins the placement
for the whole deployment.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.keys import MAX_KEY_LENGTH, key_error
from repro.errors import ConfigurationError
from repro.types import ProcessId


#: Default vnodes per physical node: enough for <2% load imbalance at
#: tens of nodes while keeping ring construction trivially cheap.
DEFAULT_VNODES = 64

#: How many resolved key -> group entries a :class:`Placement` caches.
_GROUP_CACHE = 65536


def _point(seed: int, label: str) -> int:
    """A node's (or key's) deterministic 64-bit ring position."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class KeyspaceConfig:
    """Serializable description of a sharded keyspace.

    Parameters
    ----------
    group_size:
        Servers per key.  Must satisfy the hosted algorithm's
        per-register bound for the deployment's ``f`` (validated by
        :meth:`validate`).
    vnodes:
        Virtual nodes per physical node on the ring.
    seed:
        Ring seed.  Every party hashing the same ``(seed, node)`` pairs
        computes the identical placement -- change it only by rolling the
        whole deployment.
    max_resident:
        Per-node cap on fully materialised per-key register states
        (``None`` = unbounded).  Beyond the cap the node's
        :class:`~repro.sharding.table.RegisterTable` evicts the
        longest-idle key to a compact archived record.
    max_key_len:
        Longest accepted key name (defense against key-space DoS).
    """

    group_size: int
    vnodes: int = DEFAULT_VNODES
    seed: int = 0
    max_resident: Optional[int] = None
    max_key_len: int = MAX_KEY_LENGTH

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ConfigurationError(
                f"group_size must be at least 1, got {self.group_size}")
        if self.vnodes < 1:
            raise ConfigurationError(
                f"vnodes must be at least 1, got {self.vnodes}")
        if self.max_resident is not None and self.max_resident < 1:
            raise ConfigurationError(
                f"max_resident must be at least 1, got {self.max_resident}")
        if self.max_key_len < 1:
            raise ConfigurationError(
                f"max_key_len must be at least 1, got {self.max_key_len}")

    def validate(self, algorithm: str, f: int, n: int) -> None:
        """Check the paper's bounds hold *per group* for this deployment.

        ``n`` is the fleet size; every group must fit in it, and every
        group must itself satisfy the algorithm's ``n``-vs-``f`` bound
        (e.g. BSR's ``4f + 1 > 3f``) so each key's register is safe and
        semi-fast against ``f`` Byzantine servers.
        """
        from repro.protocols import get_spec
        spec = get_spec(algorithm)
        if not spec.namespaced_ok:
            raise ConfigurationError(
                f"algorithm {algorithm!r} does not support sharded "
                "keyspaces")
        if self.group_size < spec.min_servers(f):
            raise ConfigurationError(
                f"{algorithm} groups need >= {spec.min_servers(f)} servers "
                f"for f={f}, got group_size={self.group_size}")
        if self.group_size > n:
            raise ConfigurationError(
                f"group_size {self.group_size} exceeds the fleet size {n}")
        if spec.group_spans_fleet and self.group_size != n:
            raise ConfigurationError(
                f"{algorithm} shards require group_size == n: coded chunks "
                "are index-aligned to the server list, which only the full "
                "fleet preserves")

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Spec-embeddable dict; ``None`` fields are omitted."""
        out: Dict[str, Any] = {
            "group_size": self.group_size,
            "vnodes": self.vnodes,
            "seed": self.seed,
            "max_key_len": self.max_key_len,
        }
        if self.max_resident is not None:
            out["max_resident"] = self.max_resident
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KeyspaceConfig":
        known = {"group_size", "vnodes", "seed", "max_resident",
                 "max_key_len"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown keyspace keys: {sorted(unknown)}")
        if "group_size" not in data:
            raise ConfigurationError("keyspace requires a group_size")
        return cls(**data)

    def ring(self, nodes: Sequence[ProcessId]) -> "HashRing":
        """The ring this config describes over ``nodes``."""
        return HashRing(nodes, vnodes=self.vnodes, seed=self.seed)

    def placement(self, nodes: Sequence[ProcessId]) -> "Placement":
        """A cached key -> group resolver over ``nodes``."""
        return Placement(self.ring(nodes), self.group_size)

    def table_bounds(self) -> Dict[str, Any]:
        """The ``RegisterTable`` keyword bounds this keyspace sets."""
        return {"max_resident": self.max_resident,
                "max_key_len": self.max_key_len}


class HashRing:
    """A deterministic consistent-hash ring over a fixed node set."""

    def __init__(self, nodes: Sequence[ProcessId], vnodes: int = DEFAULT_VNODES,
                 seed: int = 0) -> None:
        if not nodes:
            raise ConfigurationError("a hash ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("ring nodes must be distinct")
        self.nodes: Tuple[ProcessId, ...] = tuple(sorted(nodes))
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, ProcessId]] = []
        for node in self.nodes:
            for replica in range(vnodes):
                points.append((_point(seed, f"{node}/{replica}"), node))
        # Sorting by (position, node) breaks position collisions -- which
        # sha256 makes absurdly unlikely -- the same way everywhere.
        points.sort()
        self._points = points
        self._positions = [pos for pos, _ in points]
        self._owners = [node for _, node in points]

    def key_point(self, key: str) -> int:
        """The key's position on the ring."""
        return _point(self.seed, f"key:{key}")

    def group(self, key: str, size: int) -> Tuple[ProcessId, ...]:
        """The ``size`` distinct nodes owning ``key``, sorted by id."""
        if size > len(self.nodes):
            raise ConfigurationError(
                f"group size {size} exceeds the {len(self.nodes)}-node ring")
        start = bisect_right(self._positions, self.key_point(key))
        owners = self._owners
        total = len(owners)
        picked: List[ProcessId] = []
        seen = set()
        for step in range(total):
            node = owners[(start + step) % total]
            if node not in seen:
                seen.add(node)
                picked.append(node)
                if len(picked) == size:
                    break
        return tuple(sorted(picked))

    def primary(self, key: str) -> ProcessId:
        """The first node clockwise of ``key`` (its group anchor)."""
        start = bisect_right(self._positions, self.key_point(key))
        return self._owners[start % len(self._owners)]

    # -- analysis ----------------------------------------------------------
    def load_share(self, keys: Iterable[str], size: int) -> Dict[ProcessId, int]:
        """How many of ``keys`` each node serves (group membership count)."""
        share: Dict[ProcessId, int] = {node: 0 for node in self.nodes}
        for key in keys:
            for node in self.group(key, size):
                share[node] += 1
        return share

    def moved_keys(self, other: "HashRing", keys: Iterable[str],
                   size: int) -> List[str]:
        """Keys whose group differs between this ring and ``other``.

        The consistent-hash selling point, made measurable: adding or
        removing one node should move roughly ``1/n`` of the keyspace,
        not reshuffle it wholesale.
        """
        return [key for key in keys
                if self.group(key, min(size, len(self.nodes)))
                != other.group(key, min(size, len(other.nodes)))]

    def fingerprint(self, keys: Iterable[str], size: int) -> str:
        """A stable digest of the placement of ``keys``.

        Equal fingerprints mean byte-identical placement; the
        ring-determinism lint pins one so accidental changes to the hash
        or the walk cannot slip in as silent data reshuffles.
        """
        digest = hashlib.sha256()
        for key in keys:
            digest.update(key.encode())
            digest.update(b"=")
            digest.update(",".join(str(n) for n in self.group(key, size)).encode())
            digest.update(b";")
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HashRing(nodes={len(self.nodes)}, vnodes={self.vnodes}, "
                f"seed={self.seed})")


class Placement:
    """A cached key -> quorum-group resolver clients and tools share."""

    def __init__(self, ring: HashRing, group_size: int) -> None:
        if group_size > len(ring.nodes):
            raise ConfigurationError(
                f"group size {group_size} exceeds the "
                f"{len(ring.nodes)}-node ring")
        self.ring = ring
        self.group_size = group_size
        self._cache: "OrderedDict[str, Tuple[ProcessId, ...]]" = OrderedDict()

    def servers_for(self, key: str) -> Tuple[ProcessId, ...]:
        """The key's quorum group (validated name, LRU-cached resolve)."""
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        reason = key_error(key)
        if reason is not None:
            raise ConfigurationError(f"invalid key {key!r}: {reason}")
        group = self.ring.group(key, self.group_size)
        self._cache[key] = group
        if len(self._cache) > _GROUP_CACHE:
            self._cache.popitem(last=False)
        return group

    def group_label(self, group: Tuple[ProcessId, ...]) -> str:
        """Metric-label form of a group (members joined by ``+``)."""
        return "+".join(str(node) for node in group)
