"""Sharded multi-register keyspace: placement, per-key state, routing.

The paper gives one semi-fast Byzantine-tolerant register; a production
store serves millions.  The composition results (Hu--Toueg 2022,
Kshemkalyani et al. 2024 -- see PAPERS.md) justify building bigger
objects out of many registers; this package is the systems counterpart:

* :mod:`repro.sharding.ring` -- a deterministic consistent-hash ring
  (:class:`HashRing`) placing each key on an overlapping quorum *group*
  of servers, with per-group validation of the paper's ``n``-vs-``f``
  bounds, plus the serializable :class:`KeyspaceConfig` every party
  (client, node, simulator, CLI) derives the identical placement from.
* :mod:`repro.sharding.table` -- :class:`RegisterTable`, the bounded
  lazy per-key state table servers host (LRU demotion of idle cold keys
  to compact archived records, key validation before allocation).

Key-name validation itself lives in :mod:`repro.core.keys` (the core
layer uses it too); it is re-exported here for convenience.
"""

from repro.core.keys import MAX_KEY_LENGTH, key_error, key_name
from repro.sharding.ring import (
    DEFAULT_VNODES,
    HashRing,
    KeyspaceConfig,
    Placement,
)
from repro.sharding.table import RegisterTable

__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "KeyspaceConfig",
    "MAX_KEY_LENGTH",
    "Placement",
    "RegisterTable",
    "key_error",
    "key_name",
]
