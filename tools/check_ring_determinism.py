"""Ring-determinism lint: one spec, one placement, everywhere, forever.

Sharding is only safe if every component that maps a key to its server
group computes the *same* map: a client routing a write, a server
validating its share, the simulator checking consistency, the CLI
answering ``repro keys locate``.  This check (`make lint` runs it)
derives the placement of 512 keys through each of those paths from one
fixed spec and fails loudly on any disagreement.

It also pins a golden fingerprint of that placement.  The fingerprint
is a SHA-256 over every key -> group assignment, so *any* change to the
ring hash, the vnode walk, or the group-selection order shows up here
as a mismatch.  That is deliberate: such a change silently remaps live
data, so it must be a conscious decision -- re-pin GOLDEN_FINGERPRINT
in the same commit and call out the data migration in the message.

Exit status: 0 on success, 1 on any placement disagreement or drift.
"""

import sys

from repro.core.register import RegisterSystem
from repro.deploy import ClusterSpec
from repro.sharding import key_name

#: The fixed deployment every path derives placement from.
SPEC = dict(algorithm="bsr", f=1, n=9, secret="ring-lint",
            keyspace={"group_size": 5, "vnodes": 64, "seed": 7})

#: Keys fingerprinted (key-0000 .. key-0511).
KEYS = 512

#: Pinned placement digest for SPEC over KEYS keys.  A mismatch means
#: the hash/walk changed and existing deployments would reshuffle.
GOLDEN_FINGERPRINT = (
    "7ac31263afb06efcf707e1912f86e25e2c9acee9a5e9b8a1141e7d203d12560c")


def main() -> int:
    spec = ClusterSpec(**SPEC)
    config = spec.keyspace_config()
    group_size = config.group_size
    keys = [key_name(index) for index in range(KEYS)]

    # The four independent derivation paths.
    deploy = {key: spec.locate(key) for key in keys}
    client = spec.client("lint-client").fleet.placement
    simulator = RegisterSystem("bsr", f=spec.f, n=spec.n,
                               keyspace=config).fleet.placement
    reloaded = ClusterSpec.from_dict(spec.to_dict())

    failures = 0
    for key in keys:
        groups = {
            "deploy": deploy[key],
            "client": client.servers_for(key),
            "simulator": simulator.servers_for(key),
            "reloaded-spec": reloaded.locate(key),
        }
        if len(set(groups.values())) != 1:
            failures += 1
            if failures <= 5:
                detail = ", ".join(f"{path}={group}"
                                   for path, group in groups.items())
                sys.stderr.write(f"PLACEMENT DISAGREES for {key}: "
                                 f"{detail}\n")
    if failures:
        sys.stderr.write(f"ring determinism: {failures}/{KEYS} keys "
                         f"disagree across derivation paths\n")
        return 1

    fingerprint = spec.ring().fingerprint(keys, group_size)
    if fingerprint != GOLDEN_FINGERPRINT:
        sys.stderr.write(
            "ring fingerprint drift: the key -> group map for a fixed "
            "spec changed.\n"
            f"  pinned:   {GOLDEN_FINGERPRINT}\n"
            f"  computed: {fingerprint}\n"
            "If the ring change is intentional, re-pin "
            "GOLDEN_FINGERPRINT and flag the data reshuffle in the "
            "commit message.\n")
        return 1

    sys.stderr.write(f"ring determinism: {KEYS} keys, 4 derivation "
                     f"paths, fingerprint pinned -- ok\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
