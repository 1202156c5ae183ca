"""repro: Semi-fast Byzantine-tolerant shared registers without reliable broadcast.

A production-quality reproduction of Konwar, Kumar & Tseng (ICDCS 2020):

* **BSR** -- replication-based multi-writer multi-reader *safe* register
  with one-shot (single-round) reads, ``n >= 4f + 1`` servers.
* **BCSR** -- MDS-erasure-coded single-writer multi-reader safe register
  with one-shot reads, ``n >= 5f + 1`` servers, ``1/k`` storage per server.
* **Regular extensions** -- history-based one-shot reads and two-round
  reads upgrading BSR to multi-writer regularity.
* **Baselines** -- the reliable-broadcast prior-work design
  (``n >= 3f + 1``) and crash-only ABD.
* **Substrates** -- a deterministic discrete-event simulator, a from-scratch
  Reed-Solomon codec with Berlekamp-Welch decoding, Bracha reliable
  broadcast, Byzantine behaviour injection, consistency checkers, workload
  generators and an asyncio TCP runtime.

Quickstart::

    from repro.core.register import RegisterSystem

    system = RegisterSystem("bsr", f=1)      # 5 servers, 1 Byzantine
    system.write(b"hello", writer=0, at=0.0)
    read = system.read(reader=0, at=10.0)
    system.run()
    assert read.value == b"hello"

The package re-exports nothing: every ``repro`` process -- each node,
each command -- imports this module, so it imports no subsystem.
"""

__version__ = "1.0.0"
