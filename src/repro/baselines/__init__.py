"""Baseline register emulations the paper compares against.

* :mod:`repro.baselines.rb_register`: the prior-work design family
  (Section I-B, e.g. Kanjani et al. [15]) -- writes disseminated through
  reliable broadcast with server-to-server relay.  One server class,
  :class:`BroadcastRegisterServer`, serves both ``rb`` (Bracha,
  ``n >= 3f + 1``) and ``rb2`` (Imbs-Raynal, ``n >= 5f + 1``); the
  broadcast is its :class:`BroadcastScheme`, and both share
  :class:`RelayReadOperation`.  Fewer servers than BSR, but every write
  pays extra server hops and reads may have to wait out the relay.
* :mod:`repro.baselines.abd`: the classic crash-tolerant ABD atomic register
  (``n >= 2f + 1``, two-round reads and writes) as a non-Byzantine sanity
  baseline for the workload experiments; its servers are plain
  :class:`~repro.core.bsr.BSRServer` instances.

Every baseline writes with the shared
:class:`~repro.core.operation.WriteOperation`.

The package imports neither module: ``abd`` needs no broadcast.
"""
