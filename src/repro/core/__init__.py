"""The paper's contribution: BSR, BCSR and the regular-register extensions.

All protocol logic is written as transport-agnostic state machines:

* servers implement ``handle(sender, message) -> [(dest, message), ...]``;
* client operations implement ``start()`` / ``on_reply(...)`` returning
  batches of outgoing messages, plus ``done`` / ``result``.  Every
  protocol writes with the one :class:`WriteOperation`; BCSR's
  :func:`coded_write` gives it per-server coded elements to put.

The same classes run inside the discrete-event simulator
(:mod:`repro.core.processes`) and over real sockets (:mod:`repro.runtime`).

The package imports none of its modules: a node serving BSR needs
:mod:`repro.core.bsr` but not the coded register, the regular variants
or the simulator facade (:mod:`repro.core.register`).
"""
