"""What one node process runs, and nothing else.

A node forked by the zygote (:func:`repro.node.serve.run_zygote`) or
started by ``repro node serve`` imports this package and the protocol it
hosts -- never the client, the in-process cluster, the supervisor or the
analysis side of :mod:`repro.obs` -- so its start-up pays only for the
code it runs:

* :mod:`repro.node.spec` -- :class:`~repro.node.spec.ClusterSpec`, the
  one file a deployment is built from;
* :mod:`repro.node.server` -- :class:`~repro.node.server.RegisterServerNode`
  and :func:`~repro.node.server.make_node`, the one place a node is built;
* :mod:`repro.node.link` and :mod:`repro.node.limits` -- the outbound
  connection (a peer's, or a client's) and per-client rate limits;
* :mod:`repro.node.serve` -- :func:`~repro.node.serve.serve_node`, the
  zygote, and the health/stats/trace probes.

The package imports none of its modules; :mod:`repro.deploy` and
:mod:`repro.runtime` re-export what their callers use.
"""
