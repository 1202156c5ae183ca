"""Support ``python -m repro``.

A node process starts here without the CLI: ``node zygote --spec PATH``
(what :class:`~repro.deploy.ClusterSupervisor` execs) and ``node serve
--spec PATH --node ID [--port N]`` go straight to
:func:`repro.node.serve.run_node`, so a node never builds the argparse
tree or imports a command it does not run.  Every other command line --
a node one included when this short parse does not take it (``--help``,
``--spec=PATH``, a bad port) -- goes to :func:`repro.cli.main`.
"""

import sys

#: ``node`` subcommand -> the options it requires, and the ones it may take.
_NODE_OPTIONS = {"zygote": ({"--spec"}, set()),
                 "serve": ({"--spec", "--node"}, {"--port"})}


def _node_options(argv):
    """The ``{--option: value}`` of a node command line, or ``None``."""
    if argv[:1] != ["node"] or len(argv) % 2 or argv[1] not in _NODE_OPTIONS:
        return None
    required, optional = _NODE_OPTIONS[argv[1]]
    options = dict(zip(argv[2::2], argv[3::2]))
    if (len(options) * 2 != len(argv) - 2 or not required <= set(options)
            or not set(options) <= required | optional
            or not options.get("--port", "0").isdigit()):
        return None
    return options


def main(argv):
    options = _node_options(argv)
    if options is None:
        from repro.cli import main as cli_main
        return cli_main(argv)
    import gc
    # What a node imports and builds before it serves lives as long as
    # the process: collecting on the way is pure cost (about a tenth of
    # its start-up).  run_node turns the collector back on.
    gc.disable()
    from repro.node.serve import run_node
    port = options.get("--port")
    return run_node(argv[1], options["--spec"], options.get("--node"),
                    None if port is None else int(port))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
