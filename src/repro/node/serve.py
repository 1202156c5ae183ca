"""The node process: ``serve_node``, and the zygote that forks it.

A node process's lifecycle is deliberately boring, because supervisors
depend on it:

1. build the node from the :class:`~repro.node.spec.ClusterSpec`,
2. bind the listener (restoring any snapshot first),
3. write one line -- ``READY <node> <host> <port> <pid>`` -- to stdout
   (the port matters because specs default to ephemeral ports),
4. serve until SIGTERM/SIGINT, then stop cleanly (SIGKILL is the
   nemesis' job and needs no cooperation).

Two entries run :func:`serve_node`.  ``repro node serve`` hosts one node
in its own interpreter, for hand-run and multi-host deployments.
``repro node zygote`` (:func:`run_zygote`) imports a node's code once and
forks one node process per ``spawn <node> [port]`` line on its stdin;
:class:`~repro.deploy.supervisor.ClusterSupervisor` starts and restarts
every node that way, so a node costs a fork, not an interpreter.  The
zygote's children share its stdout, so every line on it -- a child's
``READY``, the zygote's ``EXIT <node> <pid> <status>`` once it has
reaped a child -- is written with one ``os.write`` of well under
``PIPE_BUF`` bytes, which a pipe never interleaves with another write.

:func:`health_ping` is the matching probe: it dials a node, sends a
:class:`~repro.core.messages.HealthPing` frame through the normal
authenticated framing, and returns the node's
:class:`~repro.core.messages.HealthAck` -- proof the process is not just
accepting TCP but authenticating, decoding and replying.
:func:`stats_ping` is its scrape twin: same path, but the answer is the
node's full metric-registry snapshot (a
:class:`~repro.core.messages.StatsAck`).
"""

from __future__ import annotations

import asyncio
import gc
import logging
import os
import select
import signal
import time
from typing import Dict, NoReturn, Optional, Tuple, Union

from repro.core.messages import (
    HealthAck,
    HealthPing,
    StatsAck,
    StatsPing,
    TraceAck,
    TraceDump,
)
from repro.errors import ProtocolError
from repro.node.spec import ClusterSpec
from repro.transport.auth import Authenticator
from repro.transport.codec import read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from repro.types import ProcessId

logger = logging.getLogger(__name__)

#: First token of the line a node writes once it is bound, and of the
#: line the zygote writes once it has reaped a node.
READY, EXIT = "READY", "EXIT"

#: Everything :func:`health_ping` raises when a node is unhealthy.
PING_FAILURES = (OSError, EOFError, asyncio.TimeoutError, ProtocolError)

#: Signals the zygote handles itself; a forked node gets them back.
_ZYGOTE_SIGNALS = (signal.SIGCHLD, signal.SIGTERM, signal.SIGINT)

#: How long the zygote waits for SIGTERMed nodes before SIGKILL.
STOP_GRACE_S = 5.0


def write_line(fd: int, *fields: object) -> None:
    """Write ``fields`` as one line with a single ``os.write``."""
    os.write(fd, (" ".join(map(str, fields)) + "\n").encode())


def parse_line(line: str) -> Optional[Tuple[Union[str, int], ...]]:
    """``(READY, node, host, port, pid)`` or ``(EXIT, node, pid, status)``.

    ``None`` for any other line.  ``status`` is the node's exit code, or
    minus the signal that ended it.
    """
    parts = line.split()
    try:
        if len(parts) == 5 and parts[0] == READY:
            return READY, parts[1], parts[2], int(parts[3]), int(parts[4])
        if len(parts) == 4 and parts[0] == EXIT:
            return EXIT, parts[1], int(parts[2]), int(parts[3])
    except ValueError:
        pass
    return None


async def serve_node(spec: ClusterSpec, node_id: ProcessId,
                     port: Optional[int] = None,
                     stop_event: Optional[asyncio.Event] = None) -> None:
    """Run one node until SIGTERM/SIGINT (or ``stop_event``) fires.

    ``port`` pins the listener (supervisors pass the previously-bound
    port on restart so clients can re-dial the same address).
    """
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; rely on stop_event / KeyboardInterrupt
    node = spec.build_node(node_id, port=port)
    await node.start()
    # Only now: a node that says READY also stops cleanly on SIGTERM.
    write_line(1, READY, node_id, node.host, node.port, os.getpid())
    try:
        await stop.wait()
    finally:
        await node.stop()
        logger.info("node %s stopped", node_id)


def run_node(command: str, spec_path: str, node_id: Optional[ProcessId] = None,
             port: Optional[int] = None) -> int:
    """``repro node zygote`` (fork nodes on request) or ``repro node
    serve`` (host ``node_id`` in this process) from the spec file."""
    spec = ClusterSpec.from_file(spec_path)
    if command == "zygote":
        return run_zygote(spec)
    gc.enable()
    try:
        asyncio.run(serve_node(spec, node_id, port=port))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def run_zygote(spec: ClusterSpec) -> int:
    """Fork one :func:`serve_node` process per ``spawn`` line on stdin.

    The zygote runs no thread and no event loop: it blocks in ``select``
    on stdin and on the wake-up pipe SIGCHLD writes to, forks on
    ``spawn <node> [port]`` and writes ``EXIT <node> <pid> <status>``
    for every child it reaps.  EOF on stdin -- the supervisor closed it,
    or died -- or SIGTERM/SIGINT makes it SIGTERM its children, wait for
    them (SIGKILL after :data:`STOP_GRACE_S`) and exit.
    """
    children: Dict[int, ProcessId] = {}
    stopping = []
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    saved = {signum: signal.getsignal(signum) for signum in _ZYGOTE_SIGNALS}
    signal.signal(signal.SIGCHLD, lambda *_: None)
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    signal.signal(signal.SIGINT, lambda *_: stopping.append(True))
    signal.set_wakeup_fd(wake_w)
    # Everything imported so far is shared with every child; keep the
    # collector from writing to (and so copying) those pages.  Building
    # ``spec`` looked its protocol up, which imported the protocol's
    # module, so a child imports nothing of the package after the fork.
    # (``python -m repro`` starts a node with the collector off.)
    gc.freeze()
    gc.enable()

    def reap(flags: int) -> None:
        while children:
            try:
                pid, status = os.waitpid(-1, flags)
            except ChildProcessError:
                return
            if pid == 0:
                return
            node_id = children.pop(pid, None)
            if node_id is not None:
                try:
                    write_line(1, EXIT, node_id, pid,
                               os.waitstatus_to_exitcode(status))
                except BrokenPipeError:
                    pass  # the supervisor is gone; stdin says so too

    def wait(fds: list, timeout: Optional[float] = None) -> list:
        readable = select.select(fds + [wake_r], [], [], timeout)[0]
        if wake_r in readable:
            while True:
                try:
                    os.read(wake_r, 512)
                except BlockingIOError:
                    break
            reap(os.WNOHANG)
        return readable

    pending = b""
    while not stopping:
        if 0 not in wait([0]):
            continue
        chunk = os.read(0, 4096)
        if not chunk:
            break
        *lines, pending = (pending + chunk).split(b"\n")
        for line in lines:
            command = line.decode().split()
            if command[:1] != ["spawn"] or len(command) not in (2, 3):
                logger.warning("zygote: ignoring %r", line)
                continue
            port = int(command[2]) if len(command) == 3 else None
            # Blocked across the fork, so a child never runs a zygote
            # handler: it restores the defaults first, then unblocks.
            signal.pthread_sigmask(signal.SIG_BLOCK, _ZYGOTE_SIGNALS)
            pid = os.fork()
            if pid == 0:
                _serve_forked(spec, command[1], port, saved, (wake_r, wake_w))
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ZYGOTE_SIGNALS)
            children[pid] = command[1]

    for pid in children:
        os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + STOP_GRACE_S
    while children and time.monotonic() < deadline:
        wait([], max(0.0, deadline - time.monotonic()))
    for pid in children:
        os.kill(pid, signal.SIGKILL)
    reap(0)
    return 0


def _serve_forked(spec: ClusterSpec, node_id: ProcessId,
                  port: Optional[int], saved: Dict, fds: Tuple[int, ...]
                  ) -> NoReturn:
    """A zygote child: undo the zygote's set-up, serve, ``os._exit``."""
    status = 1
    try:
        signal.set_wakeup_fd(-1)
        for signum, handler in saved.items():
            signal.signal(signum, handler)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _ZYGOTE_SIGNALS)
        for fd in fds:
            os.close(fd)
        devnull = os.open(os.devnull, os.O_RDONLY)
        os.dup2(devnull, 0)  # the zygote's commands are not ours to read
        os.close(devnull)
        asyncio.run(serve_node(spec, node_id, port=port))
        status = 0
    except Exception:
        logger.exception("node %s failed", node_id)
    finally:
        os._exit(status)


async def _node_ping(address: Tuple[str, int], auth: Authenticator, ping,
                     expect: type, probe_id: ProcessId, timeout: float):
    """Send one node-level request frame and await its typed reply."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*address), timeout)
    try:
        write_frame(writer, auth.seal(probe_id, encode_message_v2(ping)))
        await writer.drain()
        frame = await asyncio.wait_for(read_frame(reader), timeout)
        sender, payloads = auth.open_any(frame)
        message = decode_message_v2(payloads[0])
        if not isinstance(message, expect):
            raise ProtocolError(
                f"expected {expect.__name__} from {sender}, got "
                f"{type(message).__name__}")
        if message.node_id != sender:
            # Any key the probe knows verifies the frame; only the
            # signer may speak for a node.
            raise ProtocolError(
                f"{expect.__name__} signed by {sender} claims to come "
                f"from {message.node_id}")
        return message
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


async def health_ping(address: Tuple[str, int], auth: Authenticator,
                      probe_id: ProcessId = "probe",
                      timeout: float = 2.0) -> HealthAck:
    """Probe a node end to end; raises ``OSError``/``TimeoutError`` on failure.

    The probe exercises the full stack -- TCP accept, HMAC verification,
    frame decoding -- so a positive answer means the node can serve real
    protocol traffic, not merely that something listens on the port.
    """
    return await _node_ping(address, auth, HealthPing(op_id=1), HealthAck,
                            probe_id, timeout)


async def stats_ping(address: Tuple[str, int], auth: Authenticator,
                     probe_id: ProcessId = "probe",
                     timeout: float = 2.0) -> StatsAck:
    """Scrape a node's metric registry over the authenticated framing.

    The returned :class:`~repro.core.messages.StatsAck` carries the
    node's :meth:`~repro.obs.MetricRegistry.snapshot` document --
    counters, gauges and per-phase histograms -- ready for
    :func:`repro.obs.render_prometheus` or JSON reporting.
    """
    return await _node_ping(address, auth, StatsPing(op_id=1), StatsAck,
                            probe_id, timeout)


async def trace_dump(address: Tuple[str, int], auth: Authenticator,
                     target_op: int = -1, limit: int = 0,
                     probe_id: ProcessId = "probe",
                     timeout: float = 2.0) -> TraceAck:
    """Scrape a node's flight-recorder records (server-side span halves).

    ``target_op`` narrows the dump to one operation (``-1`` = all
    retained records); ``limit`` keeps only the newest that many.  The
    returned :class:`~repro.core.messages.TraceAck` records join with
    client span records through :func:`repro.obs.stitch`.
    """
    return await _node_ping(address, auth,
                            TraceDump(op_id=1, target_op=target_op,
                                      limit=limit),
                            TraceAck, probe_id, timeout)
