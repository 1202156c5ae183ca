"""``repro node serve``: one OS process hosting one register server node.

The process lifecycle is deliberately boring, because supervisors depend
on it:

1. build the node from the :class:`~repro.deploy.spec.ClusterSpec`,
2. bind the listener (restoring any snapshot first),
3. emit one readiness line -- ``REPRO-NODE-READY <node> <host> <port>``
   -- on stdout and flush it (the supervisor blocks on this line; the
   port matters because specs default to ephemeral ports),
4. serve until SIGTERM/SIGINT, then stop cleanly (SIGKILL is the
   nemesis' job and needs no cooperation).

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
import logging
import signal
import sys
from typing import IO, Optional, Tuple

from repro.core.messages import (
    HealthAck,
    HealthPing,
    StatsAck,
    StatsPing,
    TraceAck,
    TraceDump,
)
from repro.deploy.spec import ClusterSpec
from repro.errors import ProtocolError
from repro.transport.auth import Authenticator
from repro.transport.codec import read_frame, write_frame
from repro.transport.codec2 import decode_message_v2, encode_message_v2
from repro.types import ProcessId

logger = logging.getLogger(__name__)

#: First token of the readiness line a node prints once it is bound.
READY_PREFIX = "REPRO-NODE-READY"

#: Everything :func:`health_ping` raises when a node is unhealthy.
PING_FAILURES = (OSError, EOFError, asyncio.TimeoutError, ProtocolError)


def format_ready_line(node_id: ProcessId, host: str, port: int) -> str:
    """The readiness line ``repro node serve`` prints after binding."""
    return f"{READY_PREFIX} {node_id} {host} {port}"


def parse_ready_line(line: str) -> Optional[Tuple[str, str, int]]:
    """``(node_id, host, port)`` if ``line`` is a readiness line, else None."""
    parts = line.strip().split()
    if len(parts) == 4 and parts[0] == READY_PREFIX:
        try:
            return parts[1], parts[2], int(parts[3])
        except ValueError:
            return None
    return None


async def serve_node(spec: ClusterSpec, node_id: ProcessId,
                     port: Optional[int] = None,
                     ready_out: Optional[IO[str]] = None,
                     stop_event: Optional[asyncio.Event] = None) -> None:
    """Run one node until SIGTERM/SIGINT (or ``stop_event``) fires.

    ``port`` pins the listener (supervisors pass the previously-bound
    port on restart so clients can re-dial the same address);
    ``ready_out`` defaults to stdout.
    """
    node = spec.build_node(node_id, port=port)
    await node.start()
    stream = ready_out if ready_out is not None else sys.stdout
    print(format_ready_line(node_id, node.host, node.port),
          file=stream, flush=True)

    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_event_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; rely on stop_event / KeyboardInterrupt
    try:
        await stop.wait()
    finally:
        await node.stop()
        logger.info("node %s stopped", node_id)


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
