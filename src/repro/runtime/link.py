"""The runtime's one outbound channel: a self-healing framed TCP link.

The paper assumes reliable, authenticated point-to-point channels and
nothing stronger; :class:`Link` is that channel.  A client holds one per
server, a broadcast-protocol node one per peer server -- the same class,
told what to do with inbound frames and with going up or down.

* **Outbound** payloads leave once per event-loop tick: the tick's
  queue is batch-sealed and handed to the transport in one ``write``.
  The queue is bounded; past :data:`PEER_QUEUE_LIMIT` the *oldest*
  payload is shed and reported through ``on_drop``.
* **Naming** is per connection: a burst is sealed with the sender's
  name until the owner marks the link :attr:`~Link.bound` -- it has
  verified a reply on this connection, so the far end has bound the
  connection to the sender -- and nameless after that.  A fresh
  connection starts named again.
* **Flow control** is the transport's own: ``pause_writing`` holds the
  queue, ``resume_writing`` flushes it in order.  There is no timer.
* **Inbound** bytes are received *into* one ``FrameAssembler`` (the
  link is an ``asyncio.BufferedProtocol``: no allocation and no copy
  per read) and parsed in place for ``on_frames``; an oversized frame
  cannot be re-synchronised past, so it resets this link (and only
  this link); an owner that loses the stream (a reply delta on a base
  it does not hold) does the same through :meth:`Link.reset`.
* **Loss** fires ``on_down`` and, under ``reconnect``, re-dials with
  exponential backoff plus jitter; ``on_up`` fires on every established
  connection, which is where an owner replays what it still needs.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.transport.codec import FrameAssembler, frame_burst

#: Outbound payloads queued per link before the oldest are shed.  The
#: protocols tolerate message loss towards one party (that is their
#: point), so shedding under a long partition or behind a reader that
#: stopped reading beats unbounded buffering.
PEER_QUEUE_LIMIT = 4096


def _ignore(*args: Any) -> None:
    """Default handler: the owner does not care about this event."""


class Link(asyncio.BufferedProtocol):
    """One self-healing outbound connection to ``address``.

    ``seal(payloads, named=)`` maps a tick's payloads to wire frames.
    The handlers are all optional: ``on_frames(frames, now)`` fires once
    per read with the frames it completed (possibly none) and the loop
    time the bytes arrived -- the frames are ``memoryview`` slices of the
    receive buffer, valid until the link's next read (the assembler's
    next ``writable()``), so a handler copies what must outlive that;
    ``on_up()`` / ``on_down()`` bracket each established connection;
    ``on_flush()`` fires once per burst written; ``on_drop(reason,
    detail)`` once per payload shed from a full queue and once per
    oversized inbound frame.
    """

    def __init__(self, address: Tuple[str, int],
                 seal: Callable[..., Sequence[bytes]], *,
                 on_frames: Callable[[List[memoryview], float], Any] = _ignore,
                 on_up: Callable[[], Any] = _ignore,
                 on_down: Callable[[], Any] = _ignore,
                 on_flush: Callable[[], Any] = _ignore,
                 on_drop: Callable[[str, str], Any] = _ignore,
                 backoff_base: float = 0.05, backoff_max: float = 2.0,
                 reconnect: bool = True) -> None:
        self.address = address
        self.seal = seal
        self.on_frames = on_frames
        self.on_up = on_up
        self.on_down = on_down
        self.on_flush = on_flush
        self.on_drop = on_drop
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.reconnect = reconnect
        self._loop = asyncio.get_running_loop()
        self._transport: Optional[asyncio.Transport] = None
        self._assembler = FrameAssembler()
        self._queue: "deque[bytes]" = deque()
        #: A flush is already scheduled for this tick.
        self._scheduled = False
        #: The transport's write buffer is over its high-water mark.
        self._paused = False
        self._closed = False
        self._task: Optional[asyncio.Task] = None
        #: The current connection delivered a verified reply, so its far
        #: end knows the sender: bursts go nameless.  Set by the owner
        #: (only it holds the keys), cleared by every new connection.
        self.bound = False

    @property
    def redialing(self) -> bool:
        """Whether the background dial task is running."""
        return self._task is not None and not self._task.done()

    # -- dialing -------------------------------------------------------------
    async def dial(self) -> bool:
        """One connection attempt, now; returns whether the link is up.

        Callers must not overlap it with a running :meth:`redial`.
        """
        if self._transport is None and not self._closed:
            try:
                await self._loop.create_connection(lambda: self,
                                                   *self.address)
            except OSError:
                return False
        return self._transport is not None

    def redial(self, at_once: bool = False) -> None:
        """Dial in the background until the link is up.

        The first attempt waits out one backoff step unless ``at_once``
        (a link that just went down must not hammer a peer that accepts
        and closes).  Without ``reconnect`` only an ``at_once`` call
        dials, once.  No-op after :meth:`close`, while up, or while
        already dialing.
        """
        if ((self.reconnect or at_once) and not self._closed
                and not self.redialing and self._transport is None):
            self._task = self._loop.create_task(self._redial(at_once))

    async def _redial(self, at_once: bool) -> None:
        # Cancellation propagates: a cancelled link stays down.
        attempt = 0
        while not self._closed:
            if not at_once:
                delay = min(self.backoff_max,
                            self.backoff_base * (2 ** min(attempt, 16)))
                # Full jitter keeps a fleet of links from re-dialing a
                # freshly restarted server in lockstep.
                await asyncio.sleep(delay * (0.5 + random.random()))
                attempt += 1
            at_once = False
            if await self.dial() or not self.reconnect:
                return

    def close(self) -> None:
        """Stop dialing and drop the connection; nothing fires after."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    # -- sending -------------------------------------------------------------
    def send(self, payload: bytes) -> None:
        """Queue one encoded payload for this tick's burst.

        While the link is down or paused the payload waits (bounded) for
        the next connection or ``resume_writing``.
        """
        queue = self._queue
        queue.append(payload)
        if len(queue) > PEER_QUEUE_LIMIT:
            queue.popleft()
            self.on_drop("queue-shed", "send queue full, shed the oldest "
                         "payload")
        if not self._scheduled:
            self._scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._scheduled = False
        transport = self._transport
        if transport is None or self._paused or not self._queue:
            return
        payloads = list(self._queue)
        self._queue.clear()
        transport.write(frame_burst(self.seal(payloads,
                                              named=not self.bound)))
        self.on_flush()

    # -- asyncio.BufferedProtocol --------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        if self._closed:
            transport.close()
            return
        self._transport = transport
        self._assembler = FrameAssembler()
        self._paused = False
        self.bound = False
        self.on_up()
        self._flush()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._assembler.writable(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frames = self._assembler.filled(nbytes)
        except ProtocolError as exc:
            self.reset("bad-frame", exc)  # oversized frame
            return
        self.on_frames(frames, self._loop.time())

    def reset(self, reason: str, detail: Any) -> None:
        """Poisoned past this point: drop the connection, re-dial clean."""
        self.on_drop(reason, f"resetting link: {detail}")
        if self._transport is not None:
            self._transport.close()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._flush()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._transport is None:
            return  # closed by us, or refused in connection_made
        self._transport = None
        self.on_down()
        self.redial()
