"""Deliver bytes to a runtime protocol the way a socket transport does."""


def deliver(protocol, data, max_read=None):
    """Feed ``data`` through ``get_buffer`` / ``buffer_updated``.

    One iteration is one ``recv_into``: ask the protocol for its buffer,
    fill at most ``len(view)`` bytes of it (at most ``max_read``, to
    model short reads), report the count.  Like the selector transport,
    an empty buffer is an error; unlike it, delivery goes on after the
    protocol closed its transport, so a test can show that late reads
    on a dying connection do not raise.
    """
    data = memoryview(data)
    while data:
        view = protocol.get_buffer(-1)
        assert len(view) > 0, "get_buffer() returned an empty buffer"
        n = min(len(view), len(data), max_read or len(data))
        view[:n] = data[:n]
        del view  # the transport keeps no reference past the read
        protocol.buffer_updated(n)
        data = data[n:]
