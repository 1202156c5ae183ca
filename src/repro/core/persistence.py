"""Server state persistence: snapshot and restore across crashes.

Production storage servers restart; the paper's model treats a restarted
server as having been "slow" (its state must survive).  This module
serialises a server's durable state -- the history list ``L`` -- as a
JSON document, so a deployment can checkpoint to disk and recover.

Byzantine-safety note: a snapshot is local state, not a protocol message;
restoring a *stale* snapshot turns the server into an honestly-slow replica,
which the protocols already tolerate (at most ``f`` of them, like any
slow/faulty server).
"""

from __future__ import annotations

import base64
import importlib
import json
from typing import Any, Optional

from repro.core.tags import TAG_ZERO, Tag, TaggedValue
from repro.erasure.element import CodedElement
from repro.errors import ProtocolError

#: Server classes persistence understands: stable type name -> the module
#: and class it restores as, imported only when a snapshot is restored
#: (a node snapshotting BSR servers never loads the erasure codec).  ABD's
#: servers were once an ``ABDServer`` class of their own; snapshots on disk
#: that name it restore as the :class:`BSRServer` it always behaved as.
_SERVER_TYPES = {
    "BSRServer": ("repro.core.bsr", "BSRServer"),
    "RegularBSRServer": ("repro.core.regular", "RegularBSRServer"),
    "ABDServer": ("repro.core.bsr", "BSRServer"),
    "BCSRServer": ("repro.core.bcsr", "BCSRServer"),
}


def _to_json(value: Any) -> Any:
    # The snapshot format.  JSON-native shapes pass through because a
    # server stores whatever payload a client put.
    if isinstance(value, TaggedValue):
        return {"__tv__": [_to_json(value.tag), _to_json(value.value)]}
    if isinstance(value, Tag):
        return {"__tag__": [value.num, value.writer]}
    if isinstance(value, (bytes, bytearray)):
        return {"__b64__": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, CodedElement):
        return {"__ce__": [value.index, _to_json(value.data)]}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ProtocolError(f"cannot snapshot {type(value).__name__}: {value!r}")


def _from_json(value: Any) -> Any:
    if isinstance(value, list):
        return [_from_json(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "__tv__" in value:
        tag, inner = value["__tv__"]
        return TaggedValue(_from_json(tag), _from_json(inner))
    if "__tag__" in value:
        num, writer = value["__tag__"]
        return Tag(int(num), str(writer))
    if "__b64__" in value:
        return base64.b64decode(value["__b64__"])
    if "__ce__" in value:
        index, data = value["__ce__"]
        return CodedElement(int(index), _from_json(data))
    return {key: _from_json(item) for key, item in value.items()}


def snapshot_mark(server: Any) -> Optional[TaggedValue]:
    """The newest pair of a server :func:`snapshot_server` understands.

    Every such server only ever *appends* a strictly higher tag to ``L``,
    so while this is the same object (``is``) a snapshot would come out
    byte-identical to the last one -- what lets a cache of snapshots skip
    the serialisation.  ``None`` for any other server type.
    """
    if type(server).__name__ not in _SERVER_TYPES:
        return None
    return server.history[-1]


def is_pristine(server: Any) -> bool:
    """Whether a snapshot-able ``server`` is still as its constructor left it.

    One pair under ``TAG_ZERO``: nothing was ever stored, so a snapshot
    would record only what the server's factory builds anyway.
    """
    return len(server.history) == 1 and server.history[0].tag == TAG_ZERO


def snapshot_server(server: Any) -> bytes:
    """Serialise a server's durable state to bytes.

    Works for every server class in :mod:`repro.core` and
    :mod:`repro.baselines` whose state is the history list ``L``.
    """
    type_name = type(server).__name__
    if type_name not in _SERVER_TYPES:
        raise ProtocolError(f"cannot snapshot server type {type_name}")
    payload = {
        "type": type_name,
        "server_id": server.server_id,
        "max_history": getattr(server, "max_history", None),
        "history": [_to_json(pair) for pair in server.history],
    }
    if type_name == "BCSRServer":
        payload["index"] = server.index
        payload["codec"] = {"n": server.codec.n, "k": server.codec.k}
    return json.dumps(payload, separators=(",", ":")).encode()


def restore_server(snapshot: bytes, codec: Any = None) -> Any:
    """Rebuild a server from :func:`snapshot_server` output.

    ``codec`` overrides the recorded ``[n, k]`` shape for BCSR servers
    (useful when the codec object is shared across a deployment); by
    default the recorded shape is reconstructed.
    """
    try:
        payload = json.loads(snapshot.decode())
        module, name = _SERVER_TYPES[payload["type"]]
        history = [_from_json(pair) for pair in payload["history"]]
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed server snapshot: {exc}") from exc
    if not history or not all(isinstance(p, TaggedValue) for p in history):
        raise ProtocolError("snapshot history is empty or malformed")
    cls = getattr(importlib.import_module(module), name)
    if name == "BCSRServer":
        if codec is None:
            from repro.erasure.striping import StripedCodec
            shape = payload["codec"]
            codec = StripedCodec(int(shape["n"]), int(shape["k"]))
        server = cls(payload["server_id"], int(payload["index"]), codec,
                     max_history=payload.get("max_history"))
    else:
        server = cls(payload["server_id"],
                     max_history=payload.get("max_history"))
    server.restore(history)
    return server
