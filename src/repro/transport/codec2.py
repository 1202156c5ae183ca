"""The wire codec: compact tagged binary, length-delimited, no base64.

Every protocol message (a frozen dataclass registered in
:data:`MESSAGE_TYPES`) is encoded into a flat tagged binary form:

* one magic byte (``0xB2``); a payload that starts with anything else
  is rejected with :class:`~repro.errors.ProtocolError`;
* a varint message-type id (stable: assigned from the sorted registry
  names) and field count, pre-packed per class into a cached prefix;
* fields in dataclass order as tagged values -- raw ``bytes`` carried
  verbatim (sliced back out of the receive buffer via ``memoryview``,
  copied exactly once into the decoded object), varint integers,
  inlined ``Tag``/``TaggedValue``/``CodedElement`` shapes, and nested
  messages (``NamespacedMessage``) by recursion.

Round-trips are exact at the object level (``decode(encode(m)) == m``
for every registered type; ``tests/transport/test_codec2.py``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from struct import Struct
from typing import Any, Dict, List, Tuple

from repro.core import messages as message_module
from repro.core.namespace import NamespacedMessage
from repro.core.tags import Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import ProtocolError

#: First byte of every payload.
MAGIC_V2 = 0xB2

# Value tags.  One byte each; the hot shapes (bytes, ints, tags) come
# first only by convention -- dispatch is by exact byte.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03        # non-negative varint
_T_NEG_INT = 0x04    # varint of -(n + 1)
_T_FLOAT = 0x05      # 8-byte IEEE-754 big-endian
_T_BYTES = 0x06      # varint length + raw bytes
_T_STR = 0x07        # varint length + UTF-8
_T_TAG = 0x08        # varint num + varint writer-length + writer UTF-8
_T_TAGGED = 0x09     # inlined tag + value
_T_CODED = 0x0A      # varint index + varint length + raw bytes
_T_SEQ = 0x0B        # varint count + values (lists and tuples)
_T_DICT = 0x0C       # varint count + alternating key/value values
_T_MSG = 0x0D        # nested message (full v2 encoding, recursive)

_PACK_F64 = Struct(">d")
_UNPACK_F64 = _PACK_F64.unpack_from


def _uvarint(out: bytearray, n: int) -> None:
    """Append ``n >= 0`` as an unsigned LEB128 varint."""
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_uvarint(data, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ProtocolError("varint too long")


# -- registry ---------------------------------------------------------------
#: name -> message dataclass, discovered from the messages module.
MESSAGE_TYPES: Dict[str, type] = {
    name: obj for name, obj in vars(message_module).items()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    and issubclass(obj, message_module.BaseMessage)
}
MESSAGE_TYPES["NamespacedMessage"] = NamespacedMessage

# Type ids are assigned from the sorted registry names, so every process
# running this codebase derives the same table without negotiation.
_BY_ID: List[type] = [MESSAGE_TYPES[name] for name in sorted(MESSAGE_TYPES)]
_FIELDS: Dict[type, tuple] = {
    cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in _BY_ID}


def _prefix(type_id: int, nfields: int) -> bytes:
    out = bytearray([MAGIC_V2])
    _uvarint(out, type_id)
    _uvarint(out, nfields)
    return bytes(out)


_PREFIXES: Dict[type, bytes] = {
    cls: _prefix(type_id, len(_FIELDS[cls]))
    for type_id, cls in enumerate(_BY_ID)}
# Decoding may skip the dataclass __init__ (building the instance
# __dict__ directly) only when the class runs no validation on
# construction and stores fields in a plain __dict__.
_BYPASS_INIT: Dict[type, bool] = {
    cls: not hasattr(cls, "__post_init__") and not hasattr(cls, "__slots__")
    for cls in _BY_ID}
_OPID_FIRST: List[bool] = [_FIELDS[cls][:1] == ("op_id",) for cls in _BY_ID]

_NEW = object.__new__

# Namespaced (keyed) traffic wraps every hot message in a
# NamespacedMessage, whose first field is the register name rather than
# an op_id -- so without help it misses every op_id-keyed fast path
# below.  The wrapper's wire shape is fixed (magic, type id, nfields=2,
# _T_STR register, _T_MSG inner), which lets the caches and the peek see
# *through* it: skip the register string, then treat the inner message
# exactly like an unwrapped one.  The byte-level dispatch assumes the
# wrapper's type id fits one varint byte; guard it so registry growth
# degrades to the slow path instead of misparsing.
_NS_ID = _BY_ID.index(NamespacedMessage)
_NS_PREFIX = _PREFIXES[NamespacedMessage]
_NS_FAST = _NS_ID < 0x80 and len(_NS_PREFIX) == 3
#: Tail templates kept per shape by the namespaced decoder cache, and
#: register entries kept by the namespaced encoder cache.  Keyed
#: workloads touch many registers round-robin, so a single slot would
#: thrash; bounded tables capture the Zipf head plus the shared
#: zero-state templates of the cold tail.
_NS_CACHE_MAX = 512
#: Distinct inner shapes the decoder tracks (one per message class that
#: appears on the wire; the registry holds ~25 classes total).
_NS_SHAPES_MAX = 64


def _ns_spans(blob: bytes):
    """Template spans of a namespaced v2 payload, or ``None``.

    Returns ``(register_bytes, head_end, opid_end)`` where
    ``blob[:head_end]`` covers everything up to and including the inner
    ``_T_INT`` op_id marker and ``blob[opid_end:]`` is the remainder
    after the op_id varint.  ``None`` when the payload is not the
    one-byte-length shape the fast paths handle (callers fall back to
    the full decode, which stays authoritative).
    """
    if blob[2] != 2 or blob[3] != _T_STR:
        return None
    rlen = blob[4]
    if rlen >= 0x80:
        return None
    rend = 5 + rlen
    if blob[rend] != _T_MSG or blob[rend + 1] != MAGIC_V2:
        return None
    pos = rend + 2
    if blob[pos] < 0x80:
        pos += 1
    else:
        _, pos = _read_uvarint(blob, pos)
    if blob[pos] < 0x80:
        pos += 1
    else:
        _, pos = _read_uvarint(blob, pos)
    if blob[pos] != _T_INT:
        return None
    head_end = pos + 1
    if blob[head_end] < 0x80:
        opid_end = head_end + 1
    else:
        _, opid_end = _read_uvarint(blob, head_end)
    return blob[5:rend], head_end, opid_end

# Tag.__post_init__ only rejects negative numbers, and the wire carries
# tag numbers as unsigned varints -- no byte sequence can decode to a
# negative num -- so decode may skip the frozen-dataclass __init__ and
# fill the instance __dict__ directly (half the construction cost).
_TAG_BYPASS = not hasattr(Tag, "__slots__")
_TV_BYPASS = (not hasattr(TaggedValue, "__post_init__")
              and not hasattr(TaggedValue, "__slots__"))


# _encode_value appends one-byte varints (n < 0x80) inline -- small
# lengths and ids dominate real traffic, mirroring the decode fast path.

def _encode_value(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is bytes or kind is bytearray or kind is memoryview:
        out.append(_T_BYTES)
        length = len(value)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += value
    elif kind is int:
        if 0 <= value < 0x80:
            out.append(_T_INT)
            out.append(value)
        elif value >= 0:
            out.append(_T_INT)
            _uvarint(out, value)
        else:
            out.append(_T_NEG_INT)
            _uvarint(out, -value - 1)
    elif kind is str:
        raw = value.encode()
        out.append(_T_STR)
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
    elif kind is Tag:
        out.append(_T_TAG)
        num = value.num
        if 0 <= num < 0x80:
            out.append(num)
        else:
            _uvarint(out, num)
        raw = value.writer.encode()
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
    elif value is None:
        out.append(_T_NONE)
    elif kind is TaggedValue:
        out.append(_T_TAGGED)
        tag = value.tag
        num = tag.num
        if 0 <= num < 0x80:
            out.append(num)
        else:
            _uvarint(out, num)
        raw = tag.writer.encode()
        length = len(raw)
        if length < 0x80:
            out.append(length)
        else:
            _uvarint(out, length)
        out += raw
        _encode_value(out, value.value)
    elif kind is CodedElement:
        out.append(_T_CODED)
        _uvarint(out, value.index)
        _uvarint(out, len(value.data))
        out += value.data
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _PACK_F64.pack(value)
    elif kind is tuple or kind is list:
        out.append(_T_SEQ)
        _uvarint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif kind is dict:
        out.append(_T_DICT)
        _uvarint(out, len(value))
        for key, item in value.items():
            _encode_value(out, key)
            _encode_value(out, item)
    elif kind in _PREFIXES:
        out.append(_T_MSG)
        _encode_into(out, value)
    else:
        # Tolerate subclasses the exact-type fast paths missed.
        if isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            _uvarint(out, len(value))
            out += value
        elif isinstance(value, bool):
            out.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            _encode_value(out, int(value))
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _PACK_F64.pack(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_SEQ)
            _uvarint(out, len(value))
            for item in value:
                _encode_value(out, item)
        else:
            raise ProtocolError(
                f"cannot serialize {type(value).__name__}: {value!r}")


def _encode_into(out: bytearray, message: Any) -> None:
    cls = type(message)
    prefix = _PREFIXES.get(cls)
    if prefix is None:
        raise ProtocolError(
            f"{cls.__name__} is not a registered message type")
    out += prefix
    encode_value = _encode_value
    for name in _FIELDS[cls]:
        encode_value(out, getattr(message, name))


def encode_message_v2(message: Any) -> bytes:
    """Serialize one protocol message to compact binary bytes."""
    # _encode_into's body, inlined: one call layer per message matters
    # at wire-path rates.
    cls = type(message)
    prefix = _PREFIXES.get(cls)
    if prefix is None:
        raise ProtocolError(
            f"{cls.__name__} is not a registered message type")
    out = bytearray(prefix)
    encode_value = _encode_value
    for name in _FIELDS[cls]:
        encode_value(out, getattr(message, name))
    return bytes(out)


# _decode_value inlines the one-byte varint case (b < 0x80) at every
# length/count read -- small fields dominate real traffic, and skipping
# the _read_uvarint call per field is a measurable share of decode time.

def _decode_value(data, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_BYTES:
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated bytes value")
        return bytes(data[pos:end]), end
    if tag == _T_INT:
        value = data[pos]
        if value < 0x80:
            return value, pos + 1
        return _read_uvarint(data, pos)
    if tag == _T_NEG_INT:
        value = data[pos]
        if value < 0x80:
            pos += 1
        else:
            value, pos = _read_uvarint(data, pos)
        return -value - 1, pos
    if tag == _T_STR:
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated string value")
        return str(data[pos:end], "utf-8"), end
    if tag == _T_TAG:
        num = data[pos]
        if num < 0x80:
            pos += 1
        else:
            num, pos = _read_uvarint(data, pos)
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated tag writer")
        if _TAG_BYPASS:
            tag_obj = _NEW(Tag)
            fields = tag_obj.__dict__
            fields["num"] = num
            fields["writer"] = str(data[pos:end], "utf-8")
            return tag_obj, end
        return Tag(num, str(data[pos:end], "utf-8")), end
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TAGGED:
        num = data[pos]
        if num < 0x80:
            pos += 1
        else:
            num, pos = _read_uvarint(data, pos)
        length = data[pos]
        if length < 0x80:
            pos += 1
        else:
            length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated tagged value")
        writer = str(data[pos:end], "utf-8")
        value, pos = _decode_value(data, end)
        if _TAG_BYPASS and _TV_BYPASS:
            tag_obj = _NEW(Tag)
            fields = tag_obj.__dict__
            fields["num"] = num
            fields["writer"] = writer
            pair = _NEW(TaggedValue)
            fields = pair.__dict__
            fields["tag"] = tag_obj
            fields["value"] = value
            return pair, pos
        return TaggedValue(Tag(num, writer), value), pos
    if tag == _T_CODED:
        index, pos = _read_uvarint(data, pos)
        length, pos = _read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated coded element")
        return CodedElement(index, bytes(data[pos:end])), end
    if tag == _T_SEQ:
        count = data[pos]
        if count < 0x80:
            pos += 1
        else:
            count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos)
            value, pos = _decode_value(data, pos)
            mapping[key] = value
        return mapping, pos
    if tag == _T_MSG:
        return _decode_message_at(data, pos)
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise ProtocolError("truncated float value")
        return _UNPACK_F64(data, pos)[0], pos + 8
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def _decode_message_at(data, pos: int) -> Tuple[Any, int]:
    if pos >= len(data) or data[pos] != MAGIC_V2:
        raise ProtocolError("nested message lacks the v2 magic byte")
    pos += 1
    type_id = data[pos]
    if type_id < 0x80:
        pos += 1
    else:
        type_id, pos = _read_uvarint(data, pos)
    if type_id >= len(_BY_ID):
        raise ProtocolError(f"unknown message type id {type_id}")
    cls = _BY_ID[type_id]
    field_names = _FIELDS[cls]
    nfields = data[pos]
    if nfields < 0x80:
        pos += 1
    else:
        nfields, pos = _read_uvarint(data, pos)
    if nfields != len(field_names):
        raise ProtocolError(
            f"{cls.__name__} carries {nfields} fields, "
            f"expected {len(field_names)}")
    values = []
    for _ in range(nfields):
        value, pos = _decode_value(data, pos)
        values.append(value)
    # Sequences flatten to lists on the wire; restore tuples at the top
    # level for frozen-dataclass equality.
    if _BYPASS_INIT[cls]:
        decoded = _NEW(cls)
        fields = decoded.__dict__
        for name, value in zip(field_names, values):
            fields[name] = tuple(value) if type(value) is list else value
    else:
        decoded = cls(*values)
        for name, value in zip(field_names, values):
            if type(value) is list:
                object.__setattr__(decoded, name, tuple(value))
    return decoded, pos


def decode_message_v2(data) -> Any:
    """Inverse of :func:`encode_message_v2`; raises ProtocolError on garbage.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` into a
    receive buffer -- every field is copied out into an owned object, so
    the caller may recycle the buffer as soon as this returns.
    """
    # _decode_message_at's body, inlined for the top-level message (the
    # overwhelmingly common case); the helper remains for nested ones.
    try:
        if not data or data[0] != MAGIC_V2:
            raise ProtocolError(
                f"not a v2 payload (first byte 0x{data[0]:02x})" if data
                else "empty payload")
        pos = 1
        type_id = data[pos]
        if type_id < 0x80:
            pos += 1
        else:
            type_id, pos = _read_uvarint(data, pos)
        if type_id >= len(_BY_ID):
            raise ProtocolError(f"unknown message type id {type_id}")
        cls = _BY_ID[type_id]
        field_names = _FIELDS[cls]
        nfields = data[pos]
        if nfields < 0x80:
            pos += 1
        else:
            nfields, pos = _read_uvarint(data, pos)
        if nfields != len(field_names):
            raise ProtocolError(
                f"{cls.__name__} carries {nfields} fields, "
                f"expected {len(field_names)}")
        decode_value = _decode_value
        values = []
        for _ in range(nfields):
            value, pos = decode_value(data, pos)
            values.append(value)
        if _BYPASS_INIT[cls]:
            decoded = _NEW(cls)
            fields = decoded.__dict__
            for name, value in zip(field_names, values):
                fields[name] = tuple(value) if type(value) is list else value
        else:
            decoded = cls(*values)
            for name, value in zip(field_names, values):
                if type(value) is list:
                    object.__setattr__(decoded, name, tuple(value))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed v2 message: {exc}") from exc
    if pos != len(data):
        raise ProtocolError(
            f"{len(data) - pos} trailing bytes after v2 message")
    return decoded


#: Field types whose encoding cannot change behind an identity check.
_IMMUTABLE_FIELD_TYPES = (bytes, str, int, float, bool, type(None), Tag)


class CachedEncoder:
    """A v2 encoder memoizing the tail of op_id-keyed repeats.

    Server reply streams repeat one message shape with a fresh ``op_id``
    and byte-identical remaining fields: a quiet register answers every
    read with the *same* ``(tag, payload)`` objects out of its history.
    The encoder keeps the encoded tail of the last message whose
    non-op_id fields were immutable and compares by object identity, so
    a hit costs one prefix copy plus the op_id varint instead of a full
    field walk.  Misses (different objects, mutable field types,
    unregistered or op_id-less messages) fall back to the plain encode
    and stay bit-identical -- the cache changes cost, never bytes.

    Namespaced (keyed) messages get the same treatment twice over: a
    per-register LRU caches the full head (wrapper prefix + register +
    inner prefix) for hot keys, and a per-inner-class fallback caches
    just the tail for the cold tail of a large keyspace -- every
    untouched key's reply shares the same ``(TAG_ZERO, b"")`` objects,
    and every request the same empty field list, so identity matching
    works across registers.
    """

    __slots__ = ("_cls", "_vals", "_tail", "_ns", "_shape")

    def __init__(self) -> None:
        self._cls: Any = None
        self._vals: tuple = ()
        self._tail = b""
        #: register -> (inner class, non-op_id values, head, tail)
        self._ns: "OrderedDict[str, tuple]" = OrderedDict()
        #: inner class -> (non-op_id values, tail)
        self._shape: Dict[type, tuple] = {}

    def _encode_namespaced(self, message: Any) -> bytes:
        register = message.register
        inner = message.inner
        icls = type(inner)
        ns = self._ns
        entry = ns.get(register)
        if entry is not None and entry[0] is icls:
            names = _FIELDS[icls]
            vals = entry[1]
            match = True
            for name, cached in zip(names[1:], vals):
                if getattr(inner, name) is not cached:
                    match = False
                    break
            op_id = inner.op_id
            if match and type(op_id) is int and op_id >= 0:
                # The cached head ends at the inner ``_T_INT`` marker;
                # only the op_id varint goes between head and tail.
                out = bytearray(entry[2])
                if op_id < 0x80:
                    out.append(op_id)
                elif op_id < 0x4000:
                    out.append((op_id & 0x7F) | 0x80)
                    out.append(op_id >> 7)
                else:
                    _uvarint(out, op_id)
                out += entry[3]
                ns.move_to_end(register)
                return bytes(out)
        names = _FIELDS.get(icls)
        if (not names or names[0] != "op_id"
                or type(register) is not str or len(register) >= 0x80):
            return encode_message_v2(message)
        shape = self._shape.get(icls)
        if shape is not None:
            op_id = inner.op_id
            match = type(op_id) is int and op_id >= 0
            if match:
                for name, cached in zip(names[1:], shape[0]):
                    if getattr(inner, name) is not cached:
                        match = False
                        break
            if match:
                # Cold-key fast path: rebuild the head from the live
                # register (cheap -- one short string) and reuse the
                # cached tail shared by every register in this state.
                out = bytearray(_NS_PREFIX)
                raw = register.encode()
                out.append(_T_STR)
                if len(raw) < 0x80:
                    out.append(len(raw))
                else:
                    _uvarint(out, len(raw))
                out += raw
                out.append(_T_MSG)
                out += _PREFIXES[icls]
                out.append(_T_INT)
                if op_id < 0x80:
                    out.append(op_id)
                elif op_id < 0x4000:
                    out.append((op_id & 0x7F) | 0x80)
                    out.append(op_id >> 7)
                else:
                    _uvarint(out, op_id)
                out += shape[1]
                return bytes(out)
        out = bytearray(_NS_PREFIX)
        _encode_value(out, register)
        out.append(_T_MSG)
        out += _PREFIXES[icls]
        _encode_value(out, inner.op_id)
        start = len(out)
        vals = []
        cacheable = type(inner.op_id) is int and inner.op_id >= 0
        for name in names[1:]:
            value = getattr(inner, name)
            _encode_value(out, value)
            if type(value) not in _IMMUTABLE_FIELD_TYPES:
                cacheable = False
            vals.append(value)
        blob = bytes(out)
        if cacheable:
            tail = blob[start:]
            self._shape[icls] = (tuple(vals), tail)
            spans = _ns_spans(blob)
            if spans is not None:
                _, head_end, _ = spans
                ns[register] = (icls, tuple(vals), blob[:head_end], tail)
                ns.move_to_end(register)
                if len(ns) > _NS_CACHE_MAX:
                    ns.popitem(last=False)
        return blob

    def __call__(self, message: Any) -> bytes:
        cls = type(message)
        if cls is NamespacedMessage and _NS_FAST:
            return self._encode_namespaced(message)
        if cls is self._cls:
            names = _FIELDS[cls]
            match = True
            for name, cached in zip(names[1:], self._vals):
                if getattr(message, name) is not cached:
                    match = False
                    break
            if match:
                out = bytearray(_PREFIXES[cls])
                op_id = message.op_id
                if type(op_id) is int and 0 <= op_id < 0x4000:
                    # One- or two-byte varint: every op_id a long-lived
                    # client issues short of its 16384th operation.
                    out.append(_T_INT)
                    if op_id < 0x80:
                        out.append(op_id)
                    else:
                        out.append((op_id & 0x7F) | 0x80)
                        out.append(op_id >> 7)
                else:
                    _encode_value(out, op_id)
                out += self._tail
                return bytes(out)
        names = _FIELDS.get(cls)
        if not names or names[0] != "op_id":
            return encode_message_v2(message)
        out = bytearray(_PREFIXES[cls])
        _encode_value(out, message.op_id)
        start = len(out)
        vals = []
        cacheable = True
        for name in names[1:]:
            value = getattr(message, name)
            _encode_value(out, value)
            if type(value) not in _IMMUTABLE_FIELD_TYPES:
                cacheable = False
            vals.append(value)
        if cacheable:
            self._cls = cls
            self._vals = tuple(vals)
            self._tail = bytes(out[start:])
        else:
            self._cls = None
        return bytes(out)


class CachedDecoder:
    """A decoder memoizing op_id-keyed repeats (mirror of the encoder).

    Query bursts and reply streams repeat one payload with a fresh
    ``op_id`` and byte-identical remaining fields.  After a full decode
    of such a payload the decoder remembers the bytes before and after
    the op_id varint plus the decoded field values; a later payload that
    matches both spans needs only its op_id varint read -- the message
    is rebuilt from the cached values (safe to share: only immutable
    types are cached).  Byte equality against a payload that already
    decoded successfully implies the same structure, so hits are exactly
    what the full decode would have produced.  Everything else --
    differing bytes, mutable or op_id-less shapes -- falls through to
    :func:`decode_message_v2` verbatim.

    Namespaced payloads cache by *shape*, not by register: the template
    key is the five fixed bytes after the register string (``_T_MSG``,
    inner magic, type id, field count, ``_T_INT``) plus the byte-exact
    tail after the op_id varint.  A keyed read fleet answers most
    requests from a handful of shapes -- every untouched key shares one
    ``DataReply`` template, every query one request template -- so the
    hit rate is independent of how many keys are live.  The register
    string is parsed fresh on every hit (it feeds the rebuilt wrapper),
    so templates are register-agnostic by construction.
    """

    __slots__ = ("_head", "_tail", "_cls", "_pairs", "_ns")

    def __init__(self) -> None:
        self._head: Any = None
        self._tail = b""
        self._cls: Any = None
        self._pairs: dict = {}
        #: inner-prefix bytes -> tail bytes -> (inner class, pairs)
        self._ns: Dict[bytes, "OrderedDict[bytes, tuple]"] = {}

    def _decode_namespaced(self, data):
        """Rebuild a namespaced payload from a learned shape template.

        ``None`` on any mismatch; the caller falls through to the full
        decode (and re-learns the template from its result).
        """
        try:
            if data[3] != _T_STR:
                return None
            rlen = data[4]
            if rlen >= 0x80:
                return None
            rend = 5 + rlen
            tails = self._ns.get(bytes(data[rend:rend + 5]))
            if tails is None:
                return None
            pos = rend + 5
            op_id = data[pos]
            if op_id < 0x80:
                end = pos + 1
            else:
                second = data[pos + 1]
                if second < 0x80:
                    op_id = (op_id & 0x7F) | (second << 7)
                    end = pos + 2
                else:
                    op_id, end = _read_uvarint(data, pos)
            entry = tails.get(bytes(data[end:]))
            if entry is None:
                return None
            register = str(data[5:rend], "utf-8")
        except (IndexError, ProtocolError, UnicodeDecodeError):
            return None
        inner = _NEW(entry[0])
        fields = inner.__dict__
        fields.update(entry[1])
        fields["op_id"] = op_id
        message = _NEW(NamespacedMessage)
        fields = message.__dict__
        fields["register"] = register
        fields["inner"] = inner
        return message

    def _learn_namespaced(self, data, message) -> None:
        inner = message.inner
        icls = type(inner)
        names = _FIELDS.get(icls)
        if not (names and names[0] == "op_id" and _BYPASS_INIT.get(icls)):
            return
        fields = inner.__dict__
        values = [fields[name] for name in names[1:]]
        if not all(type(v) in _IMMUTABLE_FIELD_TYPES for v in values):
            return
        blob = bytes(data)
        try:
            spans = _ns_spans(blob)
        except IndexError:
            return
        if spans is None:
            return
        rkey, head_end, opid_end = spans
        rend = 5 + len(rkey)
        if head_end != rend + 5:
            return  # multi-byte inner type id; stay on the slow path
        ns = self._ns
        tails = ns.get(blob[rend:head_end])
        if tails is None:
            if len(ns) >= _NS_SHAPES_MAX:
                return
            tails = ns[blob[rend:head_end]] = OrderedDict()
        tails[blob[opid_end:]] = (icls, dict(zip(names[1:], values)))
        tails.move_to_end(blob[opid_end:])
        if len(tails) > _NS_CACHE_MAX:
            tails.popitem(last=False)

    def __call__(self, data) -> Any:
        if (_NS_FAST and self._ns and len(data) > 5
                and data[0] == MAGIC_V2 and data[1] == _NS_ID):
            message = self._decode_namespaced(data)
            if message is not None:
                return message
        head = self._head
        if head is not None:
            hl = len(head)
            if len(data) > hl and data[:hl] == head:
                try:
                    op_id = data[hl]
                    if op_id < 0x80:
                        end = hl + 1
                    else:
                        second = data[hl + 1]
                        if second < 0x80:
                            # Two-byte varint: op_ids live here from the
                            # 129th operation of a client's lifetime on.
                            op_id = (op_id & 0x7F) | (second << 7)
                            end = hl + 2
                        else:
                            op_id, end = _read_uvarint(data, hl)
                except (IndexError, ProtocolError):
                    end = None  # truncated varint; let the full decode report it
                if end is not None and data[end:] == self._tail:
                    message = _NEW(self._cls)
                    fields = message.__dict__
                    fields.update(self._pairs)
                    fields["op_id"] = op_id
                    return message
        message = decode_message_v2(data)
        cls = type(message)
        if cls is NamespacedMessage:
            if _NS_FAST:
                self._learn_namespaced(data, message)
            return message
        names = _FIELDS.get(cls)
        if names and names[0] == "op_id" and _BYPASS_INIT.get(cls):
            fields = message.__dict__
            values = [fields[name] for name in names[1:]]
            if all(type(v) in _IMMUTABLE_FIELD_TYPES for v in values):
                blob = bytes(data)
                pos = 1
                if blob[pos] < 0x80:
                    pos += 1
                else:
                    _, pos = _read_uvarint(blob, pos)
                if blob[pos] < 0x80:
                    pos += 1
                else:
                    _, pos = _read_uvarint(blob, pos)
                if blob[pos] == _T_INT:
                    head_end = pos + 1
                    if blob[head_end] < 0x80:
                        opid_end = head_end + 1
                    else:
                        _, opid_end = _read_uvarint(blob, head_end)
                    self._head = blob[:head_end]
                    self._tail = blob[opid_end:]
                    self._cls = cls
                    self._pairs = dict(zip(names[1:], values))
        return message


def peek_op_id_v2(data) -> Any:
    """The ``op_id`` of a v2 payload, read without decoding the message.

    Namespaced payloads are peeked *through*: the register string is
    skipped and the inner message's ``op_id`` returned, so keyed reply
    streams route as cheaply as bare ones.  Returns ``None`` for
    anything else -- non-v2 bytes, messages whose first field is not
    ``op_id``, or bytes too malformed to peek at; callers fall back to
    the full decode, which reports malformations properly.  Reply pumps
    use this to route (or drop) a reply by ``op_id`` before paying for
    its decode: surplus replies past the quorum and stale replies to
    finished operations never need their payloads parsed at all.
    """
    try:
        if data[0] != MAGIC_V2:
            return None
        pos = 1
        type_id = data[pos]
        if type_id < 0x80:
            pos += 1
        else:
            type_id, pos = _read_uvarint(data, pos)
        if type_id == _NS_ID:
            # Skip the wrapper: nfields, register string, _T_MSG, magic.
            nfields = data[pos]
            if nfields < 0x80:
                pos += 1
            else:
                nfields, pos = _read_uvarint(data, pos)
            if data[pos] != _T_STR:
                return None
            rlen = data[pos + 1]
            if rlen < 0x80:
                pos += 2
            else:
                rlen, pos = _read_uvarint(data, pos + 1)
            pos += rlen
            if data[pos] != _T_MSG or data[pos + 1] != MAGIC_V2:
                return None
            pos += 2
            type_id = data[pos]
            if type_id < 0x80:
                pos += 1
            else:
                type_id, pos = _read_uvarint(data, pos)
        if type_id >= len(_BY_ID) or not _OPID_FIRST[type_id]:
            return None
        nfields = data[pos]
        if nfields < 0x80:
            pos += 1
        else:
            nfields, pos = _read_uvarint(data, pos)
        if data[pos] != _T_INT:
            return None
        value = data[pos + 1]
        if value < 0x80:
            return value
        second = data[pos + 2]
        if second < 0x80:
            return (value & 0x7F) | (second << 7)
        value, _ = _read_uvarint(data, pos + 1)
        return value
    except (IndexError, ProtocolError):
        return None
