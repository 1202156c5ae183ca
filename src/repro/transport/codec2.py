"""The wire codec: compact binary, a header the schema fixes, no base64.

Every protocol message (a frozen dataclass registered in
:data:`MESSAGE_TYPES`) is encoded as:

* one magic byte (``0xB2``); a payload that starts with anything else
  is rejected with :class:`~repro.errors.ProtocolError`;
* a varint message-type id (stable: assigned from the sorted registry
  names), pre-packed per class with the magic into a cached prefix.
  That is the whole header: the class fixes how many fields follow and
  in what order, so no field count travels;
* the fields in dataclass order.  What the class fixes goes bare: the
  ``op_id`` every protocol message starts with is a varint with no value
  tag, and a ``NamespacedMessage`` is its register's length and UTF-8
  followed by its inner message's type id and fields (no value tags, no
  nested magic or count).  Every other field is a tagged value -- raw
  ``bytes`` carried verbatim (sliced back out of the receive buffer via
  ``memoryview``, copied exactly once into the decoded object), varint
  integers, inlined ``Tag``/``TaggedValue``/``CodedElement`` shapes, and
  nested messages (``_T_MSG``, type id, fields) by recursion;
* a bare field whose value lacks the shape its class fixes (an op_id
  that is not a non-negative int, a register that is not a string, an
  inner that is not a registered message) is written as :data:`ESCAPE`
  and the value in tagged form, so everything the fields held before
  still round-trips.

Integers are bounded by :data:`VARINT_BITS` and tag numbers by
:data:`~repro.core.tags.TAG_MAX`, on encode and on decode alike.
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
from repro.core.tags import TAG_MAX, Tag, TaggedValue
from repro.erasure.striping import CodedElement
from repro.errors import ProtocolError

#: First byte of every payload.
MAGIC_V2 = 0xB2

#: What a schema'd field holds when its value lacks the shape its class
#: fixes: a varint no encoder writes (zero, padded to two bytes), then
#: the value in its tagged form.
ESCAPE = b"\x80\x00"

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
_T_MSG = 0x0D        # nested message: type id + fields, recursive

_PACK_F64 = Struct(">d")
_UNPACK_F64 = _PACK_F64.unpack_from


#: Payload bits of the longest varint either side accepts (11 bytes), and
#: so the bound on every encoded integer: ``0 <= n < 2 ** VARINT_BITS``,
#: negatives down to ``-(2 ** VARINT_BITS)`` (sent as ``-(n + 1)``).  The
#: encoder refuses what the decoder would reject.
VARINT_BITS = 77


def _uvarint(out: bytearray, n: int) -> None:
    """Append ``0 <= n < 2 ** VARINT_BITS`` as an unsigned LEB128 varint."""
    if n >> VARINT_BITS:  # also -1 for any negative n
        raise ProtocolError(f"integer {n} is outside the varint range")
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
        if shift >= VARINT_BITS:
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


def _varint(n: int) -> bytes:
    out = bytearray()
    _uvarint(out, n)
    return bytes(out)


#: class -> its type id as a varint: the header of a nested message.
_IDS: Dict[type, bytes] = {
    cls: _varint(type_id) for type_id, cls in enumerate(_BY_ID)}
#: class -> magic byte + type id: the whole header of a payload.
_PREFIXES: Dict[type, bytes] = {
    cls: bytes([MAGIC_V2]) + ids for cls, ids in _IDS.items()}
#: op_id-first class -> its tagged fields (every one after the op_id).
_REST: Dict[type, tuple] = {
    cls: names[1:] for cls, names in _FIELDS.items()
    if names[:1] == ("op_id",)}
# Decoding may skip the dataclass __init__ (building the instance
# __dict__ directly) only when the class runs no validation on
# construction and stores fields in a plain __dict__.
_BYPASS_INIT: Dict[type, bool] = {
    cls: not hasattr(cls, "__post_init__") and not hasattr(cls, "__slots__")
    for cls in _BY_ID}

_NEW = object.__new__

# Namespaced (keyed) traffic wraps every hot message in a
# NamespacedMessage, whose fields are the register name and the inner
# message -- so without help it misses every op_id-keyed fast path
# below.  Its header is the two prefix bytes, the register length and
# the inner type id, which lets the caches and the peek see *through*
# it: skip the register string, then treat the inner message exactly
# like an unwrapped one.  The byte-level dispatch assumes the wrapper's
# type id fits one varint byte; guard it so registry growth degrades to
# the slow path instead of misparsing.
_NS_ID = _BY_ID.index(NamespacedMessage)
_NS_PREFIX = _PREFIXES[NamespacedMessage]
_NS_FAST = len(_NS_PREFIX) == 2
#: Tail templates kept per shape by the namespaced decoder cache, and
#: register entries kept by the namespaced encoder cache.  Keyed
#: workloads touch many registers round-robin, so a single slot would
#: thrash; bounded tables capture the Zipf head plus the shared
#: zero-state templates of the cold tail.
_NS_CACHE_MAX = 512
#: Distinct inner shapes the decoder tracks (one per message class that
#: appears on the wire; the registry holds ~25 classes total).
_NS_SHAPES_MAX = 64


def _read_head(data, pos: int) -> Tuple[Any, int]:
    """The varint a schema'd field starts with; ``None`` at an ESCAPE."""
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    if byte == 0x80 and data[pos + 1] == 0:
        return None, pos + 2
    return _read_uvarint(data, pos)


def _op_id_at(data, pos: int):
    """``(op_id, end)`` of the bare op_id at ``pos``, one- to three-byte
    varints inline; ``None`` for an ESCAPE (or a zero-padded varint),
    which only the full decode reads."""
    byte = data[pos]
    if byte < 0x80:
        return byte, pos + 1
    second = data[pos + 1]
    if second < 0x80:
        if not second:
            return None
        return (byte & 0x7F) | (second << 7), pos + 2
    third = data[pos + 2]
    if third < 0x80:
        return ((byte & 0x7F) | ((second & 0x7F) << 7) | (third << 14),
                pos + 3)
    return _read_uvarint(data, pos)


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
            _tag_num(out, num)
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
            _tag_num(out, num)
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
    elif kind in _IDS:
        out.append(_T_MSG)
        out += _IDS[kind]
        _encode_body(out, value)
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


def _tag_num(out: bytearray, num: int) -> None:
    """Append a tag number, refusing one above :data:`TAG_MAX`."""
    if num > TAG_MAX:
        raise ProtocolError(f"tag number {num} is above TAG_MAX")
    _uvarint(out, num)


def _encode_op_id(out: bytearray, op_id: Any) -> None:
    """Append an op_id: a bare varint, or ESCAPE and the tagged value
    for anything but a non-negative int."""
    if type(op_id) is int and op_id >= 0:
        if op_id < 0x80:
            out.append(op_id)
        else:
            _uvarint(out, op_id)
    else:
        out += ESCAPE
        _encode_value(out, op_id)


def _encode_register(out: bytearray, register: Any) -> None:
    """Append a register name: its length and UTF-8, or ESCAPE and the
    tagged value for a name that is not a string."""
    if type(register) is str:
        raw = register.encode()
        if len(raw) < 0x80:
            out.append(len(raw))
        else:
            _uvarint(out, len(raw))
        out += raw
    else:
        out += ESCAPE
        _encode_value(out, register)


def _encode_body(out: bytearray, message: Any) -> None:
    """Append everything of ``message`` after its header (its fields)."""
    cls = type(message)
    rest = _REST.get(cls)
    if rest is not None:
        _encode_op_id(out, message.op_id)
        encode_value = _encode_value
        for name in rest:
            encode_value(out, getattr(message, name))
        return
    # A NamespacedMessage: the register, then the inner message's type id
    # and fields -- or ESCAPE and a tagged value for an inner that is not
    # a registered message.
    _encode_register(out, message.register)
    inner = message.inner
    ids = _IDS.get(type(inner))
    if ids is None:
        out += ESCAPE
        _encode_value(out, inner)
    else:
        out += ids
        _encode_body(out, inner)


def encode_message_v2(message: Any) -> bytes:
    """Serialize one protocol message to compact binary bytes."""
    cls = type(message)
    prefix = _PREFIXES.get(cls)
    if prefix is None:
        raise ProtocolError(
            f"{cls.__name__} is not a registered message type")
    out = bytearray(prefix)
    _encode_body(out, message)
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
            if num > TAG_MAX:
                raise ProtocolError(f"tag number {num} is above TAG_MAX")
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
            if num > TAG_MAX:
                raise ProtocolError(f"tag number {num} is above TAG_MAX")
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
        type_id = data[pos]
        if type_id < 0x80:
            pos += 1
        else:
            type_id, pos = _read_uvarint(data, pos)
        return _decode_body(data, pos, type_id)
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise ProtocolError("truncated float value")
        return _UNPACK_F64(data, pos)[0], pos + 8
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


def _build(cls: type, values: list) -> Any:
    """An instance of ``cls`` from its decoded field values."""
    # Sequences flatten to lists on the wire; restore tuples at the top
    # level for frozen-dataclass equality.
    field_names = _FIELDS[cls]
    if _BYPASS_INIT[cls]:
        decoded = _NEW(cls)
        fields = decoded.__dict__
        for name, value in zip(field_names, values):
            fields[name] = tuple(value) if type(value) is list else value
        return decoded
    decoded = cls(*values)
    for name, value in zip(field_names, values):
        if type(value) is list:
            object.__setattr__(decoded, name, tuple(value))
    return decoded


def _decode_body(data, pos: int, type_id: int) -> Tuple[Any, int]:
    """The message of type ``type_id`` whose fields start at ``pos``."""
    if type_id >= len(_BY_ID):
        raise ProtocolError(f"unknown message type id {type_id}")
    cls = _BY_ID[type_id]
    rest = _REST.get(cls)
    if rest is not None:
        op_id, pos = _read_head(data, pos)
        if op_id is None:
            op_id, pos = _decode_value(data, pos)
        values = [op_id]
        decode_value = _decode_value
        for _ in rest:
            value, pos = decode_value(data, pos)
            values.append(value)
        return _build(cls, values), pos
    # A NamespacedMessage (see _encode_body).
    length, pos = _read_head(data, pos)
    if length is None:
        register, pos = _decode_value(data, pos)
    else:
        end = pos + length
        if end > len(data):
            raise ProtocolError("truncated register name")
        register = str(data[pos:end], "utf-8")
        pos = end
    inner_id, pos = _read_head(data, pos)
    if inner_id is None:
        inner, pos = _decode_value(data, pos)
    else:
        inner, pos = _decode_body(data, pos, inner_id)
    return _build(cls, [register, inner]), pos


def decode_message_v2(data) -> Any:
    """Inverse of :func:`encode_message_v2`; raises ProtocolError on garbage.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` into a
    receive buffer -- every field is copied out into an owned object, so
    the caller may recycle the buffer as soon as this returns.
    """
    try:
        if not data or data[0] != MAGIC_V2:
            raise ProtocolError(
                f"not a v2 payload (first byte 0x{data[0]:02x})" if data
                else "empty payload")
        type_id = data[1]
        if type_id < 0x80:
            pos = 2
        else:
            type_id, pos = _read_uvarint(data, 1)
        decoded, pos = _decode_body(data, pos, type_id)
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


def _ns_head(register: str, icls: type) -> bytearray:
    """A namespaced payload up to its inner op_id: prefix, register,
    inner type id."""
    out = bytearray(_NS_PREFIX)
    _encode_register(out, register)
    out += _IDS[icls]
    return out


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
    inner type id) for hot keys, and a per-inner-class fallback caches
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
        op_id = getattr(inner, "op_id", None)
        ns = self._ns
        entry = ns.get(register)
        if (entry is not None and entry[0] is icls
                and type(op_id) is int and op_id >= 0):
            match = True
            for name, cached in zip(_REST[icls], entry[1]):
                if getattr(inner, name) is not cached:
                    match = False
                    break
            if match:
                # The cached head ends at the inner type id; only the
                # op_id varint goes between head and tail.
                out = bytearray(entry[2])
                _encode_op_id(out, op_id)
                out += entry[3]
                ns.move_to_end(register)
                return bytes(out)
        rest = _REST.get(icls)
        if rest is None or type(register) is not str:
            return encode_message_v2(message)
        shape = self._shape.get(icls)
        if shape is not None and type(op_id) is int and op_id >= 0:
            match = True
            for name, cached in zip(rest, shape[0]):
                if getattr(inner, name) is not cached:
                    match = False
                    break
            if match:
                # Cold-key fast path: rebuild the head from the live
                # register (cheap -- one short string) and reuse the
                # cached tail shared by every register in this state.
                out = _ns_head(register, icls)
                _encode_op_id(out, op_id)
                out += shape[1]
                return bytes(out)
        out = _ns_head(register, icls)
        head_end = len(out)
        _encode_op_id(out, op_id)
        tail_at = len(out)
        vals = []
        cacheable = type(op_id) is int and op_id >= 0
        for name in rest:
            value = getattr(inner, name)
            _encode_value(out, value)
            if type(value) not in _IMMUTABLE_FIELD_TYPES:
                cacheable = False
            vals.append(value)
        blob = bytes(out)
        if cacheable:
            tail = blob[tail_at:]
            self._shape[icls] = (tuple(vals), tail)
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
            match = True
            for name, cached in zip(_REST[cls], self._vals):
                if getattr(message, name) is not cached:
                    match = False
                    break
            if match:
                out = bytearray(_PREFIXES[cls])
                _encode_op_id(out, message.op_id)
                out += self._tail
                return bytes(out)
        rest = _REST.get(cls)
        if rest is None:
            return encode_message_v2(message)
        out = bytearray(_PREFIXES[cls])
        _encode_op_id(out, message.op_id)
        start = len(out)
        vals = []
        cacheable = True
        for name in rest:
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
    differing bytes, mutable or op_id-less shapes, an escaped op_id --
    falls through to :func:`decode_message_v2` verbatim.

    Namespaced payloads cache by *shape*, not by register: the template
    key is the inner type id after the register string, plus the
    byte-exact tail after the op_id varint.  A keyed read fleet answers
    most requests from a handful of shapes -- every untouched key shares
    one ``DataReply`` template, every query one request template -- so
    the hit rate is independent of how many keys are live.  The register
    string is parsed fresh on every hit (it feeds the rebuilt wrapper),
    so templates are register-agnostic by construction.
    """

    __slots__ = ("_head", "_tail", "_cls", "_pairs", "_ns")

    def __init__(self) -> None:
        self._head: Any = None
        self._tail = b""
        self._cls: Any = None
        self._pairs: dict = {}
        #: inner type id -> tail bytes -> (inner class, pairs)
        self._ns: Dict[int, "OrderedDict[bytes, tuple]"] = {}

    def _decode_namespaced(self, data):
        """Rebuild a namespaced payload from a learned shape template.

        ``None`` on any mismatch; the caller falls through to the full
        decode (and re-learns the template from its result).
        """
        try:
            rlen = data[2]
            if rlen >= 0x80:
                return None
            rend = 3 + rlen
            tails = self._ns.get(data[rend])
            if tails is None:
                return None
            found = _op_id_at(data, rend + 1)
            if found is None:
                return None
            op_id, end = found
            entry = tails.get(bytes(data[end:]))
            if entry is None:
                return None
            register = str(data[3:rend], "utf-8")
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
        rest = _REST.get(icls)
        if rest is None or not _BYPASS_INIT[icls]:
            return
        fields = inner.__dict__
        values = [fields[name] for name in rest]
        if not all(type(v) in _IMMUTABLE_FIELD_TYPES for v in values):
            return
        blob = bytes(data)
        rlen = blob[2]
        type_id = blob[3 + rlen] if rlen < 0x80 else 0x80
        if type_id >= 0x80:
            return  # a long register or inner type id; stay on the slow path
        found = _op_id_at(blob, 4 + rlen)
        if found is None:
            return
        ns = self._ns
        tails = ns.get(type_id)
        if tails is None:
            if len(ns) >= _NS_SHAPES_MAX:
                return
            tails = ns[type_id] = OrderedDict()
        tail = blob[found[1]:]
        tails[tail] = (icls, dict(zip(rest, values)))
        tails.move_to_end(tail)
        if len(tails) > _NS_CACHE_MAX:
            tails.popitem(last=False)

    def __call__(self, data) -> Any:
        if (_NS_FAST and self._ns and len(data) > 3
                and data[0] == MAGIC_V2 and data[1] == _NS_ID):
            message = self._decode_namespaced(data)
            if message is not None:
                return message
        head = self._head
        if head is not None:
            hl = len(head)
            if len(data) > hl and data[:hl] == head:
                try:
                    found = _op_id_at(data, hl)
                except (IndexError, ProtocolError):
                    found = None  # truncated; let the full decode report it
                if found is not None and data[found[1]:] == self._tail:
                    message = _NEW(self._cls)
                    fields = message.__dict__
                    fields.update(self._pairs)
                    fields["op_id"] = found[0]
                    return message
        message = decode_message_v2(data)
        cls = type(message)
        if cls is NamespacedMessage:
            if _NS_FAST:
                self._learn_namespaced(data, message)
            return message
        rest = _REST.get(cls)
        if rest is not None and _BYPASS_INIT[cls]:
            fields = message.__dict__
            values = [fields[name] for name in rest]
            if all(type(v) in _IMMUTABLE_FIELD_TYPES for v in values):
                blob = bytes(data)
                head_end = 2 if blob[1] < 0x80 else _read_uvarint(blob, 1)[1]
                found = _op_id_at(blob, head_end)
                if found is not None:
                    self._head = blob[:head_end]
                    self._tail = blob[found[1]:]
                    self._cls = cls
                    self._pairs = dict(zip(rest, values))
        return message


def peek_op_id_v2(data) -> Any:
    """The ``op_id`` of a v2 payload, read without decoding the message.

    Namespaced payloads are peeked *through*: the register string is
    skipped and the inner message's ``op_id`` returned, so keyed reply
    streams route as cheaply as bare ones.  Returns ``None`` for
    anything else -- non-v2 bytes, messages without an ``op_id``, an
    escaped op_id, or bytes too malformed to peek at; callers fall back
    to the full decode, which reports malformations properly.  Reply
    pumps use this to route (or drop) a reply by ``op_id`` before paying
    for its decode: surplus replies past the quorum and stale replies to
    finished operations never need their payloads parsed at all.
    """
    try:
        if data[0] != MAGIC_V2:
            return None
        type_id = data[1]
        if type_id < 0x80:
            pos = 2
        else:
            type_id, pos = _read_uvarint(data, 1)
        if type_id == _NS_ID:
            # Skip the wrapper: the register, then the inner type id.
            rlen, pos = _read_head(data, pos)
            if rlen is None:
                return None
            type_id, pos = _read_head(data, pos + rlen)
            if type_id is None:
                return None
        if type_id >= len(_BY_ID) or _BY_ID[type_id] not in _REST:
            return None
        found = _op_id_at(data, pos)
        return None if found is None else found[0]
    except (IndexError, ProtocolError):
        return None
