"""The cluster's length-prefixed wire protocol and its two codecs.

Every message — client request, site reply, or site-to-site probe — is
one *frame*: a 4-byte big-endian payload length followed by an encoded
message body.  Both transports (:mod:`repro.cluster.transport`) carry
encoded frames, so the deterministic in-memory tests exercise exactly
the bytes a TCP deployment puts on the wire.

Two payload encodings exist, behind one :class:`WireCodec` interface:

* :class:`JsonCodec` (``"json"``) — compact, key-sorted JSON.  The
  original wire format and the interop baseline every peer speaks.
* :class:`BinaryCodec` (``"binary"``) — a struct-packed, msgpack-style
  tagged encoding (first payload byte ``0xB1``, which no JSON payload
  can start with).  Same message model, smaller and cheaper frames.

Because a JSON payload always starts with ``{`` and a binary payload
always starts with :data:`BINARY_MAGIC`, :func:`decode_payload`
auto-detects the codec per frame, so a receiver reads either.  What a
connection *sends* with is its transport's codec
(:attr:`repro.cluster.transport.Transport.codec`), the same on every
connection of a cluster.

Requests carry an ``id`` the reply echoes (the coordinator routes
replies by it); site-to-site messages (``probe``, ``resolve``) are
fire-and-forget and carry none.  The ``batch`` request ships several
steps of one transaction in a single frame; its reply carries one
result per step (see ``docs/cluster.md`` for the full message table
and the batch semantics).

Two **optional** observability fields may ride on any message, added
and consumed by :mod:`repro.obs.distributed`:

* ``trace`` — ``{"id": trace_id, "span": span_id, "pid": pid}``, the
  sender's open span, so the receiver can parent its own span across
  the process boundary;
* ``wire`` — ``{"send_ns": ...}`` stamped by the sending transport
  while wire metrics or tracing are on (the receiver adds
  ``recv_ns``), feeding the per-stage latency histograms.

Decoding tolerates both fields' absence — frames from nodes that
predate them (or run with observability off) are served identically,
and unknown keys were always passed through untouched.
"""

from __future__ import annotations

import json
import struct

from ..errors import ReproError

#: Frames above this size are refused (a corrupt length prefix
#: otherwise asks the reader to allocate gigabytes).
MAX_FRAME = 16 * 1024 * 1024

#: Client-to-site request kinds (each gets a reply with the same id).
REQUEST_KINDS = (
    "lock",
    "unlock",
    "update",
    "release",
    "commit",
    "batch",
    "history",
    "ping",
    # Replication kinds (:mod:`repro.replica`): leader discovery,
    # lease-epoch votes, log shipping, and new-leader catch-up.
    "leader",
    "vote",
    "replicate",
    "fetch_log",
    # Introspection (:mod:`repro.obs.insight`): a live snapshot of one
    # site's lock table / wait-for edges / replica lease state.
    "status",
)

#: Site-to-site kinds (fire-and-forget, no id, no reply).
PEER_KINDS = ("probe", "resolve")


class ProtocolError(ReproError):
    """A malformed or oversized frame, or an ill-typed message."""


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class WireCodec:
    """One way of turning a message dict into frame-payload bytes.

    Implementations must be *canonical* — equal messages encode to
    equal bytes — because the memory-transport determinism fingerprint
    and the codec cross-compat property test both rely on it.
    """

    name = "?"

    def encode_payload(self, message: dict) -> bytes:
        raise NotImplementedError

    def decode_payload(self, payload: bytes) -> dict:
        raise NotImplementedError


def _json_encoder():
    """The compact, key-sorted JSON encoder, built once.

    ``JSONEncoder.encode`` builds a C encoder on every call; this builds
    one, from exactly the options that encoder would pass it, and falls
    back to ``JSONEncoder.encode`` only where ``_json`` is missing.  The
    C encoder leaves the ids of the containers it was inside in its
    markers dict when an encode raises, which later encodes would report
    as circular references — so the dict is cleared on any error.
    """
    options = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
    if json.encoder.c_make_encoder is None:  # pragma: no cover - CPython ships _json
        return options.encode
    markers: dict = {}
    c_encode = json.encoder.c_make_encoder(
        markers,
        options.default,
        json.encoder.encode_basestring_ascii,
        options.indent,
        options.key_separator,
        options.item_separator,
        options.sort_keys,
        options.skipkeys,
        options.allow_nan,
    )

    def encode(message) -> str:
        try:
            return "".join(c_encode(message, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


_json_encode = _json_encoder()
_json_decoder = json.JSONDecoder()
#: The decoder's own scanner (C when ``_json`` exists): one JSON value
#: from an index, nothing around it checked.
_json_scan = _json_decoder.scan_once
#: The reference decoder: it strips surrounding whitespace, rejects
#: extra data and words every error.
_json_decode = _json_decoder.decode


class JsonCodec(WireCodec):
    """Compact, key-sorted JSON (the original wire format)."""

    name = "json"

    def encode_payload(self, message: dict) -> bytes:
        return _json_encode(message).encode("utf-8")

    def decode_payload(self, payload: bytes) -> dict:
        try:
            text = payload.decode("utf-8")
            # One bare value from index 0 to the end is what every
            # encoder here emits; any other outcome (whitespace, extra
            # data, invalid JSON) takes the reference decoder's answer.
            try:
                message, end = _json_scan(text, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(text):
                message = _json_decode(text)
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
        if not isinstance(message, dict):
            raise ProtocolError("a message is an encoded object with a 'type' key")
        return message


#: First byte of every binary payload.  ``0xB1`` is not valid UTF-8
#: JSON start, so receivers can tell the codecs apart per frame.
BINARY_MAGIC = 0xB1
_BINARY_PREFIX = bytes((BINARY_MAGIC,))

# Binary type tags.  Small non-negative ints (< 0x80) are encoded as
# themselves in one byte; everything else is a tag byte + struct body.
_T_NONE = 0xC0
_T_FALSE = 0xC2
_T_TRUE = 0xC3
_T_INT = 0xD0  # i64 big-endian
_T_BIGINT = 0xD1  # u8 length + signed big-endian bytes
_T_FLOAT = 0xD2  # f64 big-endian
_T_STR = 0xA0  # u32 length + UTF-8 bytes
_T_LIST = 0x90  # u32 count + items
_T_DICT = 0x80  # u32 count + sorted (key, value) pairs
_T_COMMON = 0xE0  # 0xE0 + index into _COMMON_STRINGS, one byte total

#: Protocol vocabulary encoded as a single tag byte (0xE0 + index).
#: Both ends share this table as part of the ``binary`` codec
#: definition; the table is append-only — changing an existing entry's
#: position is a wire-format break.
_COMMON_STRINGS = (
    "type",
    "id",
    "status",
    "txn",
    "entity",
    "age",
    "steps",
    "step",
    "op",
    "results",
    "reason",
    "lock",
    "unlock",
    "update",
    "release",
    "commit",
    "batch",
    "granted",
    "released",
    "applied",
    "queued",
    "cancelled",
    "superseded",
    "deadlock",
    "timeout",
    "error",
    "probe",
    "resolve",
    "path",
    "target",
    "site",
    "victim",
)
_COMMON_INDEX = {name: index for index, name in enumerate(_COMMON_STRINGS)}
assert len(_COMMON_STRINGS) <= 0x100 - _T_COMMON

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class BinaryCodec(WireCodec):
    """Struct-packed tagged binary encoding of the same message model.

    Value model: ``None``, bools, ints (arbitrary precision), floats,
    strings, lists/tuples, and string-keyed dicts — exactly what the
    JSON codec carries, so every wire message round-trips identically
    through either codec.  Dict keys are emitted sorted, making the
    encoding canonical like the JSON codec's ``sort_keys=True``.
    """

    name = "binary"

    def encode_payload(self, message: dict) -> bytes:
        if not isinstance(message, dict):
            raise ProtocolError("a message is a dict with a 'type' key")
        out = bytearray((BINARY_MAGIC,))
        self._pack(out, message)
        return bytes(out)

    def _pack(self, out: bytearray, value) -> None:
        if isinstance(value, str):
            index = _COMMON_INDEX.get(value)
            if index is not None:
                out.append(_T_COMMON + index)
            else:
                raw = value.encode("utf-8")
                out.append(_T_STR)
                out += _U32.pack(len(raw))
                out += raw
        elif value is None:
            out.append(_T_NONE)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            if 0 <= value < 0x80:
                out.append(value)
            elif _I64_MIN <= value <= _I64_MAX:
                out.append(_T_INT)
                out += _I64.pack(value)
            else:
                raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
                if len(raw) > 0xFF:
                    raise ProtocolError("integer too large for the binary codec")
                out.append(_T_BIGINT)
                out.append(len(raw))
                out += raw
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out += _F64.pack(value)
        elif isinstance(value, (list, tuple)):
            out.append(_T_LIST)
            out += _U32.pack(len(value))
            for item in value:
                self._pack(out, item)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            out += _U32.pack(len(value))
            for key in sorted(value):
                if not isinstance(key, str):
                    raise ProtocolError(f"binary codec requires string keys, got {key!r}")
                self._pack(out, key)
                self._pack(out, value[key])
        else:
            raise ProtocolError(f"binary codec cannot encode {type(value).__name__}")

    def decode_payload(self, payload: bytes) -> dict:
        if not payload or payload[0] != BINARY_MAGIC:
            raise ProtocolError("not a binary frame payload")
        try:
            message, offset = self._unpack(payload, 1)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed binary payload: {exc}") from None
        if offset != len(payload):
            raise ProtocolError(
                f"binary payload has {len(payload) - offset} trailing byte(s)"
            )
        if not isinstance(message, dict):
            raise ProtocolError("a message is an encoded object with a 'type' key")
        return message

    def _unpack(self, payload: bytes, offset: int):
        tag = payload[offset]
        offset += 1
        if tag < 0x80:
            return tag, offset
        if tag >= _T_COMMON:
            index = tag - _T_COMMON
            if index >= len(_COMMON_STRINGS):
                raise ProtocolError(f"unknown common-string tag 0x{tag:02x}")
            return _COMMON_STRINGS[index], offset
        if tag == _T_NONE:
            return None, offset
        if tag == _T_TRUE:
            return True, offset
        if tag == _T_FALSE:
            return False, offset
        if tag == _T_INT:
            return _I64.unpack_from(payload, offset)[0], offset + 8
        if tag == _T_BIGINT:
            length = payload[offset]
            offset += 1
            raw = payload[offset : offset + length]
            if len(raw) != length:
                raise ProtocolError("truncated binary integer")
            return int.from_bytes(raw, "big", signed=True), offset + length
        if tag == _T_FLOAT:
            return _F64.unpack_from(payload, offset)[0], offset + 8
        if tag == _T_STR:
            (length,) = _U32.unpack_from(payload, offset)
            offset += 4
            raw = payload[offset : offset + length]
            if len(raw) != length:
                raise ProtocolError("truncated binary string")
            return raw.decode("utf-8"), offset + length
        if tag == _T_LIST:
            (count,) = _U32.unpack_from(payload, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = self._unpack(payload, offset)
                items.append(item)
            return items, offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(payload, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = self._unpack(payload, offset)
                if not isinstance(key, str):
                    raise ProtocolError("binary dict key is not a string")
                value, offset = self._unpack(payload, offset)
                result[key] = value
            return result, offset
        raise ProtocolError(f"unknown binary tag 0x{tag:02x}")


#: The codec singletons, by wire name.
JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()
CODECS = {codec.name: codec for codec in (JSON_CODEC, BINARY_CODEC)}


def codec_named(name: str) -> WireCodec:
    """The codec registered under *name* (``json`` or ``binary``)."""
    try:
        return CODECS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown codec {name!r} (choose from {sorted(CODECS)})"
        ) from None


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode(message: dict, codec: WireCodec = JSON_CODEC) -> bytes:
    """One wire frame: 4-byte big-endian length + encoded payload."""
    payload = codec.encode_payload(message)
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME ({MAX_FRAME})")
    return len(payload).to_bytes(4, "big") + payload


def decode(frame: bytes) -> dict:
    """Parse one full frame (prefix included) back into a message."""
    if len(frame) < 4:
        raise ProtocolError(f"truncated frame: {len(frame)} bytes")
    length = int.from_bytes(frame[:4], "big")
    if length > MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds MAX_FRAME")
    if len(frame) - 4 != length:
        raise ProtocolError(f"frame length prefix says {length}, payload is {len(frame) - 4}")
    return decode_payload(frame[4:])


def decode_payload(payload: bytes) -> dict:
    """Parse a frame payload (prefix already stripped), auto-detecting
    the codec by its first byte — binary payloads start with
    :data:`BINARY_MAGIC`, JSON payloads with ``{``."""
    if payload[:1] == _BINARY_PREFIX:
        message = BINARY_CODEC.decode_payload(payload)
    else:
        message = JSON_CODEC.decode_payload(payload)
    if "type" not in message:
        raise ProtocolError("a message is an encoded object with a 'type' key")
    return message


def request(kind: str, request_id: int, **fields) -> dict:
    """A client request frame body (``id`` echoed by the reply)."""
    if kind not in REQUEST_KINDS:
        raise ProtocolError(f"unknown request kind {kind!r} (choose from {REQUEST_KINDS})")
    message = {"type": kind, "id": request_id}
    message.update(fields)
    return message


def reply(request_id: int, status: str, **fields) -> dict:
    """A site reply to the request with *request_id*."""
    message = {"type": "reply", "id": request_id, "status": status}
    message.update(fields)
    return message

