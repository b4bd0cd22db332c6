"""Deterministic wire codec for protocol messages.

The simulator passes :class:`~repro.net.message.Message` objects around
by reference; the live backend must put them on a UDP wire.  The format
is tagged JSON::

    {"k": "<kind>", "f": {"msg_id": 7, "src": "mh:h0", ...}}

* ``k`` is the message's ``kind`` string, resolved against the message
  registry (:meth:`~repro.net.message.Message.class_of`) on decode — the
  registry the trace/chart tooling already keys on, so the wire and the
  traces speak the same vocabulary.
* ``f`` holds every dataclass field (``msg_id``/``src``/``dst``
  included: ids must survive the hop so the merged trace can pair a send
  in one process with its recv in another).
* Protocol value types that JSON cannot express natively ride in
  single-key tagged wrappers: :class:`~repro.types.ProxyRef` as
  ``{"__pref__": [mss, proxy_id]}``,
  :class:`~repro.core.protocol.PrefPayload` as
  ``{"__prefpayload__": [ref, rkpr]}``, and tuples as
  ``{"__tuple__": [...]}`` (greet candidate lists stay tuples
  round-trip).

Encoding is byte-stable: sorted keys, compact separators, UTF-8.  Two
processes encoding the same message produce the same bytes, which is
what the golden fixture in ``tests/data/wire_golden.json`` pins down.

Payloads are restricted to JSON-expressible values (plus the tagged
types above); anything else raises :class:`CodecError` at send time
rather than corrupting silently.

Wired traffic travels as one :class:`~repro.net.reliable.Frame` per
datagram (:func:`frame_to_obj`): a data frame carries a ``batch`` of
causally stamped messages, each ``[message, stamp, rows, delivered]``
(see :mod:`repro.net.causal`), a link ack its ``cum`` and ``sacks``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict

from ..core import protocol as _protocol  # noqa: F401 - fills the registry
from ..core.protocol import PrefPayload
from ..errors import ProtocolError
from ..net.causal import Row, StampedMessage
from ..net.message import Message
from ..net.reliable import Frame, LinkAckMsg
from ..types import NodeId, ProxyId, ProxyRef

_PREF = "__pref__"
_PREFPAYLOAD = "__prefpayload__"
_TUPLE = "__tuple__"
_TAGS = (_PREF, _PREFPAYLOAD, _TUPLE)


class CodecError(ProtocolError):
    """A value that cannot cross the live wire, or a corrupt frame."""


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, ProxyRef):
        return {_PREF: [value.mss, value.proxy_id]}
    if isinstance(value, PrefPayload):
        return {_PREFPAYLOAD: [_encode_value(value.ref), value.rkpr]}
    if isinstance(value, tuple):
        return {_TUPLE: [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"dict key {key!r} is not a string; only string-keyed "
                    f"dicts cross the live wire")
            if key in _TAGS:
                raise CodecError(
                    f"dict key {key!r} collides with a codec tag")
            out[key] = _encode_value(item)
        return out
    raise CodecError(
        f"value {value!r} of type {type(value).__name__} cannot cross the "
        f"live wire (JSON-expressible payloads only)")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            if _PREF in value:
                mss, proxy_id = value[_PREF]
                return ProxyRef(mss=NodeId(mss), proxy_id=ProxyId(proxy_id))
            if _PREFPAYLOAD in value:
                ref, rkpr = value[_PREFPAYLOAD]
                return PrefPayload(ref=_decode_value(ref), rkpr=rkpr)
            if _TUPLE in value:
                return tuple(_decode_value(item) for item in value[_TUPLE])
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def message_to_obj(message: Message) -> Dict[str, Any]:
    """One message as a JSON-expressible dict (the ``"m"`` envelope slot)."""
    cls = type(message)
    if Message.class_of(cls.kind) is not cls:
        raise CodecError(
            f"{cls.__name__} (kind {cls.kind!r}) is not wire-registered")
    encoded: Dict[str, Any] = {}
    for f in fields(message):
        encoded[f.name] = _encode_value(getattr(message, f.name))
    return {"k": cls.kind, "f": encoded}


def message_from_obj(obj: Any) -> Message:
    """Rebuild a message from :func:`message_to_obj` output."""
    if not isinstance(obj, dict) or "k" not in obj or "f" not in obj:
        raise CodecError(f"malformed message object: {obj!r}")
    cls = Message.class_of(obj["k"])
    if cls is None:
        raise CodecError(f"unknown message kind {obj['k']!r}")
    raw = obj["f"]
    if not isinstance(raw, dict):
        raise CodecError(f"malformed field block: {raw!r}")
    kwargs = {name: _decode_value(value) for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise CodecError(f"cannot rebuild {obj['k']!r}: {exc}") from None


def frame_to_obj(frame: Frame) -> Dict[str, Any]:
    """One wired link frame as a ``frame`` envelope."""
    obj: Dict[str, Any] = {"t": "frame", "src": frame.src, "dst": frame.dst,
                           "seq": frame.seq}
    ack = frame.payload
    if isinstance(ack, LinkAckMsg):
        obj.update(id=ack.msg_id, cum=ack.cum, sacks=ack.sacks)
    else:
        obj["base"] = frame.base
        obj["batch"] = [
            [message_to_obj(stamped.message), stamped.stamp,
             stamped.constraints, stamped.delivered]
            for stamped in frame.stamped_messages()]
    return obj


def _typed(value: Any, kind: type) -> Any:
    if type(value) is not kind:
        raise CodecError(f"expected {kind.__name__}, got {value!r}")
    return value


def _counters(value: Any) -> Row:
    for count in _typed(value, dict).values():
        _typed(count, int)
    return value


def frame_from_obj(obj: Dict[str, Any]) -> Frame:
    """Rebuild a link frame from a ``frame`` envelope; anything malformed
    raises :class:`CodecError` (the datagram came off a socket)."""
    try:
        src = NodeId(_typed(obj["src"], str))
        dst = NodeId(_typed(obj["dst"], str))
        seq = _typed(obj["seq"], int)
        if "batch" not in obj:
            sacks = tuple((_typed(lo, int), _typed(hi, int))
                          for lo, hi in _typed(obj["sacks"], list))
            return Frame(src=src, dst=dst, seq=seq, payload=LinkAckMsg(
                msg_id=_typed(obj["id"], int), src=src, dst=dst, seq=seq,
                cum=_typed(obj["cum"], int), sacks=sacks))
        batch = tuple(StampedMessage(
            message=message_from_obj(message),
            stamp=_typed(stamp, int),
            constraints={NodeId(_typed(node, str)): _counters(row)
                         for node, row in _typed(rows, dict).items()},
            src=src,
            delivered=None if delivered is None else _counters(delivered))
            for message, stamp, rows, delivered in _typed(obj["batch"], list))
        base = _typed(obj["base"], int)
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed frame: {exc!r}") from None
    if not batch:
        raise CodecError("data frame with an empty batch")
    return Frame(src=src, dst=dst, seq=seq, base=base, batch=batch)


def encode_message(message: Message) -> bytes:
    """Byte-stable encoding (sorted keys, compact separators, UTF-8)."""
    return json.dumps(message_to_obj(message), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"corrupt wire frame: {exc}") from None
    return message_from_obj(obj)


def encode_envelope(obj: Dict[str, Any]) -> bytes:
    """Encode one transport envelope (``frame``/``wmsg``/``ctrl``)."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_envelope(data: bytes) -> Dict[str, Any]:
    """Decode one transport envelope; raises :class:`CodecError`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"corrupt datagram: {exc}") from None
    if not isinstance(obj, dict) or "t" not in obj:
        raise CodecError(f"malformed envelope: {obj!r}")
    return obj
