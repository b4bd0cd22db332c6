"""Message base class and registry.

Concrete protocol messages (RDP control and data messages, application
payloads) subclass :class:`Message`.  Each subclass declares a ``kind``
string used in traces, metrics and message-sequence charts.

Sizes are modelled, not marshalled: :meth:`Message.size_bytes` returns a
deterministic estimate (fixed header plus per-field costs) so experiments
such as AN7 (hand-off state transfer cost) can compare byte counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from ..types import NodeId

_msg_counter = itertools.count(1)

HEADER_BYTES = 40
PER_FIELD_BYTES = 8

#: Per class, the fields :meth:`Message.size_bytes` charges for.
_SIZED_FIELDS: Dict[Type[Message], Tuple[str, ...]] = {}


def _payload_size(value: Any) -> int:
    """Rough serialized size of one message field."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_payload_size(v) for v in value) + PER_FIELD_BYTES
    if isinstance(value, dict):
        return sum(_payload_size(k) + _payload_size(v) for k, v in value.items())
    return PER_FIELD_BYTES


@dataclass(slots=True, kw_only=True)
class Message:
    """Base class for every simulated message.

    ``src``/``dst`` are filled in by the network when the message is sent;
    ``msg_id`` is globally unique and used for duplicate detection.
    """

    kind: ClassVar[str] = "message"

    msg_id: int = field(default_factory=lambda: next(_msg_counter))
    src: Optional[NodeId] = None
    dst: Optional[NodeId] = None

    _registry: ClassVar[Dict[str, Type["Message"]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # No zero-arg super() here: @dataclass(slots=True) rebuilds every
        # subclass, which breaks the __class__ cell zero-arg super relies
        # on.  Message's base is object, so there is nothing to chain to.
        kind = cls.__dict__.get("kind")
        if kind is not None:
            # The slots rebuild registers each class twice; last one wins
            # (it is the final, slotted class object).
            Message._registry[kind] = cls

    @classmethod
    def registry(cls) -> Dict[str, Type["Message"]]:
        """Mapping of kind string to message class (read-only use)."""
        return dict(cls._registry)

    @classmethod
    def class_of(cls, kind: str) -> Optional[Type["Message"]]:
        """The class registered for *kind*, or None (no registry copy)."""
        return cls._registry.get(kind)

    def size_bytes(self) -> int:
        """Deterministic modelled wire size."""
        cls = type(self)
        names = _SIZED_FIELDS.get(cls)
        if names is None:
            names = _SIZED_FIELDS[cls] = tuple(
                f.name for f in fields(self)
                if f.name not in ("msg_id", "src", "dst"))
        total = HEADER_BYTES
        for name in names:
            total += PER_FIELD_BYTES + _payload_size(getattr(self, name))
        return total

    def describe(self) -> str:
        """Short human-readable form used in sequence charts."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} #{self.msg_id} "
            f"{self.src}->{self.dst} {self.describe()}>"
        )
