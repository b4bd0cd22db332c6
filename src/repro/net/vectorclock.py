"""Vector clocks.

Used by the trace verifier's causal-order checker
(:class:`repro.verify.oracle.CausalWiredOrder`), which audits the paper's
assumption 1 — inter-MSS communication is reliable and causally ordered —
independently of the ordering layer that implements it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional


class VectorClock:
    """A sparse vector clock over node-id strings.

    Missing entries are zero.  Comparison follows the usual partial order:
    ``a <= b`` iff every component of ``a`` is <= the one in ``b``.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Optional[Mapping[str, int]] = None) -> None:
        self._clock: Dict[str, int] = {k: v for k, v in (clock or {}).items() if v}

    def tick(self, node: str) -> None:
        """Advance *node*'s component by one."""
        self._clock[node] = self._clock.get(node, 0) + 1

    def get(self, node: str) -> int:
        return self._clock.get(node, 0)

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out._clock = self._clock.copy()
        return out

    def merge(self, other: "VectorClock") -> None:
        """Pointwise max, in place."""
        clock = self._clock
        get = clock.get
        for node, value in other._clock.items():
            if value > get(node, 0):
                clock[node] = value

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``other <= self`` (pointwise)."""
        get = self._clock.get
        for node, value in other._clock.items():
            if get(node, 0) < value:
                return False
        return True

    def __le__(self, other: "VectorClock") -> bool:
        return other.dominates(self)

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self != other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clock == other._clock

    def __hash__(self) -> int:
        return hash(frozenset(self._clock.items()))

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True when neither clock dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._clock.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self._clock.items()))
        return f"VC({inner})"
