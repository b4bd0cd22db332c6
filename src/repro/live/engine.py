"""The wall-clock :class:`~repro.engine.Engine` over an asyncio loop.

:class:`AsyncioEngine` is the live twin of
:class:`repro.sim.simulator.Simulator`: same ``now`` property, same
``schedule(delay, callback, *args, label=...)`` contract, same
:class:`~repro.errors.SchedulingError` on negative delays — so a
protocol-entity bug surfaces identically under simulation and on the
wire.  Delays are real seconds served by ``loop.call_later`` (a zero
delay by ``loop.call_soon``); the handle it returns is wrapped in a
:class:`LiveEvent` satisfying :class:`repro.engine.ScheduledEvent`
(idempotent ``cancel``, a cancelled event's callback never runs).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from ..errors import SchedulingError
from .clock import LiveClock


class LiveEvent:
    """Cancellable handle for one ``call_later``/``call_soon`` callback.

    Mirrors :class:`repro.sim.event.Event`'s cancellation surface: the
    ``cancelled`` flag plus an idempotent :meth:`cancel` that is a no-op
    after the callback fired — exactly what :class:`repro.sim.Timer` and
    the entities' own timer bookkeeping rely on.
    """

    __slots__ = ("label", "cancelled", "fired", "_handle")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.cancelled = False
        self.fired = False
        self._handle: Optional[asyncio.Handle] = None

    def cancel(self) -> None:
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "armed")
        return f"<LiveEvent {self.label or '?'} {state}>"


class AsyncioEngine:
    """Clock plus scheduler on real time (one per live process)."""

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 clock: LiveClock) -> None:
        self.loop = loop
        self.clock = clock
        self.scheduled_count = 0

    @property
    def now(self) -> float:
        return self.clock.now()

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> LiveEvent:
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {label or callback!r} {-delay!r}s in the past")
        event = LiveEvent(label)

        def _fire() -> None:
            # The handle's own cancel() prevents most late firings;
            # the flag covers a cancel landing in the same loop iteration.
            if event.cancelled:
                return
            event.fired = True
            callback(*args)

        # Zero-delay callbacks (the wired link's per-tick flush) skip the
        # timer heap; either way they run on the loop's next pass.
        event._handle = (self.loop.call_later(delay, _fire) if delay > 0
                         else self.loop.call_soon(_fire))
        self.scheduled_count += 1
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AsyncioEngine now={self.now:.3f}>"
