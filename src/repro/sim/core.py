"""Core of the discrete-event simulation kernel.

This module provides the :class:`Environment` (simulation clock plus event
list) and the :class:`Event` family.  It plays the role that the DeNet
simulation language [Livny 1990] played for the original paper: a generic
discrete-event substrate on which the task/node/scheduler model is built.

The hot engine itself (event list, run loop, pooled sleeps, urgent
deque) lives in :mod:`repro.sim._engine`, a self-contained, monomorphic
module whose public API this module re-exports unchanged.  On top of it
sits the *user-model* machinery: the condition events
(:class:`AllOf`/:class:`AnyOf`) here, and the generator
:class:`~repro.sim.process.Process` (including the ``Interrupt``
compatibility API) in :mod:`repro.sim.process`.  Neither is on the
event hot path.

Design notes
------------

* The event list is a binary heap of ``(time, seq, event)`` tuples.  The
  monotonically increasing ``seq`` key guarantees FIFO order among
  events scheduled for the same time, which makes simulations fully
  deterministic for a fixed seed; urgent bookkeeping bypasses the heap
  on a FIFO deque (see the engine module docstring).
* Processes (see :mod:`repro.sim.process`) are Python generators that yield
  events; the environment resumes them when the yielded event fires.  This
  is the same co-routine style popularized by SimPy, reimplemented here
  because no simulation package is available offline.
* Events support success *and* failure.  A failed event re-raises its
  exception inside every waiting process, which is how task aborts
  propagate.
"""

from __future__ import annotations

from typing import Any, Iterable

from ._engine import (
    NORMAL,
    URGENT,
    Callback,
    Environment,
    Event,
    Timeout,
    _Call,
    _PENDING,
    _Sleep,
    _stop_simulation,
)
from .errors import SimulationError

#: The engine's name in checkpoint and metric-series headers and in
#: benchmark metadata.  A checkpoint whose header names another kernel
#: pickles engine classes that do not exist here, so it is refused.
KERNEL: str = "python"


class ConditionValue:
    """Ordered mapping of event -> value for fired condition events."""

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a boolean combination of other events.

    Subclasses define :meth:`_check` deciding when the condition holds.
    A failing constituent event fails the whole condition immediately.

    Conditions are user-model machinery (fork/join composition), not
    kernel machinery: they live above the engine module and are never on
    the per-event hot path.
    """

    __slots__ = ("_events", "_fired_count")

    def __init__(self, env: Environment, events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired_count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.processed:
                self._on_fire(event)
            else:
                callbacks = event.callbacks
                if callbacks is None:
                    # Pending with no callback list: a pooled kernel
                    # sleep, which is recycled at expiry and must never
                    # be composed into a condition.
                    raise SimulationError(
                        f"cannot wait on a pooled kernel sleep ({event!r});"
                        " use env.timeout(delay) instead"
                    )
                callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event.value)
            return
        self._fired_count += 1
        if self._check():
            self.succeed(ConditionValue(
                [ev for ev in self._events if ev.triggered and ev._ok]
            ))

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* constituent events have fired successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._fired_count == len(self._events)


class AnyOf(Condition):
    """Fires when *any* constituent event has fired successfully."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._fired_count >= 1
