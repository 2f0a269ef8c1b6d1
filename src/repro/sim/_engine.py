"""Monomorphic discrete-event engine core.

This module is the kernel's hot loop.  ``repro.sim.core`` re-exports
its public API unchanged and layers the user-model machinery on top;
nothing outside the ``sim`` package imports this module directly.

Design rules
------------

* **Monomorphic final classes.**  Every class has ``__slots__``; the
  event path touches no properties, no ``**kwargs``, and no dynamic
  dispatch.  :class:`Environment` and :class:`_Sleep` are ``@final``;
  :class:`Event` admits the two subclasses that live
  *outside* this module (``Process`` and ``Condition`` — the user-model
  layer, never on the hot path).
* **Plain tuples on the heap.**  An event-list entry is
  ``(time, seq, event)`` — a float, an int, an object.  Priority is
  folded into the sequence key: NORMAL events use the bare monotone
  sequence number, and the rare explicitly-urgent *delayed* schedule
  (``_schedule``) biases the key negative so it sorts ahead of every
  normal entry at the same timestamp.
* **The urgent queue is a deque, not heap entries.**  Kernel
  bookkeeping scheduled "at the current instant, ahead of normal
  events" (process start kicks, node wake-ups, preemption pokes) never
  touches the heap: it lands on a FIFO deque drained before every heap
  pop.  This is order-equivalent to the old ``(time, URGENT, seq)``
  entries — an urgent event always beat every heap entry at the same
  timestamp, heap entries are never in the past, and the deque
  preserves schedule order — while skipping a heappush/heappop pair
  and a tuple per call.
* **Pooled sleeps carry a single callback slot.**  The kernel-internal
  :class:`_Sleep` (service intervals, interarrival gaps — the dominant
  event traffic) holds exactly one callback in a dedicated slot
  instead of a callback list, so firing one is: pop, stamp the clock,
  recycle into the pool, call.  No list append at arm time, no list
  detach/clear/re-attach at fire time.
* **No exception machinery.**  The engine knows nothing about
  ``Interrupt``; interruption is a user-model compatibility feature
  implemented entirely in ``repro.sim.process`` on top of the generic
  ``_schedule_call`` primitive.

Determinism contract: this restructuring is *order-equivalent* to the
pre-split kernel.  Urgent events no longer consume sequence numbers,
which relabels the normal events' keys monotonically — every pairwise
comparison between heap entries is unchanged, so fixed-seed runs are
bit-identical (pinned by ``tests/system/test_golden_determinism.py``
with no re-pin).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Deque, List, Optional, final

from .errors import EventLifecycleError, SimulationError, StopSimulation

#: Default priority for scheduled events.  Lower values fire earlier among
#: events scheduled for the same simulation time.
NORMAL = 1

#: Priority used for "urgent" bookkeeping events that must run before any
#: normal event at the same timestamp (e.g., process resumption).
URGENT = 0

#: Sequence-key bias applied by :meth:`Environment._schedule` for
#: explicitly urgent *delayed* schedules: any biased key sorts ahead of
#: every unbiased (normal) key at the same timestamp.
_URGENT_BIAS = 1 << 62

#: Sequence key of the run-horizon sentinel: above any sequence number
#: the kernel will ever issue, so the sentinel sorts *after* every real
#: entry at the horizon timestamp (events due exactly at the horizon
#: still run, as the pre-split kernel's ``when > stop_at`` test allowed).
_HORIZON_KEY = 1 << 61

_INF = float("inf")

Callback = Callable[["Event"], None]

#: Lazily resolved :class:`~repro.sim.process.Process` (import cycle guard).
_Process: Any = None

#: Lazily resolved condition classes (they live in ``repro.sim.core``,
#: the user-model layer above this module).
_AllOf: Any = None
_AnyOf: Any = None


class _PendingType:
    """Sentinel for "no value yet"; distinct from ``None`` values."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"

    def __reduce__(self) -> str:
        # Pickle by global reference: ``is _PENDING`` identity checks must
        # keep working on a restored checkpoint.
        return "_PENDING"


_PENDING = _PendingType()


def _new_instance(cls: type) -> Any:
    """Reconstructor for pickled engine objects.

    Event-class ``__init__`` methods push onto the event list as a side
    effect, so unpickling must bypass them: allocate bare and let
    ``__setstate__`` fill the slots.  Module-level so pickles reference it
    by name.
    """
    return cls.__new__(cls)


class Event:
    """An occurrence that may happen at some point in simulation time.

    An event goes through up to three stages:

    1. *pending* -- created, not yet triggered;
    2. *triggered* -- given a value (or an exception) and placed on the
       event list;
    3. *processed* -- popped from the event list; its callbacks have run.

    Processes wait for events by ``yield``-ing them.

    The only subclasses outside this module are the user-model layer's
    ``Process`` and ``Condition`` (off the hot path); the
    engine-internal subclasses are :class:`Timeout` and :class:`_Sleep`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks to invoke when the event is processed.  ``None`` once
        #: the event has been processed (guards against double-processing).
        self.callbacks: Optional[List[Callback]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed: bool = False
        self._defused: bool = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        if self._value is _PENDING:
            raise EventLifecycleError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._value is _PENDING:
            raise EventLifecycleError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns ``self`` for chaining (``return event.succeed(x)``).
        """
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        heappush(env._queue, (env._now, env._next_seq(), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Every process waiting on this event will have ``exception`` thrown
        into it.  If nobody is waiting and the failure is never *defused*,
        :meth:`Environment.step` re-raises it so that model bugs cannot pass
        silently.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise EventLifecycleError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        heappush(env._queue, (env._now, env._next_seq(), self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled, silencing the crash-on-fail."""
        self._defused = True

    # -- composition -----------------------------------------------------

    def __and__(self, other: "Event") -> Any:
        global _AllOf
        if _AllOf is None:  # resolved once; the conditions live upstairs
            from .core import AllOf as _AllOf
        return _AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> Any:
        global _AnyOf
        if _AnyOf is None:
            from .core import AnyOf as _AnyOf
        return _AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    # -- pickling (checkpoint/resume) ------------------------------------

    def __reduce__(self) -> Any:
        # The state-third-tuple form, not constructor args: the event
        # graph is cyclic (env -> queue -> event -> env), and pickle can
        # only memoize this object between allocation and __setstate__.
        if type(self) is not Event:
            raise TypeError(
                f"cannot pickle {type(self).__name__}: generator processes "
                "and conditions are not checkpointable"
            )
        return (
            _new_instance,
            (Event,),
            (self.env, self.callbacks, self._value, self._ok,
             self._processed, self._defused),
        )

    def __setstate__(self, state: Any) -> None:
        (self.env, self.callbacks, self._value, self._ok,
         self._processed, self._defused) = state


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    Timeouts dominate public event traffic, so construction writes the
    slots directly and pushes onto the event list inline instead of
    chaining through ``Event.__init__`` + ``Environment._schedule``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        heappush(env._queue, (env._now + delay, env._next_seq(), self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"

    def __reduce__(self) -> Any:
        if type(self) is not Timeout:
            raise TypeError(
                f"cannot pickle {type(self).__name__} via Timeout.__reduce__"
            )
        return (
            _new_instance,
            (Timeout,),
            (self.env, self.callbacks, self._value, self._ok,
             self._processed, self._defused, self.delay),
        )

    def __setstate__(self, state: Any) -> None:
        (self.env, self.callbacks, self._value, self._ok,
         self._processed, self._defused, self.delay) = state


@final
class _Sleep(Timeout):
    """A pooled timeout reserved for kernel-internal sleep cycles.

    Created only via :meth:`Environment._sleep`.  When the run loop
    finishes processing one of these it returns the object to the
    environment's pool for the next ``_sleep`` call, eliminating the
    allocations per service interval / interarrival gap that dominate
    event traffic.

    Unlike every other event, a sleep carries exactly **one** callback in
    the dedicated :attr:`callback` slot (its ``callbacks`` list is
    permanently ``None``): arming costs one slot store, firing costs one
    call, and there is no list to detach, clear, or re-attach.  The
    contract: callers must not retain the event after it fires — with one
    exception: the owner of the callback may :meth:`cancel` the sleep
    while it is still pending (this is how preemptive servers revoke a
    scheduled completion).
    """

    __slots__ = ("callback",)

    def __init__(
        self, env: "Environment", delay: float, callback: Callback
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.env = env
        #: Permanently ``None``: generic event plumbing (processes,
        #: conditions, ``run(until=...)``) must never adopt a pooled
        #: sleep, and every ``callbacks is not None`` guard treats it as
        #: already spoken for.
        self.callbacks = None
        self._value = None
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        self.callback: Optional[Callback] = callback
        heappush(env._queue, (env._now + delay, env._next_seq(), self))

    def cancel(self) -> None:
        """Defuse this pending sleep: its callback will never run.

        Deleting from the middle of a binary heap is O(n), so the heap
        entry stays where it is; when the run loop pops it at the
        original expiry time, the silenced event carries no callback and
        is recycled into the pool exactly like a fired sleep.  The object
        therefore returns to service automatically -- callers just drop
        their reference after cancelling.

        Only legal while the sleep is pending: cancelling a processed
        sleep raises.  That guard is best-effort, though -- it catches a
        stale cancel only until the pool re-issues the object, after
        which a retained reference is indistinguishable from the new
        owner's (a stale cancel would silently clear the new owner's
        callback).  The pool contract is the real protection: drop the
        reference once the sleep has fired or been cancelled.
        """
        if self._processed:
            raise EventLifecycleError(
                f"cannot cancel {self!r}: it has already been processed"
            )
        self.callback = None

    def __repr__(self) -> str:
        return f"<_Sleep delay={self.delay!r} at {id(self):#x}>"

    def __reduce__(self) -> Any:
        return (
            _new_instance,
            (_Sleep,),
            (self.env, self.delay, self.callback,
             self._processed, self._defused),
        )

    def __setstate__(self, state: Any) -> None:
        (self.env, self.delay, self.callback,
         self._processed, self._defused) = state
        # Fixed for the object's whole lifetime (see __init__).
        self.callbacks = None
        self._value = None
        self._ok = True


@final
class _Call:
    """A bare single-callback bookkeeping event (``_schedule_call``).

    The kernel's "call this at the current time" primitive: process
    start kicks, already-fired-target resumptions, node wake-ups,
    preemption pokes, and deferred ``on_done`` continuations are all
    one callback with a payload -- no callback list, no lifecycle, no
    ``env`` backref.  Dispatching one is four slot reads and a call.

    Callers receiving a ``_Call`` as their event argument may read
    ``_ok``/``_value``/``_defused`` and set ``_defused`` (the process
    resume protocol); nothing else is supported.  Long-lived callers
    (node wake, preemption poke) may pool one instance and re-enqueue
    it after it fires -- the callback slot is never detached, so
    re-arming is free (guard against double-enqueueing yourself).
    """

    __slots__ = ("callback", "_value", "_ok", "_defused")

    def __init__(
        self,
        callback: Callback,
        ok: bool = True,
        value: Any = None,
        defused: bool = False,
    ) -> None:
        self.callback = callback
        self._value = value
        self._ok = ok
        self._defused = defused

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Call {self.callback!r} at {id(self):#x}>"

    def __reduce__(self) -> Any:
        # State form even though _Call has no env backref: the callback
        # is usually a bound method of an object that (transitively)
        # holds this very event, so the graph can still be cyclic.
        return (
            _new_instance,
            (_Call,),
            (self.callback, self._value, self._ok, self._defused),
        )

    def __setstate__(self, state: Any) -> None:
        self.callback, self._value, self._ok, self._defused = state


@final
class Environment:
    """Simulation clock, event list, and process launcher.

    Typical use::

        env = Environment()

        def worker(env):
            yield env.timeout(5)
            print("done at", env.now)

        env.process(worker(env))
        env.run(until=100)
    """

    __slots__ = (
        "_now", "_queue", "_next_seq", "_urgent", "_active_process",
        "_sleep_pool",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        #: The event list: a binary heap of ``(time, seq, event)`` entries.
        self._queue: List[Any] = []
        #: Monotone sequence-key source for heap entries (FIFO among
        #: same-time events); bound ``count().__next__`` is the fastest
        #: interpreted increment.
        self._next_seq: Callable[[], int] = count().__next__
        #: Urgent bookkeeping calls due at the current instant, drained
        #: FIFO before every heap pop (see the module docstring).
        self._urgent: Deque[_Call] = deque()
        self._active_process: Any = None  # set by Process while running
        self._sleep_pool: List[_Sleep] = []

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Any:
        """The :class:`~repro.sim.process.Process` currently executing."""
        return self._active_process

    # -- event construction ----------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def _sleep(self, delay: float, callback: Callback) -> _Sleep:
        """Pooled single-callback timeout for kernel-internal hot loops.

        Same firing semantics as ``timeout(delay)`` with one callback
        attached, but the returned event is recycled by the run loop once
        it has fired, so callers (node servers, workload sources) MUST
        NOT retain it afterwards -- except to :meth:`_Sleep.cancel` it
        while still pending.  Use :meth:`timeout` anywhere the event may
        outlive its firing.
        """
        pool = self._sleep_pool
        if not pool:
            return _Sleep(self, delay, callback)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        event = pool.pop()
        event.delay = delay
        event.callback = callback
        event._processed = False
        # _value is None and _ok True for the object's whole lifetime.
        heappush(self._queue, (self._now + delay, self._next_seq(), event))
        return event

    def all_of(self, events: Any) -> Any:
        """Create an event that fires once all of ``events`` have fired."""
        global _AllOf
        if _AllOf is None:
            from .core import AllOf as _AllOf
        return _AllOf(self, events)

    def any_of(self, events: Any) -> Any:
        """Create an event that fires once any of ``events`` has fired."""
        global _AnyOf
        if _AnyOf is None:
            from .core import AnyOf as _AnyOf
        return _AnyOf(self, events)

    def process(self, generator: Any) -> Any:
        """Start a new process running ``generator``."""
        global _Process
        if _Process is None:  # resolved once; avoids a per-call import
            from .process import Process as _Process
        return _Process(self, generator)

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        """Place a triggered event on the event list.

        The generic (priority, delay) path: priorities below NORMAL bias
        the sequence key negative so the entry sorts ahead of every
        normal entry at its timestamp.  Kernel code never schedules
        urgent work with a delay -- zero-delay urgent dispatch goes
        through :meth:`_schedule_call`'s deque instead.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._next_seq()
        if priority < NORMAL:
            seq -= _URGENT_BIAS
        heappush(self._queue, (self._now + delay, seq, event))

    def _schedule_call(
        self,
        callback: Callback,
        ok: bool = True,
        value: Any = None,
        defused: bool = False,
        priority: int = URGENT,
    ) -> _Call:
        """Schedule a lightweight single-callback event at the current time.

        Internal fast path for kernel bookkeeping (start-of-process kicks,
        already-fired-target resumptions, node server wake-ups, deferred
        completion continuations): builds a bare :class:`_Call`, by
        default with :data:`URGENT` priority so it runs before any normal
        event at the same timestamp.  Urgent calls land on the FIFO deque
        (never the heap); :data:`NORMAL` calls take a regular heap entry
        at the current time.
        """
        event = _Call.__new__(_Call)
        event.callback = callback
        event._value = value
        event._ok = ok
        event._defused = defused
        if priority == URGENT:
            self._urgent.append(event)
        else:
            heappush(self._queue, (self._now, self._next_seq(), event))
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent:
            return self._now
        queue = self._queue
        return queue[0][0] if queue else _INF

    def _seq_peek(self) -> int:
        """The next heap sequence number, without consuming it.

        ``count.__next__`` cannot be read non-destructively, so this
        draws the number and rebinds a fresh counter starting at the
        same value -- the following real ``_next_seq()`` call yields
        exactly this number again.  Used by checkpointing (progress
        triggers, and snapshotting the counter position).
        """
        seq = self._next_seq()
        self._next_seq = count(seq).__next__
        return seq

    # -- pickling (checkpoint/resume) ------------------------------------

    def __reduce__(self) -> Any:
        # _active_process is only non-None while a Process is executing;
        # snapshots are taken between events, and processes are not
        # checkpointable anyway, so it is deliberately not captured.
        return (
            _new_instance,
            (Environment,),
            (self._now, self._seq_peek(), list(self._queue),
             list(self._urgent), list(self._sleep_pool)),
        )

    def __setstate__(self, state: Any) -> None:
        now, seq, queue, urgent, pool = state
        self._now = now
        self._queue = queue
        self._next_seq = count(seq).__next__
        self._urgent = deque(urgent)
        self._active_process = None
        self._sleep_pool = pool

    def step(self) -> None:
        """Process the single next event.

        The reference implementation of one :meth:`run` loop iteration
        (pinned against the inlined loop by
        ``tests/sim/test_engine.py``): drain the urgent deque
        first, then pop the heap; pooled sleeps fire their single
        callback and recycle, every other event runs its callback list
        and re-raises undefused failures.  Raises
        :class:`SimulationError` when no event is left.
        """
        urgent = self._urgent
        if urgent:
            call = urgent.popleft()
            call.callback(call)
            if not call._ok and not call._defused:
                exc = call._value
                raise exc
            return
        if not self._queue:
            raise SimulationError("no more events to process")
        when, _seq, event = heappop(self._queue)
        self._now = when
        if type(event) is _Sleep:
            event._processed = True
            self._sleep_pool.append(event)
            sleep_callback = event.callback
            if sleep_callback is not None:
                sleep_callback(event)
            return
        if type(event) is _Call:
            event.callback(event)
            if not event._ok and not event._defused:
                exc = event._value
                raise exc
            return
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        for callback in callbacks:  # type: ignore[union-attr]
            callback(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: crash loudly per the Zen of Python.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until the event list is exhausted;
        * a number -- run until the clock reaches that time;
        * an :class:`Event` -- run until that event is processed, returning
          its value.
        """
        stop_event: Optional[Event] = None
        sentinel: Optional[_Call] = None
        stop_at = _INF
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
                if until.callbacks is not None:
                    until.callbacks.append(_stop_simulation)
                elif until._processed:
                    return until._value
                else:
                    # Pending with no callback list: a pooled kernel
                    # sleep.  It is recycled at expiry, so waiting on it
                    # is always a bug -- fail loudly.
                    raise SimulationError(
                        f"run(until={until!r}): cannot wait on a pooled "
                        "kernel sleep; use env.timeout(delay) instead"
                    )
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise SimulationError(
                        f"until={stop_at} lies in the past (now={self._now})"
                    )
                # The time horizon is one *sentinel heap entry* instead of
                # a per-event ``when > stop_at`` comparison: the sentinel
                # sorts after every real entry at ``stop_at`` (its key is
                # above any sequence number ever issued), so all events due
                # at or before the horizon run first, then the sentinel
                # advances the clock to ``stop_at`` (the pop does it) and
                # stops the loop.  Events beyond the horizon simply stay
                # in the heap for a later ``run()``.
                sentinel = _Call(_horizon_reached)
                heappush(self._queue, (stop_at, _HORIZON_KEY, sentinel))

        # Inlined copy of step() -- see that method for the commented
        # reference semantics.  Dispatching an event here costs one pop
        # plus the callback call(s); the method-call version pays a
        # peek(), a step() call, and several attribute lookups per event,
        # which at millions of events per run dominates wall-clock time.
        queue = self._queue
        urgent = self._urgent
        pop = heappop
        pool_append = self._sleep_pool.append
        sleep_cls = _Sleep
        call_cls = _Call
        try:
            while True:
                if urgent:
                    call = urgent.popleft()
                    call.callback(call)
                    if not call._ok and not call._defused:
                        raise call._value
                    continue
                if not queue:
                    break
                when, seq, event = pop(queue)
                self._now = when
                if type(event) is sleep_cls:
                    # The dominant event kind: recycle into the pool (the
                    # callback may immediately re-arm this very object)
                    # and fire the single callback slot -- empty when the
                    # sleep was cancelled.
                    event._processed = True
                    pool_append(event)
                    sleep_callback = event.callback
                    if sleep_callback is not None:
                        sleep_callback(event)
                    continue
                if type(event) is call_cls:
                    # NORMAL-priority bookkeeping (deferred completion
                    # continuations) -- or the horizon sentinel, which
                    # raises StopSimulation from its callback.
                    event.callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:  # type: ignore[union-attr]
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        else:
            if stop_event is not None and stop_event._value is _PENDING:
                raise SimulationError(
                    "run(until=event) exhausted the event list before the "
                    "event was triggered"
                )
        finally:
            if sentinel is not None and not sentinel._defused:
                # The loop exited by some other means (an error, or a
                # StopSimulation raised by user code) before the horizon:
                # withdraw the unconsumed sentinel so a later run() does
                # not stop at this horizon.  Runs are rare and the heap is
                # small, so the linear remove is irrelevant.
                try:
                    queue.remove((stop_at, _HORIZON_KEY, sentinel))
                except ValueError:  # pragma: no cover - defensive
                    pass
                else:
                    heapify(queue)
        return None


def _horizon_reached(call: "_Call") -> None:
    """Callback of the run-horizon sentinel (see :meth:`Environment.run`).

    Marks the sentinel consumed (``_defused``) so ``run`` knows the stop
    came from the horizon, then stops the loop with a ``None`` result.
    """
    call._defused = True
    raise StopSimulation(None)


def _stop_simulation(event: Event) -> None:
    """Callback attached to ``run(until=event)`` targets."""
    raise StopSimulation(event._value)
