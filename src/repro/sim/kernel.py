"""Event-driven simulator core.

Time is a float in **microseconds** (see :mod:`repro.units`).  Callbacks are
ordered by (time, sequence), so same-time callbacks run in the order they
were scheduled — a property several protocol tests rely on.

One binary heap holds two kinds of entry under one total order:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` push
  ``(time, seq, event)`` and return the cancellable, named :class:`Event`.
* :meth:`Simulator.schedule_call` pushes ``(time, seq, fn, arg)`` and runs
  ``fn(arg)``: no Event object, no name, no cancellation.  Links, services,
  load generators and every :meth:`Simulator.call_every` loop use it.

Both draw ``seq`` from one counter, so the two kinds interleave in exactly
the order they were scheduled, and tuple comparison never reaches the
payload.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled.
    Cancellation is lazy: the heap entry stays, but the callback is skipped.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "name", "_sim", "_done")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        name: str,
        sim: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.name = name
        self._sim = sim
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call multiple times
        (and a no-op once the event has executed)."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        self._sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name!r} @ {self.time:.3f}us, {state})"


class Simulator:
    """Discrete-event simulator with a microsecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10us"))
        sim.run_until(100.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: heap entries are (time, seq, event) or (time, seq, fn, arg)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._executed = 0
        #: live (scheduled, not yet executed, not cancelled) entry count;
        #: kept in sync by schedule/cancel/run so :attr:`pending` is O(1).
        self._live = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (observability/testing)."""
        return self._executed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled entries still queued.

        O(1): a live-entry counter is maintained by the schedule calls and
        :meth:`Event.cancel` and decremented as entries execute, so the heap
        (which may still hold lazily-cancelled events) is never scanned.
        """
        return self._live

    # -- scheduling ----------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time, next(self._seq), callback, name, self)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def schedule_call(self, delay: float, callback, arg) -> None:
        """Hot-path scheduling: run ``callback(arg)`` ``delay``
        microseconds from now.  No Event object, not cancellable.

        Orders identically to :meth:`schedule` (same sequence counter); the
        argument rides in the heap entry itself, saving a closure per call.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), callback, arg)
        )
        self._live += 1

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        rng=None,
    ) -> "PeriodicHandle":
        """Run ``callback`` every ``interval`` microseconds until cancelled.

        ``jitter`` (a fraction of the interval) requires ``rng`` and spreads
        firings uniformly in ``interval * (1 ± jitter)``.  The first firing
        comes after an un-jittered ``interval``; each later delay is drawn
        *after* ``callback()`` runs, so the loop's RNG draws interleave with
        the callback's own in a fixed order (recorded experiments depend on
        it).  Cancelling leaves the already-scheduled tick in the queue as a
        no-op.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if jitter and rng is None:
            raise SimulationError("jitter requires an rng")
        handle = PeriodicHandle()
        schedule_call = self.schedule_call

        def fire(_) -> None:
            if handle.cancelled:
                return
            callback()
            if handle.cancelled:  # callback may cancel the loop
                return
            delay = interval
            if jitter:
                delay *= 1.0 + rng.uniform(-jitter, jitter)
            schedule_call(delay, fire, None)

        schedule_call(interval, fire, None)
        return handle

    # -- running -------------------------------------------------------

    def run_until(self, time: float, max_events: Optional[int] = None) -> None:
        """Run events until the clock reaches ``time`` (inclusive of events
        scheduled exactly at ``time``).  The clock is advanced to ``time``
        even if the event heap drains first.

        ``max_events`` bounds the number of **executed callbacks** only:
        lazily-cancelled events encountered while scanning the heap are
        purged for free and never consume budget (their cost was already
        accounted when :meth:`Event.cancel` ran).  Exceeding the budget
        raises :class:`SimulationError` without executing further events.
        """
        if time < self._now:
            raise SimulationError(f"cannot run backwards to t={time}")
        self._run_heap_until(time, max_events)
        self._now = max(self._now, time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap is empty, executing at most
        ``max_events`` callbacks; the clock stays at the last event."""
        self._run_heap_until(math.inf, max_events)

    def _run_heap_until(self, time: float, max_events: Optional[int]) -> None:
        """The one hot loop: local aliases, tuple entries, the budget
        charged per executed callback (see :meth:`run_until`)."""
        if self._running:
            raise SimulationError("the event loop is not re-entrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        budget = max_events
        event_class = Event
        try:
            while heap:
                entry = heap[0]
                entry_time = entry[0]
                payload = entry[2]
                if payload.__class__ is event_class and payload.cancelled:
                    # Purge without charging the budget: only executed
                    # callbacks count against max_events.
                    pop(heap)
                    continue
                if entry_time > time:
                    break
                if budget is not None:
                    if budget <= 0:
                        raise SimulationError(
                            f"exceeded max_events={max_events} before t={time}"
                        )
                    budget -= 1
                pop(heap)
                self._now = entry_time
                self._executed += 1
                self._live -= 1
                if payload.__class__ is event_class:
                    payload._done = True
                    payload.callback()
                else:
                    payload(entry[3])
        finally:
            self._running = False


class PeriodicHandle:
    """Handle returned by :meth:`Simulator.call_every`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the periodic callback (the pending tick no-ops)."""
        self.cancelled = True
