"""Deterministic event scheduler that owns :class:`SimClock` advancement.

Before the event-driven refactor every component advanced the shared
clock directly (``clock.advance(latency)``), which forces strictly
serial execution: nothing can overlap because the caller *is* the
timeline.  The scheduler inverts that: components register future
events (command completions, background work) and the clock only moves
when an event fires.  Two properties are load-bearing:

* **Determinism** — events are ordered by ``(time_us, seq)`` where
  ``seq`` is the registration order.  Two events at the same timestamp
  always fire in the order they were scheduled, never in heap-internal
  or hash order, so identical runs produce identical firing sequences.
* **Monotonicity** — firing an event advances the clock to the event's
  timestamp via :meth:`SimClock.advance_to`, which clamps rather than
  rewinds: an event registered in the past (a completion computed for a
  lagging closed-loop client) fires immediately without moving time
  backwards.

Cancellation is lazy (tombstone flag, skipped on pop), so
``power_cycle`` can drop a device's in-flight completions in O(1) per
event.

Hot-path design (the ``sim.dispatch`` phase of the profiler): fired and
cancelled-popped :class:`Event` objects are recycled through a bounded
freelist, and :meth:`run_until` — the device's per-command drain loop —
pops, fires and recycles inline instead of paying a :meth:`step` call
per event.  The recycling contract: an ``Event`` reference returned by
:meth:`at`/:meth:`after` is valid until the event fires or is
cancelled; after that the object may be reused for a future event, so
holders must drop (or overwrite) their reference at fire/cancel time.
Every in-repo holder (the device's single drain event) does.
"""

from __future__ import annotations

import heapq
from time import perf_counter_ns
from typing import Any, Callable, List, Optional

from repro.sim.clock import SimClock

#: Bound on recycled Event objects retained between firings.  Steady
#: state needs one per concurrently-pending completion frame; 64 covers
#: every stack the harness builds with room to spare.
_FREELIST_MAX = 64

#: run_until_idle: how many events may fire at one frozen timestamp
#: before the loop is declared stuck.  A legitimate burst (a deep queue
#: draining at one completion time) is tens of events; a runaway
#: self-rescheduling loop crosses this within milliseconds of wall time.
DEFAULT_STALL_LIMIT = 100_000


class Event:
    """One scheduled callback.  Compare/sort by ``(time_us, seq)``."""

    __slots__ = ("time_us", "seq", "fn", "label", "cancelled")

    def __init__(self, time_us: int, seq: int, fn: Callable[[], None],
                 label: str) -> None:
        self.time_us = time_us
        self.seq = seq
        self.fn = fn
        self.label = label
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time_us, self.seq) < (other.time_us, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return (f"Event(t={self.time_us}, seq={self.seq}, "
                f"label={self.label!r}, {state})")


class EventScheduler:
    """Deterministic discrete-event loop over a shared :class:`SimClock`.

    A single scheduler is shared by every device on a clock (the
    benchmark stacks register the data and log SSD on one scheduler), so
    completions across devices fire in global completion order — the
    property the fault journal's ack boundary relies on.

    ``profiler`` is duck-typed (anything with ``enabled`` and
    ``timer(name)``, i.e. a :class:`repro.obs.profiling.PhaseProfiler`)
    rather than imported, keeping :mod:`repro.sim` free of an obs
    dependency.  When enabled, every fired callback is charged to the
    ``sim.dispatch`` wall-clock phase.
    """

    def __init__(self, clock: SimClock, profiler: Optional[Any] = None) -> None:
        self.clock = clock
        self._heap: List[Event] = []
        self._free: List[Event] = []
        self._seq = 0
        self._cancelled = 0
        self.fired = 0
        self._pt_dispatch = (profiler.timer("sim.dispatch")
                             if profiler is not None
                             and getattr(profiler, "enabled", False) else None)

    # ------------------------------------------------------------ schedule

    def at(self, time_us: int, fn: Callable[[], None],
           label: str = "") -> Event:
        """Schedule ``fn`` to fire at absolute virtual time ``time_us``.

        A timestamp at or before the current time is allowed: the event
        fires on the next run without advancing the clock."""
        time_us = int(time_us)
        if time_us < 0:
            raise ValueError(f"cannot schedule before time zero: {time_us}")
        self._seq += 1
        free = self._free
        if free:
            event = free.pop()
            event.time_us = time_us
            event.seq = self._seq
            event.fn = fn
            event.label = label
            event.cancelled = False
        else:
            event = Event(time_us, self._seq, fn, label)
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay_us: float, fn: Callable[[], None],
              label: str = "") -> Event:
        """Schedule ``fn`` to fire ``delay_us`` from now.

        The delay is rounded with ``int(round())`` — Python's
        round-half-to-even ("banker's") rounding — which is the *same*
        convention :meth:`SimClock.advance` and the device's
        ``_price_media`` apply.  Serial-vs-event bit-identity depends on
        the three sites agreeing; ``tests/test_sim_events.py`` pins it.
        """
        if delay_us < 0:
            raise ValueError(f"negative delay: {delay_us}")
        return self.at(self.clock.now_us + int(round(delay_us)), fn, label)

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event.  Returns False when it already fired
        or was already cancelled.

        Cancellation is lazy: the tombstoned object stays in the heap
        until popped, and only then joins the freelist — a recycled
        event always starts with a fresh ``cancelled`` flag, so reuse
        can never resurrect (or re-suppress) an earlier cancellation."""
        if event.cancelled or event.fn is None:
            return False
        event.cancelled = True
        event.fn = None   # break reference cycles through closures
        self._cancelled += 1
        return True

    # ----------------------------------------------------------- introspect

    @property
    def pending(self) -> int:
        """Events scheduled and neither fired nor cancelled."""
        return len(self._heap) - self._cancelled

    def next_time_us(self) -> Optional[int]:
        """Timestamp of the next live event, or None when idle."""
        self._drop_cancelled()
        return self._heap[0].time_us if self._heap else None

    def _drop_cancelled(self) -> None:
        heap = self._heap
        free = self._free
        while heap and heap[0].cancelled:
            event = heapq.heappop(heap)
            self._cancelled -= 1
            if len(free) < _FREELIST_MAX:
                event.cancelled = False
                free.append(event)

    # ---------------------------------------------------------------- run

    def step(self) -> Optional[Event]:
        """Fire the next event (advancing the clock to it).  Returns the
        event, or None when nothing is pending.

        The returned event is *not* recycled (the caller may inspect its
        label/timestamp), so a step-driven loop allocates; the hot path
        is :meth:`run_until`, which recycles inline."""
        self._drop_cancelled()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.time_us)
        self.fired += 1
        fn, event.fn = event.fn, None
        pt = self._pt_dispatch
        if pt is not None:
            t0 = perf_counter_ns()
            fn()
            pt.add(perf_counter_ns() - t0)
        else:
            fn()
        return event

    def run_until(self, time_us: int) -> int:
        """Fire every event with timestamp <= ``time_us`` in
        deterministic order.  Returns the number fired.  The clock ends
        at the last fired event (not at ``time_us``): the scheduler only
        materialises time where something happened.

        This is the device drain hot path: the pop/advance/fire loop is
        inlined (no per-event :meth:`step` call) and fired events are
        recycled through the freelist before their callback runs, so a
        callback that schedules a follow-up event reuses the object it
        was fired from."""
        heap = self._heap
        if not heap:
            return 0
        head = heap[0]
        if head.time_us > time_us and not head.cancelled:
            # Nothing due (the per-operation poll's common case): skip
            # the loop-local setup entirely.
            return 0
        fired = 0
        heappop = heapq.heappop
        advance_to = self.clock.advance_to
        free = self._free
        pt = self._pt_dispatch
        while heap:
            event = heap[0]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                if len(free) < _FREELIST_MAX:
                    event.cancelled = False
                    free.append(event)
                continue
            if event.time_us > time_us:
                break
            heappop(heap)
            advance_to(event.time_us)
            self.fired += 1
            fired += 1
            fn = event.fn
            event.fn = None
            if len(free) < _FREELIST_MAX:
                free.append(event)
            if pt is not None:
                t0 = perf_counter_ns()
                fn()
                pt.add(perf_counter_ns() - t0)
            else:
                fn()
        return fired

    def fire_if_idle(self, time_us: int, fn: Callable[[Any], None],
                     arg: Any) -> bool:
        """Fire ``fn(arg)`` at ``time_us`` without queueing it, when
        nothing else is scheduled; returns False (doing nothing) when the
        heap holds any event, live or cancelled.

        With an empty heap, scheduling the callback at ``time_us`` and
        calling ``run_until(time_us)`` would fire exactly it: advance the
        clock to ``time_us``, count one fired event, run the callback.
        This does the same three steps with no event object, heap push
        or pop — the synchronous device command's completion path."""
        if self._heap:
            return False
        self.clock.advance_to(time_us)
        self.fired += 1
        pt = self._pt_dispatch
        if pt is not None:
            t0 = perf_counter_ns()
            fn(arg)
            pt.add(perf_counter_ns() - t0)
        else:
            fn(arg)
        return True

    def run_until_idle(self, stall_limit: int = DEFAULT_STALL_LIMIT) -> int:
        """Fire everything pending (events may schedule further events).

        Guards against runaway self-rescheduling by detecting actual
        non-progress: ``stall_limit`` bounds how many events may fire
        *without the clock advancing*, not the total fired.  A
        legitimately long run (millions of events, each moving time
        forward) never trips it; a loop rescheduling itself at the
        current timestamp does, and the raised error names the labels
        of the events spinning at the stuck timestamp."""
        if stall_limit < 1:
            raise ValueError(f"stall_limit must be >= 1: {stall_limit}")
        fired = 0
        stalled = 0
        recent: List[str] = []
        last_now = self.clock.now_us
        while True:
            event = self.step()
            if event is None:
                return fired
            fired += 1
            now = self.clock.now_us
            if now > last_now:
                last_now = now
                if stalled:
                    stalled = 0
                    recent.clear()
            else:
                stalled += 1
                if len(recent) < 8:
                    recent.append(event.label or "<unlabelled>")
                if stalled >= stall_limit:
                    labels = ", ".join(sorted(set(recent)))
                    raise RuntimeError(
                        f"event loop is not making progress: {stalled} "
                        f"events fired at t={now}us without the clock "
                        f"advancing (recent labels: {labels})")
