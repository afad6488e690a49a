"""Discrete-event simulation engine.

A minimal but complete event loop: a priority queue of timestamped
events with deterministic tie-breaking (insertion order), cancellation,
periodic events and a watchdog against runaway simulations.  Everything
in :mod:`repro` that needs time — link transmission, TCP retransmission
timers, Blink's eviction/reset timers, PCC monitor intervals — runs on
this engine, replacing the mininet testbed the paper used.

The queue is an indexed calendar queue (Brown 1988): pending events are
hashed into fixed-width time buckets held in a dict, with a small
integer heap ordering the non-empty buckets.  Most pushes are O(1)
appends; each bucket is sorted lazily once, when the clock first
reaches it.  At the queue depths the packet-level Blink experiments
produce (tens to hundreds of thousands of pending events) this is
several times faster than a binary heap.

Events fire in ``(time, insertion sequence)`` order.  This is
load-bearing for reproducibility and is pinned callback for callback
against a plain ``heapq`` ordering oracle in
``tests/test_netsim_scheduler.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _wallclock
from bisect import insort
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import (
    ConfigurationError,
    ExperimentTimeout,
    SchedulingError,
    SimulationError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs

EventCallback = Callable[[], None]

#: How often (in processed events) the wall-clock watchdog is polled.
_WALL_CHECK_STRIDE = 1024

#: Default calendar-queue bucket width in simulated seconds.  Buckets
#: are materialised only when an event lands in them (the index is a
#: dict), so a narrow width costs nothing on sparse timelines.
DEFAULT_BUCKET_WIDTH = 0.01

#: Upper bound on the per-loop free list of recycled transient events.
_EVENT_POOL_LIMIT = 4096


def suggest_bucket_width(
    times: Sequence[float],
    target_per_bucket: float = 4.0,
    floor: float = 1e-6,
    ceiling: float = 10.0,
) -> float:
    """Pick a calendar bucket width from a sample of event times.

    The sharded engines tune each shard's calendar queue to *its own*
    workload density instead of the global
    :data:`DEFAULT_BUCKET_WIDTH`: the width is the observed median
    inter-event gap (robust against a dense burst plus a long tail,
    where the mean gap would over-widen) scaled so a bucket holds about
    ``target_per_bucket`` events, clamped to ``[floor, ceiling]``.

    A pure, deterministic function of the sample.  The queue fires
    events in ``(time, sequence)`` order whatever its width, so the
    chosen width can never change results, only the constant factor on
    queue operations.
    """
    if target_per_bucket <= 0:
        raise ConfigurationError("target_per_bucket must be positive")
    sample = sorted(float(t) for t in times)
    if len(sample) < 2:
        return DEFAULT_BUCKET_WIDTH
    gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
    if not gaps:
        return DEFAULT_BUCKET_WIDTH
    gaps.sort()
    width = gaps[len(gaps) // 2] * target_per_bucket
    return min(max(width, floor), ceiling)


class TimerFault:
    """Hook deciding the fate of each newly scheduled timer event.

    The fault-injection layer (:mod:`repro.faults`) installs one of
    these on :attr:`EventLoop.fault` to model clock skew and lost
    timers: :meth:`adjust` receives the requested firing time, the
    current simulation time and the event's name, and returns the
    (possibly skewed) time at which the event should actually fire — or
    None to drop the event entirely.  The default implementation is a
    pass-through.
    """

    def adjust(self, time: float, now: float, name: str) -> Optional[float]:
        return time


class Event:
    """A scheduled callback; cancellable, optionally periodic.

    ``transient`` events are the pooled fast path: scheduled without
    handing a handle back to the caller, so once fired they can be
    recycled onto the loop's free list instead of being garbage.
    """

    __slots__ = ("time", "callback", "period", "cancelled", "name", "transient")

    def __init__(
        self,
        time: float,
        callback: EventCallback,
        period: Optional[float] = None,
        name: str = "",
    ):
        self.time = time
        self.callback = callback
        self.period = period
        self.cancelled = False
        self.name = name
        self.transient = False

    def cancel(self) -> None:
        """Prevent the event from firing (and from repeating)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavor = f" every {self.period}s" if self.period else ""
        return f"<Event {self.name or self.callback!r} at {self.time:.6f}{flavor}>"


class _CalendarQueue:
    """Indexed calendar queue: dict of time buckets + a heap of bucket keys.

    Entries are ``(time, sequence, event)`` tuples bucketed by
    ``int(time / bucket_width)``.  A push into a future bucket is a dict
    lookup and a list append; the bucket is sorted once, lazily, when
    the clock first reaches it.  Pushes into the bucket currently being
    served (common for short link delays landing within the same 10 ms
    window) bisect into the unserved tail, preserving exact
    ``(time, sequence)`` order.

    Safety of the serving pointer: an entry is only consumed after the
    loop clock has advanced to its time, and every new event must be
    scheduled at or after *now* — so once a bucket starts serving, no
    push can target an earlier bucket.
    """

    __slots__ = (
        "_scale",
        "_buckets",
        "_keys",
        "_cur_key",
        "_cur_list",
        "_cur_idx",
        "_sequence",
    )

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if not (bucket_width > 0 and math.isfinite(bucket_width)):
            raise ConfigurationError(
                f"bucket_width must be positive and finite, got {bucket_width}"
            )
        self._scale = 1.0 / bucket_width
        self._buckets: dict = {}
        self._keys: List[int] = []
        self._cur_key: Optional[int] = None
        self._cur_list: Optional[list] = None
        self._cur_idx = 0
        self._sequence = itertools.count()

    def push(self, time: float, event: Event) -> None:
        entry = (time, next(self._sequence), event)
        key = int(time * self._scale)
        if key == self._cur_key:
            insort(self._cur_list, entry, self._cur_idx)
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [entry]
            heapq.heappush(self._keys, key)
        else:
            bucket.append(entry)

    def push_batch(self, times: Iterable[float], event: Event) -> None:
        seq_next = self._sequence.__next__
        scale = self._scale
        buckets = self._buckets
        keys = self._keys
        cur_key = self._cur_key
        for time in times:
            entry = (time, seq_next(), event)
            key = int(time * scale)
            if key == cur_key:
                insort(self._cur_list, entry, self._cur_idx)
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
                heapq.heappush(keys, key)
            else:
                bucket.append(entry)

    def pop_due(self, end_time: float) -> Optional[Tuple[float, Event]]:
        lst = self._cur_list
        if lst is not None:
            idx = self._cur_idx
            if idx < len(lst):
                entry = lst[idx]
                if entry[0] > end_time:
                    return None
                self._cur_idx = idx + 1
                return entry[0], entry[2]
            self._cur_key = None
            self._cur_list = None
            self._cur_idx = 0
        keys = self._keys
        while keys:
            key = keys[0]
            lst = self._buckets[key]
            lst.sort()
            if lst[0][0] > end_time:
                # Nothing due yet.  The bucket stays indexed (and now
                # sorted — re-sorting a sorted list is linear) so that
                # later pushes and probes remain correct.
                return None
            heapq.heappop(keys)
            del self._buckets[key]
            self._cur_key = key
            self._cur_list = lst
            self._cur_idx = 1
            entry = lst[0]
            return entry[0], entry[2]
        return None

    def next_bound(self) -> Optional[float]:
        lst = self._cur_list
        if lst is not None and self._cur_idx < len(lst):
            return lst[self._cur_idx][0]
        if not self._keys:
            return None
        # Exact min over the earliest (still unsorted) bucket.  The
        # bucket floor would be a valid conservative bound, but the
        # sharded synchronisers turn bound leads directly into window
        # width — a floor-quantised bound froze quiet wide-bucket
        # shards at "no lead" and cost adaptive windows most of their
        # frontier.  A C-speed min over ~4 entries (the tuner's
        # target occupancy), paid per probe rather than per event.
        return min(entry[0] for entry in self._buckets[self._keys[0]])

    def events(self) -> Iterator[Event]:
        lst = self._cur_list
        if lst is not None:
            for entry in lst[self._cur_idx :]:
                yield entry[2]
        for bucket in self._buckets.values():
            for entry in bucket:
                yield entry[2]


class EventLoop:
    """The simulation clock plus the event queue.

    Determinism: two events scheduled for the same time fire in the
    order they were scheduled.  This matters for reproducibility of the
    packet-level Blink experiments, where many packets share timestamps.
    ``bucket_width`` sizes the calendar queue's time buckets (default
    :data:`DEFAULT_BUCKET_WIDTH`); it changes speed, never results.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        bucket_width: Optional[float] = None,
    ):
        self._now = start_time
        self._queue = _CalendarQueue(
            DEFAULT_BUCKET_WIDTH if bucket_width is None else bucket_width
        )
        self._running = False
        self._processed = 0
        self._event_pool: List[Event] = []
        # Pool accounting: plain int bumps on the transient fast path
        # (always on — two attribute increments are cheaper than any
        # enabled() check), rolled into metrics once per run.
        self._pool_hits = 0
        self._pool_misses = 0
        #: Optional :class:`TimerFault` applied to every schedule_at/in
        #: call; installed by the fault-injection layer, None otherwise.
        self.fault: Optional[TimerFault] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue.events() if not event.cancelled)

    def retune_bucket_width(self, bucket_width: float) -> None:
        """Swap in a calendar queue with a new bucket width.

        Shard workers receive their flow tables *after* the loop (and
        the network built on it) already exists, so the shard-local
        calendar tuning pass cannot pick the width at construction
        time.  Retuning is only legal while the queue is empty — the
        replacement would silently drop queued events otherwise.
        """
        if self._queue.next_bound() is not None:
            raise SchedulingError(
                "cannot retune bucket width with events pending",
                event_time=self._queue.next_bound(),
                now=self._now,
            )
        self._queue = _CalendarQueue(bucket_width)

    def next_event_bound(self) -> Optional[float]:
        """A conservative lower bound on the next pending event's time.

        None when the queue is empty.  The bound is the exact minimum
        over the earliest bucket, cancelled entries included — so it may
        be earlier than the true next firing, but never later, which is
        what the sharded engine's null-message fast-forward needs (a
        shard promising "I have nothing before T" must never
        under-promise).  It is not quantised to the bucket floor: the
        adaptive-window synchroniser turns bound leads directly into
        window width, so a quantised bound costs real speedup.
        """
        return self._queue.next_bound()

    def _check_time(self, time: float) -> None:
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at {time} before now={self._now}",
                event_time=time,
                now=self._now,
            )
        if not math.isfinite(time):
            raise SchedulingError(
                f"event time must be finite, got {time}",
                event_time=time,
                now=self._now,
            )

    def schedule_at(
        self, time: float, callback: EventCallback, name: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        self._check_time(time)
        if self.fault is not None:
            adjusted = self.fault.adjust(time, self._now, name)
            if adjusted is None:
                # Dropped timer: hand back a cancelled event so callers
                # holding the handle see a normal, already-dead timer.
                event = Event(time, callback, name=name)
                event.cancel()
                return event
            time = max(self._now, adjusted)
        event = Event(time, callback, name=name)
        self._queue.push(time, event)
        return event

    def schedule_in(
        self, delay: float, callback: EventCallback, name: str = ""
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(
                f"negative delay {delay}", event_time=self._now + delay, now=self._now
            )
        return self.schedule_at(self._now + delay, callback, name=name)

    def schedule_transient(
        self, time: float, callback: EventCallback, name: str = ""
    ) -> None:
        """Schedule a fire-and-forget callback at absolute time ``time``.

        No handle is returned, so the event cannot be cancelled — in
        exchange the loop recycles the :class:`Event` object through a
        free list once it fires, making this the allocation-free path
        for per-packet events (link deliveries, bulk flow emission).
        Semantically identical to :meth:`schedule_at` otherwise,
        including the fault hook (a dropped timer is simply never
        queued).
        """
        self._check_time(time)
        if self.fault is not None:
            adjusted = self.fault.adjust(time, self._now, name)
            if adjusted is None:
                return
            time = max(self._now, adjusted)
        pool = self._event_pool
        if pool:
            self._pool_hits += 1
            event = pool.pop()
            event.time = time
            event.callback = callback
            event.cancelled = False
            event.name = name
        else:
            self._pool_misses += 1
            event = Event(time, callback, name=name)
            event.transient = True
        self._queue.push(time, event)

    def schedule_batch_at(
        self, times: Sequence[float], callback: EventCallback, name: str = ""
    ) -> Event:
        """Bulk-schedule ``callback`` at every time in ``times``.

        All firings share one :class:`Event`; cancelling it drops every
        firing that has not happened yet.  The fault hook is consulted
        per firing time (individual firings may be skewed or dropped).
        This is the fast path for flow generators emitting a whole
        flow's packet schedule at once: the calendar queue absorbs the
        batch as plain bucket appends.
        """
        event = Event(self._now, callback, name=name)
        if not times:
            return event
        fault = self.fault
        if fault is not None:
            adjusted_times = []
            now = self._now
            for time in times:
                self._check_time(time)
                adjusted = fault.adjust(time, now, name)
                if adjusted is None:
                    continue
                adjusted_times.append(max(now, adjusted))
            times = adjusted_times
        else:
            for time in times:
                self._check_time(time)
        event.time = min(times) if times else self._now
        self._queue.push_batch(times, event)
        return event

    def schedule_periodic(
        self, period: float, callback: EventCallback, start_delay: Optional[float] = None,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` every ``period`` seconds.

        The first firing happens after ``start_delay`` (default: one
        period).  The returned event's :meth:`Event.cancel` stops the
        recurrence.
        """
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        first = period if start_delay is None else start_delay
        event = Event(self._now + first, callback, period=period, name=name)
        self._queue.push(event.time, event)
        return event

    def _recycle(self, event: Event) -> None:
        pool = self._event_pool
        if len(pool) < _EVENT_POOL_LIMIT:
            event.callback = _noop
            event.name = ""
            pool.append(event)

    def run_until(
        self,
        end_time: float,
        max_events: Optional[int] = None,
        wall_limit_s: Optional[float] = None,
    ) -> int:
        """Process events with ``time <= end_time``; advance the clock.

        Returns the number of events processed.  ``max_events`` guards
        against accidental infinite event cascades; exceeding it raises
        :class:`SimulationError` rather than hanging the process.
        ``wall_limit_s`` is the wall-clock watchdog: if the run takes
        longer than this many real seconds, :class:`ExperimentTimeout`
        is raised (checked every few thousand events, so the overshoot
        is bounded).  Both errors carry the simulation time and pending
        queue depth at the moment the guard tripped.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        processed_here = 0
        # Capture the tracer and metric registry once per run: the
        # rollups below must match what was active when the run
        # started, and the hot loop itself stays untouched.
        tracer = obs.current()
        registry = obs_metrics.current()
        wall_started = (
            _wallclock.perf_counter()
            if tracer is not None or registry is not None or wall_limit_s is not None
            else 0.0
        )
        queue = self._queue
        pop_due = queue.pop_due
        # Hoisted limit: one comparison per event instead of a None
        # test plus a comparison (the loop body is the hot path).
        event_limit = math.inf if max_events is None else max_events
        try:
            while True:
                item = pop_due(end_time)
                if item is None:
                    break
                time, event = item
                if event.cancelled:
                    continue
                self._now = time
                event.callback()
                processed_here += 1
                if event.period is not None:
                    if not event.cancelled:
                        event.time = time + event.period
                        queue.push(event.time, event)
                elif event.transient:
                    self._recycle(event)
                if processed_here >= event_limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before reaching "
                        f"t={end_time} (now={self._now}, "
                        f"{self.pending_events} events pending); "
                        "runaway event cascade?",
                        sim_time=self._now,
                        queue_depth=self.pending_events,
                    )
                if (
                    wall_limit_s is not None
                    and processed_here % _WALL_CHECK_STRIDE == 0
                    and _wallclock.perf_counter() - wall_started > wall_limit_s
                ):
                    raise ExperimentTimeout(
                        f"run_until exceeded wall budget of {wall_limit_s}s "
                        f"before reaching t={end_time} (now={self._now}, "
                        f"{self.pending_events} events pending)",
                        sim_time=self._now,
                        queue_depth=self.pending_events,
                    )
            self._now = max(self._now, end_time)
        finally:
            self._running = False
            # The lifetime counter is folded in once per run, not per
            # event; callbacks observing it mid-run see the pre-run
            # value, which nothing relies on.
            self._processed += processed_here
            if tracer is not None or registry is not None:
                wall = _wallclock.perf_counter() - wall_started
                depth = self.pending_events
                if tracer is not None:
                    tracer.emit(
                        "netsim.run",
                        t_sim=self._now,
                        end_time=end_time,
                        processed=processed_here,
                        wall_s=wall,
                        events_per_s=processed_here / wall if wall > 0 else None,
                        queue_depth=depth,
                    )
                if registry is not None:
                    # Counter/histogram names under netsim.* are
                    # deterministic per seed except the *_s wall
                    # timings (excluded from the determinism pin).
                    registry.inc("netsim.runs")
                    registry.inc("netsim.events.calendar", processed_here)
                    registry.observe("netsim.run_events", processed_here)
                    registry.observe("netsim.run_wall_s", wall)
                    registry.gauge_set("netsim.queue_depth", depth)
                    pool_total = self._pool_hits + self._pool_misses
                    if pool_total:
                        registry.gauge_set(
                            "netsim.pool_hit_rate", self._pool_hits / pool_total
                        )
        return processed_here

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely (bounded by ``max_events``)."""
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        processed_here = 0
        pop_due = self._queue.pop_due
        inf = math.inf
        try:
            while True:
                item = pop_due(inf)
                if item is None:
                    break
                time, event = item
                if event.cancelled:
                    continue
                self._now = time
                event.callback()
                self._processed += 1
                processed_here += 1
                if event.period is not None and not event.cancelled:
                    raise SimulationError(
                        "run_all() with periodic events would never terminate; "
                        "cancel periodic events or use run_until()"
                    )
                if event.transient:
                    self._recycle(event)
                if processed_here >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} "
                        f"(now={self._now}, {self.pending_events} events "
                        "pending); runaway event cascade?",
                        sim_time=self._now,
                        queue_depth=self.pending_events,
                    )
        finally:
            self._running = False
        return processed_here


def _noop() -> None:
    """Placeholder callback for recycled transient events."""
