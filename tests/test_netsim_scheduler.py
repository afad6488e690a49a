"""Event-queue suite: oracle parity, edge cases, pooling.

The event loop runs on one queue, the indexed calendar queue.  Its
reference lives here, test-only: :class:`HeapOracle`, a plain
``heapq`` over ``(time, sequence)``.  These tests pin the calendar
queue's tricky edge cases and the property everything else rests on:
*the calendar queue fires the same events in the same order as the
oracle*, faults included.  The ``loop`` fixture and the packet-level
and forwarding determinism grids reuse the oracle through
:func:`make_loop` and :func:`installed_queue`.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import random
from typing import Iterator, Optional
from unittest import mock

import pytest

from repro.core.errors import ConfigurationError, SchedulingError
from repro.netsim import events
from repro.netsim.events import EventLoop, TimerFault

#: The queues every parity test runs on: the oracle and production.
QUEUES = ("heap", "calendar")


class HeapOracle:
    """Ordering oracle: a plain binary heap over ``(time, sequence)``.

    Implements the calendar queue's interface (``push``,
    ``push_batch``, ``pop_due``, ``next_bound``, ``events``) with
    nothing clever in it.  ``bucket_width`` is accepted and ignored so
    the oracle can stand in wherever the loop builds or retunes a
    calendar queue.
    """

    def __init__(self, bucket_width: Optional[float] = None) -> None:
        self._heap: list = []
        self._sequence = itertools.count()

    def push(self, time, event) -> None:
        heapq.heappush(self._heap, (time, next(self._sequence), event))

    def push_batch(self, times, event) -> None:
        for time in times:
            self.push(time, event)

    def pop_due(self, end_time):
        if not self._heap or self._heap[0][0] > end_time:
            return None
        time, _seq, event = heapq.heappop(self._heap)
        return time, event

    def next_bound(self):
        return self._heap[0][0] if self._heap else None

    def events(self) -> Iterator:
        for entry in self._heap:
            yield entry[2]


def make_loop(queue: str) -> EventLoop:
    """An event loop on ``"calendar"`` (production) or ``"heap"`` (oracle)."""
    loop = EventLoop()
    if queue == "heap":
        loop._queue = HeapOracle()
    return loop


@contextlib.contextmanager
def installed_queue(queue: str):
    """Run every loop built inside the block on ``queue``.

    ``"heap"`` swaps the oracle in for the calendar queue class, so a
    whole experiment — forked shard workers included, since they fork
    inside the block — runs on it; ``"calendar"`` changes nothing.
    """
    if queue == "heap":
        with mock.patch.object(events, "_CalendarQueue", HeapOracle):
            yield
    else:
        yield


def _random_program(loop: EventLoop, seed: int) -> list:
    """Drive ``loop`` with a randomized mix of scheduling patterns.

    Returns the firing log ``[(time, tag), ...]``.  The RNG seeds both
    the structure and the times, so the same seed builds the identical
    program on any backend.
    """
    rng = random.Random(seed)
    log = []

    def tagged(tag):
        return lambda: log.append((round(loop.now, 9), tag))

    handles = []
    for i in range(60):
        t = rng.uniform(0.0, 40.0)
        kind = rng.randrange(5)
        if kind == 0:
            handles.append(loop.schedule_at(t, tagged(f"at{i}")))
        elif kind == 1:
            loop.schedule_transient(t, tagged(f"tr{i}"), name=f"tr{i}")
        elif kind == 2:
            times = sorted(rng.uniform(0.0, 40.0) for _ in range(rng.randrange(1, 6)))
            loop.schedule_batch_at(times, tagged(f"ba{i}"), name=f"ba{i}")
        elif kind == 3:
            handles.append(
                loop.schedule_periodic(rng.uniform(0.5, 3.0), tagged(f"pe{i}"))
            )
        else:
            # Same-timestamp cluster: FIFO among equal times matters.
            t = float(rng.randrange(0, 40))
            for j in range(3):
                loop.schedule_at(t, tagged(f"eq{i}.{j}"))

    # Cancel a deterministic subset before running.
    for handle in handles[::4]:
        handle.cancel()

    # Insertions *during* dispatch, including at the current timestamp
    # and a batch interleaving with a single event inside the bucket
    # being served.
    def inserter():
        loop.schedule_transient(loop.now, tagged("ins.now"))
        loop.schedule_in(rng.uniform(0.0, 5.0), tagged("ins.later"))
        now = loop.now
        loop.schedule_transient(now + 0.002, tagged("ins.mid"))
        loop.schedule_batch_at([now + 0.001, now + 0.003], tagged("ins.batch"))

    loop.schedule_at(10.0, inserter)
    loop.schedule_at(20.0, inserter)

    # Periodic events must be cancelled eventually so run_until ends
    # with a bounded log; cancel the survivors mid-run.
    def reaper():
        for handle in handles:
            handle.cancel()

    loop.schedule_at(25.0, reaper)
    loop.run_until(45.0)
    return log


class TestCrossSchedulerParity:
    """The calendar queue against the heap oracle, callback for callback."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_random_programs_fire_identically(self, seed):
        logs = {queue: _random_program(make_loop(queue), seed) for queue in QUEUES}
        assert logs["heap"] == logs["calendar"]
        assert len(logs["heap"]) > 50

    def test_parity_under_clock_skew_fault(self):
        class Skew(TimerFault):
            def __init__(self, seed):
                self.rng = random.Random(seed)

            def adjust(self, time, now, name):
                roll = self.rng.random()
                if roll < 0.1:
                    return None  # dropped timer
                return now + (time - now) * (1.0 + 0.2 * (roll - 0.5))

        logs = {}
        for queue in QUEUES:
            loop = make_loop(queue)
            loop.fault = Skew(seed=3)
            log = []
            for i in range(50):
                loop.schedule_transient(
                    0.5 + i * 0.37, lambda i=i: log.append((round(loop.now, 9), i))
                )
            loop.run_until(30.0)
            logs[queue] = log
        assert logs["heap"] == logs["calendar"]
        # The fault actually dropped/skewed something.
        assert 0 < len(logs["heap"]) < 50


class TestSameTimestampOrder:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_fifo_among_equal_times(self, queue):
        loop = make_loop(queue)
        order = []
        for i in range(10):
            loop.schedule_at(1.0, lambda i=i: order.append(i))
        loop.run_until(2.0)
        assert order == list(range(10))

    @pytest.mark.parametrize("queue", QUEUES)
    def test_insertion_at_current_time_during_dispatch(self, queue):
        loop = make_loop(queue)
        order = []

        def first():
            order.append("first")
            loop.schedule_at(loop.now, lambda: order.append("nested"))

        loop.schedule_at(1.0, first)
        loop.schedule_at(1.0, lambda: order.append("second"))
        loop.run_until(2.0)
        # The nested same-time event fires after already-queued peers.
        assert order == ["first", "second", "nested"]


class TestCancellation:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_cancel_before_fire(self, queue):
        loop = make_loop(queue)
        fired = []
        handle = loop.schedule_at(1.0, lambda: fired.append("no"))
        handle.cancel()
        loop.schedule_at(1.0, lambda: fired.append("yes"))
        loop.run_until(2.0)
        assert fired == ["yes"]

    @pytest.mark.parametrize("queue", QUEUES)
    def test_cancel_during_dispatch(self, queue):
        loop = make_loop(queue)
        fired = []
        later = loop.schedule_at(2.0, lambda: fired.append("later"))
        loop.schedule_at(1.0, later.cancel)
        loop.run_until(3.0)
        assert fired == []

    @pytest.mark.parametrize("queue", QUEUES)
    def test_batch_cancel_drops_remaining_firings(self, queue):
        loop = make_loop(queue)
        fired = []
        handle = loop.schedule_batch_at(
            [1.0, 2.0, 3.0, 4.0], lambda: fired.append(loop.now)
        )
        loop.schedule_at(2.5, handle.cancel)
        loop.run_until(10.0)
        assert fired == [1.0, 2.0]

    @pytest.mark.parametrize("queue", QUEUES)
    def test_periodic_cancel_stops_repeats(self, queue):
        loop = make_loop(queue)
        fired = []
        handle = loop.schedule_periodic(1.0, lambda: fired.append(loop.now))
        loop.schedule_at(3.5, handle.cancel)
        loop.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]


class TestCalendarQueueEdges:
    """Bucket mechanics the random programs may not hit every run."""

    def test_wide_time_spread_across_buckets(self):
        loop = EventLoop()
        fired = []
        for t in (1e-6, 0.5, 5_000.0, 123_456.789):
            loop.schedule_at(t, lambda t=t: fired.append(t))
        loop.run_until(200_000.0)
        assert fired == [1e-6, 0.5, 5_000.0, 123_456.789]

    def test_push_into_serving_bucket_keeps_order(self):
        # bucket width 0.01: times below land in one bucket.
        loop = EventLoop(bucket_width=1.0)
        order = []

        def first():
            order.append("a")
            loop.schedule_at(loop.now + 0.25, lambda: order.append("mid"))

        loop.schedule_at(0.1, first)
        loop.schedule_at(0.5, lambda: order.append("b"))
        loop.run_until(1.0)
        assert order == ["a", "mid", "b"]

    def test_custom_bucket_width_validated(self):
        # One check guards both ways in: construction and retuning.
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="bucket_width"):
                EventLoop(bucket_width=width)
            with pytest.raises(ConfigurationError, match="bucket_width"):
                EventLoop().retune_bucket_width(width)

    def test_retune_refused_with_events_pending(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        with pytest.raises(SchedulingError, match="pending"):
            loop.retune_bucket_width(0.5)

    def test_past_times_rejected(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run_until(2.0)
        with pytest.raises(SchedulingError):
            loop.schedule_at(1.5, lambda: None)

    def test_pending_events_counts_both_backends(self):
        for queue in QUEUES:
            loop = make_loop(queue)
            loop.schedule_at(1.0, lambda: None)
            loop.schedule_batch_at([2.0, 3.0], lambda: None)
            assert loop.pending_events == 3


class TestTransientPooling:
    @pytest.mark.parametrize("queue", QUEUES)
    def test_transient_events_are_recycled(self, queue):
        loop = make_loop(queue)
        fired = [0]
        for i in range(100):
            loop.schedule_transient(0.1 + i * 0.01, lambda: None)
        loop.run_until(2.0)
        # The free list now feeds new transients: schedule another
        # hundred and confirm they all fire (recycled state is clean).
        for i in range(100):
            loop.schedule_transient(
                3.0 + i * 0.01, lambda: fired.__setitem__(0, fired[0] + 1)
            )
        loop.run_until(5.0)
        assert fired[0] == 100

    @pytest.mark.parametrize("queue", QUEUES)
    def test_transient_returns_no_handle(self, queue):
        loop = make_loop(queue)
        assert loop.schedule_transient(1.0, lambda: None) is None

    @pytest.mark.parametrize("queue", QUEUES)
    def test_fault_can_drop_transient(self, queue):
        class DropAll(TimerFault):
            def adjust(self, time, now, name):
                return None

        loop = make_loop(queue)
        loop.fault = DropAll()
        fired = []
        loop.schedule_transient(1.0, lambda: fired.append(1))
        loop.run_until(2.0)
        assert fired == [] and loop.pending_events == 0
