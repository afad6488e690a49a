"""Blink's Flow Selector: the hash-indexed cell array.

From the paper (Section 3.1): "Blink runs in programmable network
devices and monitors a small sample of flows (e.g., 64) for each
destination prefix. [...] To choose the monitored flows, Blink
computes a hash of each flow's 5-tuple and uses the hash value as an
index in an array of cells.  Therefore, several flows may collide in
one cell.  However, at any given time, only one flow occupies a cell,
and is thus monitored.  This monitored flow is evicted by freeing its
cell if it finishes or becomes inactive for 2 s or more.  When a cell
is free, Blink samples a new flow.  Blink also resets its monitored
sample every 8.5 min."

This module is deliberately independent of the event loop so the same
code serves the trace-driven analysis, the packet-level simulator and
the Monte-Carlo benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.blink.constants import (
    DEFAULT_CELLS,
    EVICTION_TIMEOUT,
    RESET_INTERVAL,
    RETRANSMISSION_WINDOW,
)
from repro.core.errors import ConfigurationError
from repro.flows.flow import FiveTuple
from repro.obs import tracer as obs


@dataclass(slots=True)
class Cell:
    """One flow-selector cell."""

    flow: Optional[FiveTuple] = None
    last_activity: float = 0.0
    installed_at: float = 0.0
    #: Last time this cell's flow showed a retransmission.
    last_retransmission: Optional[float] = None
    #: Previous sequence number seen (for duplicate-seq detection).
    last_seq: Optional[int] = None
    #: Ground-truth marker of the occupying flow (evaluation only).
    malicious_ground_truth: bool = False
    #: The cell's current entries in the selector's window-expiry and
    #: inactivity heaps; both are None while the cell is not in the
    #: retransmitting set.  A popped entry that is not the cell's
    #: current one is stale and skipped.
    retx_entry: Optional[Tuple[float, int]] = field(default=None, repr=False, compare=False)
    idle_entry: Optional[Tuple[float, int]] = field(default=None, repr=False, compare=False)

    @property
    def occupied(self) -> bool:
        return self.flow is not None

    def clear(self) -> None:
        self.flow = None
        self.last_activity = 0.0
        self.installed_at = 0.0
        self.last_retransmission = None
        self.last_seq = None
        self.malicious_ground_truth = False
        self.retx_entry = None
        self.idle_entry = None


@dataclass
class SelectorStats:
    """Counters for analysing selector behaviour.

    ``legit_occupancy_durations`` collects, for every evicted
    legitimate flow, how long it occupied its cell — whose mean is the
    empirical ``tR`` the paper's analysis consumes.
    """

    installs: int = 0
    evictions_inactive: int = 0
    evictions_fin: int = 0
    resets: int = 0
    collisions_ignored: int = 0
    legit_occupancy_durations: List[float] = field(default_factory=list)
    #: Gap between each observed retransmission and the flow's previous
    #: packet (bounded window; consumed by the RTO-plausibility defense).
    retransmission_gaps: List[float] = field(default_factory=list)

    def mean_legit_occupancy(self) -> float:
        """Empirical tR: mean time a legitimate flow stayed sampled."""
        if not self.legit_occupancy_durations:
            raise ValueError("no legitimate evictions observed yet")
        return sum(self.legit_occupancy_durations) / len(self.legit_occupancy_durations)


class FlowSelector:
    """The per-prefix flow-sampling array.

    Callers drive it with :meth:`observe` for each packet of the
    prefix; :meth:`maybe_reset` implements the 8.5 min sample reset
    (time-driven, so trace replays work without an event loop).

    Like Blink's data plane, which keeps a running counter rather than
    rescanning its cells, the selector maintains the set of cells whose
    flow retransmitted within ``retransmission_window`` and is still
    active; :meth:`retransmitting_count` is its size.  Two lazy-expiry
    heaps, keyed on ``last_retransmission`` and ``last_activity``,
    prune the set as time advances, so packets and queries must arrive
    in non-decreasing time order.
    """

    #: Bound on the retransmission-gap sample window.
    MAX_GAP_SAMPLES = 4096

    def __init__(
        self,
        cells: int = DEFAULT_CELLS,
        eviction_timeout: float = EVICTION_TIMEOUT,
        reset_interval: float = RESET_INTERVAL,
        hash_seed: int = 0,
        reseed_on_reset: bool = True,
        retransmission_window: float = RETRANSMISSION_WINDOW,
    ):
        if cells <= 0:
            raise ConfigurationError("cells must be positive")
        if eviction_timeout <= 0 or reset_interval <= 0 or retransmission_window <= 0:
            raise ConfigurationError("timeouts must be positive")
        self.cells: List[Cell] = [Cell() for _ in range(cells)]
        self.eviction_timeout = eviction_timeout
        self.reset_interval = reset_interval
        self.retransmission_window = retransmission_window
        self.hash_seed = hash_seed
        self.reseed_on_reset = reseed_on_reset
        self.stats = SelectorStats()
        self._last_reset = 0.0
        # Memoised flow -> cell index for the current hash_seed.  The
        # mapping is a pure function of (flow, cells, hash_seed), so the
        # cache is exact; it is dropped whenever the seed changes (e.g.
        # reseed-on-reset) and bounded against unbounded flow churn.
        self._index_cache: Dict[FiveTuple, int] = {}
        self._index_cache_seed = hash_seed
        # The retransmitting set: indices of occupied cells whose last
        # retransmission is within the window and whose flow is not past
        # the eviction timeout, as of the latest query.
        self._live: Set[int] = set()
        self._retx_heap: List[Tuple[float, int]] = []
        self._idle_heap: List[Tuple[float, int]] = []
        # Latest time seen by observe() or retransmitting_count().
        self._clock = -float("inf")

    # -- sampling ----------------------------------------------------------

    def index_for(self, flow: FiveTuple) -> int:
        """The cell ``flow`` hashes to under the current seed (memoised)."""
        cache = self._index_cache
        if self._index_cache_seed != self.hash_seed:
            cache.clear()
            self._index_cache_seed = self.hash_seed
        index = cache.get(flow)
        if index is None:
            if len(cache) >= 65536:
                cache.clear()
            index = cache[flow] = flow.cell_index(len(self.cells), seed=self.hash_seed)
        return index

    def observe(
        self,
        flow: FiveTuple,
        now: float,
        is_retransmission: bool = False,
        is_fin_or_rst: bool = False,
        seq: Optional[int] = None,
        malicious_ground_truth: bool = False,
    ) -> Optional[int]:
        """Process one packet; returns the cell index if monitored.

        Retransmissions can be flagged either explicitly
        (``is_retransmission``, trace-driven mode) or inferred from a
        repeated ``seq`` (packet-driven mode, what the real P4 pipeline
        does).
        """
        if now < self._clock:
            raise self._backwards(now)
        self._clock = now
        self.maybe_reset(now)
        index = self.index_for(flow)
        cell = self.cells[index]

        occupant = cell.flow
        if occupant is not None and occupant is not flow and occupant != flow:
            if now - cell.last_activity >= self.eviction_timeout:
                self.stats.evictions_inactive += 1
                if obs.enabled():
                    obs.emit(
                        "blink.eviction",
                        t_sim=now,
                        cell=index,
                        reason="inactive",
                        malicious=cell.malicious_ground_truth,
                    )
                self._record_occupancy(cell, cell.last_activity + self.eviction_timeout)
                cell.clear()
                self._live.discard(index)
            else:
                self.stats.collisions_ignored += 1
                return None

        freshly_installed = False
        if cell.flow is None:
            cell.flow = flow
            cell.installed_at = now
            cell.last_seq = None
            cell.last_retransmission = None
            cell.malicious_ground_truth = malicious_ground_truth
            self.stats.installs += 1
            freshly_installed = True

        previous_activity = cell.last_activity
        cell.last_activity = now

        duplicate_seq = seq is not None and cell.last_seq is not None and seq == cell.last_seq
        if is_retransmission or duplicate_seq:
            cell.last_retransmission = now
            # The gap between a retransmission and the flow's previous
            # packet is what the RTO-plausibility defense inspects:
            # genuine timeouts respect the RTO floor (~1 s), fakes
            # usually do not.  A flow's first packet has no reference
            # point, so no gap is recorded for it.
            gap = now - previous_activity
            if not freshly_installed and gap > 0:
                self.stats.retransmission_gaps.append(gap)
                if len(self.stats.retransmission_gaps) > self.MAX_GAP_SAMPLES:
                    del self.stats.retransmission_gaps[0]
        if seq is not None:
            cell.last_seq = seq

        if is_fin_or_rst:
            self.stats.evictions_fin += 1
            if obs.enabled():
                obs.emit(
                    "blink.eviction",
                    t_sim=now,
                    cell=index,
                    reason="fin",
                    malicious=cell.malicious_ground_truth,
                )
            self._record_occupancy(cell, now)
            cell.clear()
            self._live.discard(index)
            return None

        # A cell outside the retransmitting set rejoins it as soon as a
        # packet finds its last retransmission still inside the window
        # (a fresh retransmission, or renewed activity after the set
        # dropped it as idle).  Cells already in the set need nothing:
        # their heap entries are refreshed lazily when they surface.
        if cell.retx_entry is None:
            last_retransmission = cell.last_retransmission
            if (
                last_retransmission is not None
                and now - last_retransmission <= self.retransmission_window
            ):
                self._live.add(index)
                cell.retx_entry = entry = (last_retransmission, index)
                heappush(self._retx_heap, entry)
                cell.idle_entry = entry = (now, index)
                heappush(self._idle_heap, entry)
        return index

    def _backwards(self, now: float) -> ValueError:
        return ValueError(
            f"flow selector time went backwards: {now} < {self._clock} "
            "(packets and queries must arrive in non-decreasing time order)"
        )

    def _record_occupancy(self, cell: Cell, evicted_at: float) -> None:
        if cell.occupied and not cell.malicious_ground_truth:
            self.stats.legit_occupancy_durations.append(
                max(0.0, evicted_at - cell.installed_at)
            )

    def maybe_reset(self, now: float) -> bool:
        """Reset the whole sample if the reset interval elapsed."""
        if now - self._last_reset >= self.reset_interval:
            occupied = sum(1 for cell in self.cells if cell.occupied)
            for cell in self.cells:
                cell.clear()
            self._live.clear()
            self._retx_heap.clear()
            self._idle_heap.clear()
            self._last_reset += self.reset_interval * int(
                (now - self._last_reset) / self.reset_interval
            )
            self.stats.resets += 1
            if self.reseed_on_reset:
                self.hash_seed += 1
            if obs.enabled():
                obs.emit(
                    "blink.sample_reset", t_sim=now, evicted=occupied, seed=self.hash_seed
                )
            return True
        return False

    # -- queries -------------------------------------------------------------

    def occupied_count(self, now: Optional[float] = None) -> int:
        """Cells currently monitoring a live flow.

        With ``now`` given, flows past the eviction timeout are treated
        as free (lazy eviction means stale cells linger until touched).
        """
        count = 0
        for cell in self.cells:
            if not cell.occupied:
                continue
            if now is not None and now - cell.last_activity >= self.eviction_timeout:
                continue
            count += 1
        return count

    def malicious_count(self, now: Optional[float] = None) -> int:
        """Ground-truth number of attacker flows currently monitored."""
        count = 0
        for cell in self.cells:
            if not cell.occupied or not cell.malicious_ground_truth:
                continue
            if now is not None and now - cell.last_activity >= self.eviction_timeout:
                continue
            count += 1
        return count

    def retransmitting_count(self, now: float) -> int:
        """Monitored flows with a retransmission within the window.

        A cell counts while ``now - last_retransmission <= window`` and
        its flow is not past the eviction timeout
        (``now - last_activity < eviction_timeout``).  Both predicates
        only turn false as ``now`` grows, so the heaps pop each expired
        entry once, re-check it against the cell's current timestamps,
        and either drop the cell or re-file it under its newer one.
        Raises ``ValueError`` if ``now`` is earlier than the latest
        packet or query.
        """
        if now < self._clock:
            raise self._backwards(now)
        self._clock = now
        live = self._live
        if not live:
            if self._retx_heap:
                self._retx_heap.clear()
                self._idle_heap.clear()
            return 0
        cells = self.cells
        window = self.retransmission_window
        heap = self._retx_heap
        while heap and now - heap[0][0] > window:
            entry = heappop(heap)
            index = entry[1]
            cell = cells[index]
            if entry is not cell.retx_entry:
                continue
            last = cell.last_retransmission
            if now - last > window:
                live.discard(index)
                cell.retx_entry = cell.idle_entry = None
            else:
                cell.retx_entry = entry = (last, index)
                heappush(heap, entry)
        timeout = self.eviction_timeout
        heap = self._idle_heap
        while heap and now - heap[0][0] >= timeout:
            entry = heappop(heap)
            index = entry[1]
            cell = cells[index]
            if entry is not cell.idle_entry:
                continue
            last = cell.last_activity
            if now - last >= timeout:
                live.discard(index)
                cell.retx_entry = cell.idle_entry = None
            else:
                cell.idle_entry = entry = (last, index)
                heappush(heap, entry)
        return len(live)

    def monitored_flows(self) -> Dict[int, FiveTuple]:
        return {
            i: cell.flow for i, cell in enumerate(self.cells) if cell.flow is not None
        }
