"""The selector's incremental retransmitting count against a full cell scan.

``FlowSelector.retransmitting_count`` keeps a live set of cells pruned
by two lazy-expiry heaps instead of scanning every cell per query.  The
scan below is the definition it must reproduce exactly: after every
packet, and at query times in between, the incremental count (and the
set behind it) equals the scan over random packet sequences that
exercise collisions, FIN/RST, inactivity evictions, sample resets with
reseeding, duplicate-seq retransmissions and exact window/timeout
boundaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blink.selector import FlowSelector
from repro.flows.flow import FiveTuple


def scan_retransmitting_cells(selector, now):
    """The oracle: every occupied cell with a retransmission within the
    window whose flow is not past the eviction timeout."""
    window = selector.retransmission_window
    timeout = selector.eviction_timeout
    return {
        index
        for index, cell in enumerate(selector.cells)
        if cell.flow is not None
        and cell.last_retransmission is not None
        and not now - cell.last_activity >= timeout
        and now - cell.last_retransmission <= window
    }


def assert_matches_scan(selector, now):
    count = selector.retransmitting_count(now)
    expected = scan_retransmitting_cells(selector, now)
    assert count == len(expected)
    assert selector._live == expected


FLOWS = [FiveTuple(f"10.0.0.{i + 1}", "198.51.100.1", 1000 + i, 443) for i in range(6)]

#: Time steps on a dyadic grid hit ``now - t == window`` and
#: ``now - t == timeout`` exactly in floating point; the irregular ones
#: land between boundaries.
STEPS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)

PACKETS = st.lists(
    st.tuples(
        STEPS,
        st.integers(min_value=0, max_value=len(FLOWS) - 1),
        st.booleans(),  # explicit retransmission flag
        st.sampled_from([False, False, False, False, True]),  # FIN/RST
        st.sampled_from([None, 0, 0, 1, 2]),  # repeats mark duplicate-seq
        st.booleans(),  # ground-truth malicious
        st.sampled_from([None, None, 0.0, 0.5, 1.0, 2.0]),  # extra query offset
    ),
    min_size=1,
    max_size=80,
)


@given(
    packets=PACKETS,
    cells=st.integers(min_value=1, max_value=4),
    window=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    timeout=st.sampled_from([1.0, 2.0]),
    reset_interval=st.sampled_from([4.0, 7.5, 1e9]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=400, deadline=None)
def test_incremental_count_equals_scan(packets, cells, window, timeout, reset_interval, seed):
    selector = FlowSelector(
        cells=cells,
        eviction_timeout=timeout,
        reset_interval=reset_interval,
        hash_seed=seed,
        reseed_on_reset=True,
        retransmission_window=window,
    )
    now = 0.0
    for step, flow, retransmission, fin, seq, malicious, query_offset in packets:
        now += step
        selector.observe(
            FLOWS[flow],
            now,
            is_retransmission=retransmission,
            is_fin_or_rst=fin,
            seq=seq,
            malicious_ground_truth=malicious,
        )
        assert_matches_scan(selector, now)
        if query_offset is not None:
            now += query_offset
            assert_matches_scan(selector, now)


@pytest.mark.parametrize("window", [1.0, 2.0])
def test_window_equal_to_eviction_timeout(window):
    selector = FlowSelector(cells=1, eviction_timeout=window, retransmission_window=window)
    flow = FLOWS[0]
    selector.observe(flow, 1.0, is_retransmission=True)
    # Exactly one window later the retransmission still counts, but the
    # flow is exactly at the eviction timeout, so it no longer does.
    assert_matches_scan(selector, 1.0 + window)
    assert selector.retransmitting_count(1.0 + window) == 0


def test_retransmission_exactly_one_window_old_counts():
    selector = FlowSelector(cells=1, eviction_timeout=2.0, retransmission_window=1.0)
    flow = FLOWS[0]
    selector.observe(flow, 0.5, is_retransmission=True)
    selector.observe(flow, 1.25)
    assert selector.retransmitting_count(1.5) == 1  # 1.5 - 0.5 == window
    assert selector.retransmitting_count(1.5000001) == 0


def test_refiled_entries_keep_exact_boundaries():
    # The heaps hold a cell's timestamps as of when it joined; a popped
    # entry is re-checked against the cell's newer timestamps, with the
    # same boundary predicates as the scan.
    selector = FlowSelector(cells=1, eviction_timeout=2.0, retransmission_window=1.0)
    flow = FLOWS[0]
    selector.observe(flow, 0.0, is_retransmission=True)
    selector.observe(flow, 0.5, is_retransmission=True)
    assert selector.retransmitting_count(1.5) == 1  # 1.5 - 0.5 == window
    assert selector.retransmitting_count(1.75) == 0

    selector = FlowSelector(cells=1, eviction_timeout=1.0, retransmission_window=3.0)
    selector.observe(flow, 0.0, is_retransmission=True)
    selector.observe(flow, 0.5)
    assert selector.retransmitting_count(1.25) == 1  # idle 0.75 < timeout
    assert selector.retransmitting_count(1.5) == 0  # idle exactly the timeout


def test_idle_cell_rejoins_on_its_next_packet():
    # A window longer than the eviction timeout lets a cell drop out as
    # idle while its retransmission is still inside the window.
    selector = FlowSelector(cells=1, eviction_timeout=1.0, retransmission_window=3.0)
    flow = FLOWS[0]
    selector.observe(flow, 0.0, is_retransmission=True)
    assert selector.retransmitting_count(1.0) == 0
    selector.observe(flow, 2.0)
    assert selector.retransmitting_count(2.0) == 1
    assert selector.retransmitting_count(3.0) == 0


def test_fin_and_reset_leave_the_set():
    selector = FlowSelector(cells=2, reset_interval=10.0, retransmission_window=5.0)
    selector.observe(FLOWS[0], 1.0, is_retransmission=True)
    selector.observe(FLOWS[1], 1.0, is_retransmission=True)
    monitored = len(selector.monitored_flows())
    assert selector.retransmitting_count(1.0) == monitored
    selector.observe(FLOWS[0], 1.5, is_fin_or_rst=True)
    assert_matches_scan(selector, 1.5)
    selector.observe(FLOWS[2], 10.0)
    assert selector.stats.resets == 1
    assert selector.retransmitting_count(10.0) == 0


def test_decreasing_query_time_raises():
    selector = FlowSelector(cells=4, retransmission_window=1.0)
    selector.observe(FLOWS[0], 1.0, is_retransmission=True)
    assert selector.retransmitting_count(2.0) == 1
    with pytest.raises(ValueError, match="backwards"):
        selector.retransmitting_count(1.5)


def test_query_before_latest_packet_raises():
    selector = FlowSelector(cells=4, retransmission_window=1.0)
    selector.observe(FLOWS[0], 3.0, is_retransmission=True)
    with pytest.raises(ValueError, match="backwards"):
        selector.retransmitting_count(2.0)
    with pytest.raises(ValueError, match="backwards"):
        selector.observe(FLOWS[0], 2.5)


def test_window_must_be_positive():
    from repro.core.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FlowSelector(retransmission_window=0.0)
