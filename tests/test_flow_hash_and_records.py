"""Cached FiveTuple hashes and tuple-backed TraceRecords keep their contracts."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flows.flow import FiveTuple
from repro.netsim.packet import TcpFlags, tcp_packet
from repro.netsim.trace import StreamingTraceAggregator, TraceRecord

SRC = str(Path(__file__).resolve().parent.parent / "src")

flows = st.builds(
    FiveTuple,
    src=st.text(min_size=1, max_size=12),
    dst=st.text(min_size=1, max_size=12),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    protocol=st.integers(0, 255),
)


@given(flows)
def test_cached_hash_equals_field_tuple_hash(flow):
    fields = (flow.src, flow.dst, flow.src_port, flow.dst_port, flow.protocol)
    assert hash(flow) == hash(fields)
    twin = FiveTuple(*fields)
    assert twin == flow and not twin != flow
    assert {flow: 1}[twin] == 1


def test_distinct_flows_compare_unequal():
    a = FiveTuple("10.0.0.1", "198.51.100.1", 1000, 443)
    b = FiveTuple("10.0.0.1", "198.51.100.1", 1001, 443)
    assert a != b and not a == b
    assert a != ("10.0.0.1", "198.51.100.1", 1000, 443, 6)


def _run(code, hash_seed, stdin=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
    )
    return done.stdout


def test_pickled_flow_rehashes_under_another_hash_seed():
    # The sweep cache and the job service persist pickled results; a
    # hash carried through pickle would miss every dict lookup in a
    # process whose str hashes are salted differently.
    dump = (
        "import pickle, sys\n"
        "from repro.flows.flow import FiveTuple\n"
        "flow = FiveTuple('10.0.0.1', '198.51.100.7', 43210, 443)\n"
        "sys.stdout.buffer.write(pickle.dumps((flow, hash(flow))))\n"
    )
    load = (
        "import pickle, sys\n"
        "from repro.flows.flow import FiveTuple\n"
        "flow, foreign_hash = pickle.loads(sys.stdin.buffer.read())\n"
        "local = {FiveTuple('10.0.0.1', '198.51.100.7', 43210, 443): 'found'}\n"
        "fields = (flow.src, flow.dst, flow.src_port, flow.dst_port, flow.protocol)\n"
        "assert hash(flow) == hash(fields)\n"
        "print(local[flow], hash(flow) != foreign_hash)\n"
    )
    payload = _run(dump, hash_seed=1)
    assert _run(load, hash_seed=2, stdin=payload).split() == [b"found", b"True"]


def test_pickle_round_trip_in_process():
    flow = FiveTuple("10.0.0.1", "198.51.100.7", 43210, 443, 17)
    clone = pickle.loads(pickle.dumps(flow))
    assert clone == flow and hash(clone) == hash(flow)


def test_trace_record_fields_and_order():
    assert TraceRecord._fields == (
        "time",
        "flow",
        "size",
        "observation_point",
        "is_retransmission",
        "is_fin_or_rst",
        "malicious_ground_truth",
    )
    flow = FiveTuple("10.0.0.1", "198.51.100.7", 1, 2)
    record = TraceRecord(1.0, flow, 1500)
    assert record.observation_point == ""
    assert not (record.is_retransmission or record.is_fin_or_rst)
    assert not record.malicious_ground_truth


def test_trace_record_from_packet():
    packet = tcp_packet(
        "10.0.0.1", "198.51.100.7", 1, 2, seq=5, flags=TcpFlags.RST, retransmission=True
    )
    record = TraceRecord.from_packet(2.5, packet, "r0")
    assert record == TraceRecord(
        time=2.5,
        flow=packet.five_tuple,
        size=packet.size,
        observation_point="r0",
        is_retransmission=True,
        is_fin_or_rst=True,
        malicious_ground_truth=packet.malicious_ground_truth,
    )


def test_trace_record_equality_hash_and_immutability():
    flow = FiveTuple("10.0.0.1", "198.51.100.7", 1, 2)
    a = TraceRecord(1.0, flow, 100, "r0", True)
    b = TraceRecord(time=1.0, flow=flow, size=100, observation_point="r0", is_retransmission=True)
    assert a == b and hash(a) == hash(b)
    assert a != TraceRecord(1.0, flow, 100, "r1", True)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.time = 2.0  # type: ignore[misc]


def test_aggregator_builds_the_same_record_as_the_constructor():
    seen = []
    aggregator = StreamingTraceAggregator(ring_capacity=4, sink=seen.append)
    flow = FiveTuple("10.0.0.1", "198.51.100.7", 1, 2)
    aggregator.observe(1.0, flow, 40, "ingress", False, True, True)
    expected = TraceRecord(1.0, flow, 40, "ingress", False, True, True)
    assert seen == [expected] and aggregator.recent() == [expected]
    assert type(seen[0]) is TraceRecord
