"""The event-driven packet-level Blink driver and its determinism.

The acceptance property of the event queue: the packet-level Blink
experiment produces *byte-identical* results (canonical report hashes)
on the calendar queue and on the test-only heap ordering oracle, across
a grid of seeds and parameters — workload shape, link mode, fault gates
and all — and at every shard count.
"""

from __future__ import annotations

import functools

import pytest

from repro.blink.packet_level import (
    PacketLevelReport,
    blink_attack_specs,
    packet_level_experiment,
)
from repro.faults import FaultPlan
from repro.faults.injectors import TelemetryFault
from repro.flows.generators import emit_trace, iter_flow_schedules
from tests.test_netsim_scheduler import QUEUES, installed_queue

# Small-but-nontrivial scale: ~45k packets, a handful of resets.
SMALL = dict(horizon=90.0, legitimate_flows=120, malicious_flows=7)


def small_run(queue: str = "calendar", **overrides) -> PacketLevelReport:
    """One small experiment on ``queue`` (see :func:`installed_queue`)."""
    params = dict(SMALL)
    params.update(overrides)
    with installed_queue(queue):
        return packet_level_experiment(**params)


class TestCrossSchedulerDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_report_hash_identical_across_schedulers(self, seed):
        heap = small_run("heap", seed=seed)
        calendar = small_run("calendar", seed=seed)
        assert heap.report_hash == calendar.report_hash
        assert heap.packets == calendar.packets > 10_000
        assert heap.events == calendar.events

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sample_interval": 0.5},
            {"cells": 16},
            {"packet_rate": 4.0, "horizon": 45.0},
            {"with_blink": False},
            {"with_trace": False},
            {"preload": True},
            {"through_link": True},
            {"ring_capacity": 0},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_parameter_grid_parity(self, overrides):
        heap = small_run("heap", seed=3, **overrides)
        calendar = small_run("calendar", seed=3, **overrides)
        assert heap.report_hash == calendar.report_hash

    def test_parity_under_telemetry_fault(self):
        reports = {}
        for queue in QUEUES:
            plan = FaultPlan.parse(
                "telemetry-drop:p=0.05;telemetry-garble:p=0.05,scale=1.0",
                seed=9,
            )
            reports[queue] = small_run(
                queue, seed=1, fault=TelemetryFault(plan, role="blink")
            )
        assert reports["heap"].report_hash == reports["calendar"].report_hash

    def test_different_seeds_differ(self):
        assert small_run(seed=0).report_hash != small_run(seed=1).report_hash


@functools.lru_cache(maxsize=None)
def _single_shard_baseline(queue: str, **overrides) -> PacketLevelReport:
    return small_run(queue, seed=3, **overrides)


class TestShardedDeterminism:
    """The sharded engine's contract: byte-identical reports at every
    shard count, on both queues, kernel backends and driver modes."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("queue", QUEUES)
    def test_shard_grid_parity(self, shards, queue):
        base = _single_shard_baseline(queue)
        run = small_run(queue, seed=3, shards=shards)
        assert run.report_hash == base.report_hash
        assert run.packets == base.packets
        assert run.events == base.events
        assert run.shards == shards

    def test_numpy_backend_parity(self, monkeypatch):
        pytest.importorskip("numpy")
        base = _single_shard_baseline("calendar")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        run = small_run(seed=3, shards=2)
        assert run.report_hash == base.report_hash

    @pytest.mark.parametrize(
        "overrides",
        [
            {"preload": True},
            {"through_link": True},
            {"with_trace": False},
            {"with_blink": False},
        ],
        ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
    )
    def test_mode_grid_parity(self, overrides):
        base = _single_shard_baseline("calendar", **overrides)
        run = small_run(seed=3, shards=2, **overrides)
        assert run.report_hash == base.report_hash

    def test_parity_under_telemetry_fault(self):
        reports = {}
        for shards in (1, 2):
            plan = FaultPlan.parse(
                "telemetry-drop:p=0.05;telemetry-garble:p=0.05,scale=1.0",
                seed=9,
            )
            reports[shards] = small_run(
                seed=1, shards=shards, fault=TelemetryFault(plan, role="blink")
            )
        assert reports[1].report_hash == reports[2].report_hash

    def test_shards_not_part_of_hash(self):
        run = small_run(seed=3, shards=4)
        assert run.shards == 4
        assert "shards" not in dict(run.canonical())
        assert run.report_hash == _single_shard_baseline("calendar").report_hash

    def test_env_var_resolves_shard_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        run = packet_level_experiment(seed=3, horizon=30.0,
                                      legitimate_flows=30, malicious_flows=2)
        assert run.shards == 2


class TestDriverShape:
    def test_report_fields_populated(self):
        report = small_run(seed=0)
        # The steady-state pool replaces finished flows, so the spec
        # count well exceeds the concurrent population.
        assert report.flows > SMALL["legitimate_flows"] + SMALL["malicious_flows"]
        assert report.malicious_flows == SMALL["malicious_flows"]
        assert 0 < report.qm < 1
        assert report.events >= report.packets
        assert report.sample_times and len(report.sample_times) == len(
            report.sample_values
        )
        assert report.trace_summary["packets"] == report.packets
        assert report.wall_seconds > 0
        assert report.events_per_second > 0

    def test_engine_only_skips_blink_and_trace(self):
        report = small_run(seed=0, with_trace=False)
        assert report.sample_times == ()
        assert report.decisions == 0
        assert report.trace_summary == {}
        assert report.packets > 0

    def test_ring_memory_is_bounded(self):
        small = small_run(seed=0, ring_capacity=64)
        large = small_run(seed=0, ring_capacity=2048)
        assert 0 < small.peak_ring_bytes < large.peak_ring_bytes
        # Bounded retention must not change the outcome.
        assert small.report_hash == large.report_hash

    def test_specs_match_offline_workload_helper(self):
        from repro.flows import blink_attack_workload

        specs = blink_attack_specs(seed=5, **SMALL)
        offline_specs, _, _ = blink_attack_workload(
            seed=5,
            horizon=SMALL["horizon"],
            legitimate_flows=SMALL["legitimate_flows"],
            malicious_flows=SMALL["malicious_flows"],
        )
        assert specs == offline_specs


class TestBatchScalarEquivalence:
    """The bulk schedule path reproduces emit_trace draw for draw."""

    def test_iter_flow_schedules_matches_emit_trace(self):
        specs = blink_attack_specs(seed=2, **SMALL)
        trace = emit_trace(specs, seed=7)
        rebuilt = []
        for spec, times, flags in iter_flow_schedules(specs, seed=7):
            for t, is_retrans in zip(times, flags):
                rebuilt.append((t, spec.flow, is_retrans, False))
            if spec.sends_fin:
                rebuilt.append((spec.end, spec.flow, False, True))
        rebuilt.sort(key=lambda item: item[0])
        assert len(rebuilt) == len(trace)
        for record, (t, flow, retrans, fin) in zip(trace, rebuilt):
            assert record.time == t
            assert record.flow == flow
            assert record.is_retransmission == retrans
            assert record.is_fin_or_rst == fin
