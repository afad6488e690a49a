"""End-to-end tests for the unified metrics pipeline.

Covers the instrumented subsystems (netsim event loop, kernel dispatch,
result cache, fault injectors, supervisor), the ``Tracer(metrics=...)``
hook, the serial-vs-parallel merge determinism pin, ledger round-trip
byte identity under telemetry fault plans, and the CLI surface
(``run --metrics-out``, ``report --profile``, ``top``).
"""

import json

import pytest

from repro.cli import main
from repro.core.attack import Attack, AttackResult
from repro.core.entities import Capability, Impact, Privilege, Signal, SignalKind, Target
from repro.core.supervisor import SupervisedDriver, Supervisor, ThresholdModel
from repro.core.system import DataDrivenSystem, Decision, SystemState
from repro.faults.injectors import ClockFaultInjector, FaultyLinkTap, TelemetryFault
from repro.faults.plan import FaultPlan
from repro.kernels import get_backend
from repro.netsim.events import EventLoop
from repro.obs import RunLedger, Tracer
from repro.obs import metrics as om
from repro.obs.metrics import MetricRegistry, read_snapshots
from repro.runner import ParallelSweepExecutor, ResultCache, seed_cells


class TestNetsimRollup:
    def test_run_until_rolls_up_once_per_run(self):
        registry = MetricRegistry()
        loop = EventLoop()
        for t in (1.0, 2.0, 3.0):
            loop.schedule_at(t, lambda: None)
        with om.activate(registry):
            loop.run_until(5.0)
        assert registry.counter("netsim.runs") == 1
        assert registry.counter("netsim.events.calendar") == 3
        events_hist = registry.histograms["netsim.run_events"]
        assert events_hist.count == 1
        assert events_hist.total == pytest.approx(3.0)
        assert registry.histograms["netsim.run_wall_s"].count == 1
        assert registry.gauge("netsim.queue_depth") == 0

    def test_pool_hit_rate_gauge(self):
        registry = MetricRegistry()
        loop = EventLoop()
        # First transient is a pool miss; after it fires and recycles,
        # the second is a hit.
        loop.schedule_transient(1.0, lambda: None)
        loop.run_until(1.0)
        loop.schedule_transient(2.0, lambda: None)
        with om.activate(registry):
            loop.run_until(3.0)
        assert registry.gauge("netsim.pool_hit_rate") == pytest.approx(0.5)

    def test_unmetered_run_records_nothing(self):
        registry = MetricRegistry()
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run_until(2.0)  # no registry active
        assert len(registry) == 0
        assert loop.processed_events == 1


class TestKernelDispatch:
    def test_calls_and_wall_time_recorded(self):
        backend = get_backend("python")
        registry = MetricRegistry()
        with om.activate(registry):
            backend.fnv1a_bulk([b"a", b"b"])
            backend.fnv1a_bulk([b"c"])
        assert registry.counter("kernels.calls.python.fnv1a_bulk") == 2
        assert registry.histograms["kernels.wall_s.python"].count == 2

    def test_unmetered_calls_stay_free_and_correct(self):
        backend = get_backend("python")
        registry = MetricRegistry()
        hashes = backend.fnv1a_bulk([b"x"])
        assert len(hashes) == 1
        assert len(registry) == 0

    def test_instrumentation_preserves_memoisation(self):
        assert get_backend("python") is get_backend("python")


class TestCacheCounters:
    def test_miss_store_hit_and_corrupt(self, tmp_path):
        registry = MetricRegistry()
        cache = ResultCache(str(tmp_path / "cache"))
        with om.activate(registry):
            assert cache.get("k1") is None
            cache.put("k1", "toy", {"success": True})
            assert cache.get("k1") == {"success": True}
            # Corrupt the stored entry in place.
            with open(cache._path("k1"), "w", encoding="utf-8") as handle:
                handle.write("{torn")
            assert cache.get("k1") is None
        assert registry.counter("cache.misses") == 2
        assert registry.counter("cache.stores") == 1
        assert registry.counter("cache.hits") == 1
        assert registry.counter("cache.corrupt") == 1


class TestFaultPlaneCounters:
    def test_telemetry_counters(self):
        plan = FaultPlan.parse("telemetry-drop:p=0.5;telemetry-garble:p=1.0", seed=3)
        fault = TelemetryFault(plan, role="r")
        registry = MetricRegistry()
        with om.activate(registry):
            drops = sum(fault.drop(float(i)) for i in range(50))
            fault.garble(0.0, 1.0)
        assert drops > 0
        assert registry.counter("faults.telemetry.dropped") == drops
        assert registry.counter("faults.telemetry.garbled") == 1

    def test_clock_fault_counters(self):
        plan = FaultPlan.parse("timer-drop:p=1.0", seed=1)
        injector = ClockFaultInjector(plan)
        registry = MetricRegistry()
        with om.activate(registry):
            dropped = injector.adjust(1.0, 0.0, "t") is None
        assert dropped
        assert registry.counter("faults.control.timer_dropped") == 1

    def test_link_tap_counters(self, tmp_path):
        from repro.netsim.link import Link
        from repro.netsim.packet import Packet, TcpHeader

        loop = EventLoop()
        link = Link(loop, "a", "b")
        plan = FaultPlan.parse("loss-burst:p=1.0,t=0.0,dur=10.0", seed=1)
        tap = FaultyLinkTap(plan, link)
        packet = Packet(src="a", dst="b", payload_size=960, tcp=TcpHeader(seq=1))
        registry = MetricRegistry()
        with om.activate(registry):
            verdict = tap.inspect(packet, now=1.0)
        assert verdict.action == "drop"
        assert registry.counter("faults.data.dropped") == 1


class _MirrorDriver(DataDrivenSystem):
    name = "mirror"

    def __init__(self):
        self.last = 0.0

    def observe(self, signal):
        self.last = float(signal.value)
        return [Decision("steer", "net", signal.value, time=signal.time)]

    def state(self):
        return SystemState(time=0.0, variables={"speed": self.last})


class TestSupervisorCounters:
    def test_verdicts_counted_without_tracing(self):
        registry = MetricRegistry()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        supervised = SupervisedDriver(_MirrorDriver(), supervisor)
        with om.activate(registry):
            supervised.observe(Signal(SignalKind.TIMING, "speed", 5.0, time=0.0))
            supervised.observe(Signal(SignalKind.TIMING, "speed", 99.0, time=1.0))
        assert registry.counter("supervisor.verdicts.check") == 1
        assert registry.counter("supervisor.verdicts.veto") == 1

    def test_degraded_transitions_counted(self):
        registry = MetricRegistry()
        supervisor = Supervisor(ThresholdModel({"speed": (0, 10)}))
        with om.activate(registry):
            supervisor.enter_degraded(1.0, reason="test")
            supervisor.exit_degraded(2.0)
        assert registry.counter("supervisor.degraded_enters") == 1
        assert registry.counter("supervisor.degraded_exits") == 1


class TestTracerMetricsHook:
    def test_registry_snapshot_lands_in_ledger(self):
        registry = MetricRegistry()
        registry.inc("demo.calls", 4)
        tracer = Tracer(metrics=registry)
        with tracer.span("work"):
            pass
        ledger = RunLedger.from_tracer(tracer, attack="unit")
        assert ledger.metrics["run"]["counter.demo.calls"] == 4

    def test_hook_is_optional(self):
        tracer = Tracer()
        ledger = RunLedger.from_tracer(tracer, attack="unit")
        assert "run" not in ledger.metrics


class MeteredToyAttack(Attack):
    """Deterministic, picklable attack that exercises netsim + kernels."""

    name = "toy-metered"
    required_privilege = Privilege.HOST
    target = Target.ENDPOINT
    required_capabilities = (Capability.MANIPULATE_OWN_TRAFFIC,)
    impacts = (Impact.PERFORMANCE,)

    def execute(self, privilege: Privilege, **params: object) -> AttackResult:
        seed = int(params["seed"])
        loop = EventLoop()
        for i in range(2 + seed % 3):
            loop.schedule_transient(float(i), lambda: None)
        loop.run_until(10.0)
        hashes = get_backend("python").fnv1a_bulk([b"x" * (seed + 1)])
        return AttackResult(
            attack_name=self.name,
            success=True,
            time_to_success=float(seed),
            magnitude=float(hashes[0] % 97),
            details={"seed": seed},
        )


def _run_metered_sweep(jobs: int, seeds) -> MetricRegistry:
    registry = MetricRegistry()
    cells = seed_cells({}, list(seeds))
    with om.activate(registry):
        ParallelSweepExecutor(jobs=jobs).run(MeteredToyAttack(), cells)
    return registry


class TestSweepMergeDeterminism:
    """Acceptance pin: serial and parallel sweeps merge to identical
    metric values (counter sums, histogram bucket counts) for the same
    seed grid.  Wall-time histograms (``..._s`` stems, e.g.
    ``netsim.run_wall_s`` and ``kernels.wall_s.python``) are excluded
    from the value identity — their bucket placement depends on real
    time — but their observation counts must still match.
    """

    @staticmethod
    def _is_wall_time(name: str) -> bool:
        return name.endswith("_s") or "wall_s" in name

    def test_serial_and_parallel_merge_identically(self):
        seeds = [0, 1, 2, 3, 4]
        serial = _run_metered_sweep(1, seeds)
        parallel = _run_metered_sweep(3, seeds)

        assert serial.counters == parallel.counters
        assert serial.gauges == parallel.gauges
        assert set(serial.histograms) == set(parallel.histograms)
        for name in serial.histograms:
            ours, theirs = serial.histograms[name], parallel.histograms[name]
            assert ours.count == theirs.count, name
            if not self._is_wall_time(name):
                assert ours.buckets == theirs.buckets, name
                assert ours.total == theirs.total, name

    def test_sweep_counters_cover_every_cell(self):
        registry = _run_metered_sweep(2, [0, 1, 2])
        assert registry.counter("sweep.cells_executed") == 3
        assert registry.counter("sweep.cells_failed") == 0
        assert registry.counter("netsim.runs") == 3
        assert registry.counter("kernels.calls.python.fnv1a_bulk") == 3

    def test_unmetered_sweep_ships_no_shards(self):
        cells = seed_cells({}, [0, 1])
        report = ParallelSweepExecutor(jobs=2).run(MeteredToyAttack(), cells)
        assert all("metrics" not in cell for cell in report.cells)


BLINK_PARAMS = [
    "-p", "horizon=40.0",
    "-p", "legitimate_flows=40",
    "-p", "malicious_flows=40",
    "-p", "cells=16",
]


class TestLedgerByteIdentity:
    def test_round_trip_with_metrics_block(self, tmp_path):
        registry = MetricRegistry()
        registry.inc("demo", 3)
        registry.observe("lat", 0.004)
        registry.gauge_set("depth", 2)
        tracer = Tracer(metrics=registry)
        with tracer.span("phase"):
            tracer.emit("custom", value=1.5)
        ledger = RunLedger.from_tracer(
            tracer, attack="unit", params={"seed": 1}, seed=1, wall_seconds=0.25
        )
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        ledger.to_jsonl(str(first))
        RunLedger.from_jsonl(str(first)).to_jsonl(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_cli_fault_run_round_trips_byte_identically(self, tmp_path, capsys):
        """Garbled/dropped telemetry must not break ledger fidelity."""
        first = tmp_path / "run.jsonl"
        second = tmp_path / "again.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        rc = main(
            ["run", "blink-capture", *BLINK_PARAMS,
             "--faults", "telemetry-drop:p=0.2;telemetry-garble:p=0.1",
             "--fault-seed", "7", "--seed", "1",
             "--trace", str(first), "--metrics-out", str(metrics_path)]
        )
        capsys.readouterr()
        assert rc in (0, 1)  # attack outcome, not harness health
        loaded = RunLedger.from_jsonl(str(first))
        loaded.to_jsonl(str(second))
        assert first.read_bytes() == second.read_bytes()
        # The fault-plane counters made it into the metrics stream.
        snapshots = read_snapshots(str(metrics_path))
        assert len(snapshots) == 1
        counters = snapshots[0]["metrics"]["counters"]
        assert "run" in loaded.metrics
        assert any(name.startswith("faults.telemetry.") for name in counters)


class TestRenderDegenerate:
    def test_empty_ledger_renders(self):
        ledger = RunLedger(run={"record": "run", "schema": 1, "attack": "x"})
        assert isinstance(ledger.render(), str)

    @pytest.mark.parametrize("width", [0, -5, 10**9, "wat", None, 3.7])
    def test_width_is_clamped_never_raises(self, width):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.emit("custom", value=1.0)
        ledger = RunLedger.from_tracer(tracer, attack="x")
        rendered = ledger.render(width=width)
        assert "x" in rendered

    def test_profile_without_spans_explains(self):
        ledger = RunLedger(run={"record": "run", "schema": 1, "attack": "x"})
        assert "no span" in ledger.render_profile().lower()

    def test_self_time_profile_subtracts_children(self):
        from tests.test_obs import FakeClock

        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        ledger = RunLedger.from_tracer(tracer, attack="x")
        rows = {row["span"]: row for row in ledger.self_time_profile()}
        assert rows["outer"]["self_s"] == pytest.approx(
            rows["outer"]["total_s"] - rows["inner"]["total_s"]
        )
        assert rows["inner"]["self_s"] == pytest.approx(rows["inner"]["total_s"])


class TestCliMetricsSurface:
    def _run_analytical(self, tmp_path, capsys, *extra):
        rc = main(["run", "blink-analytical", "--seed", "3", *extra])
        out = capsys.readouterr()
        assert rc in (0, 1)
        return out

    def test_metrics_out_jsonl(self, tmp_path, capsys):
        path = tmp_path / "met.jsonl"
        self._run_analytical(tmp_path, capsys, "--metrics-out", str(path))
        snapshots = read_snapshots(str(path))
        assert len(snapshots) == 1
        assert snapshots[0]["attack"] == "blink-capture-analytical"
        assert snapshots[0]["schema"] == 1
        assert snapshots[0]["metrics"]["counters"]

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        path = tmp_path / "met.prom"
        self._run_analytical(tmp_path, capsys, "--metrics-out", str(path))
        text = path.read_text()
        assert "# TYPE repro_" in text
        assert "_total" in text

    def test_report_profile(self, tmp_path, capsys):
        ledger_path = tmp_path / "led.jsonl"
        self._run_analytical(tmp_path, capsys, "--trace", str(ledger_path))
        rc = main(["report", str(ledger_path), "--profile", "--width", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-time profile" in out

    def test_top_renders_once(self, tmp_path, capsys):
        ledger_path = tmp_path / "led.jsonl"
        metrics_path = tmp_path / "met.jsonl"
        self._run_analytical(
            tmp_path, capsys,
            "--trace", str(ledger_path), "--metrics-out", str(metrics_path),
        )
        rc = main(["top", str(ledger_path), "--metrics", str(metrics_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "blink-capture-analytical" in out

    def test_top_missing_inputs_exit_2(self, tmp_path, capsys):
        rc = main(["top", str(tmp_path / "absent.jsonl")])
        capsys.readouterr()
        assert rc == 2

    def test_top_tolerates_torn_ledger(self, tmp_path, capsys):
        ledger_path = tmp_path / "led.jsonl"
        self._run_analytical(tmp_path, capsys, "--trace", str(ledger_path))
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"record": "event", "kind": "torn')
        rc = main(["top", str(ledger_path)])
        capsys.readouterr()
        assert rc == 0
