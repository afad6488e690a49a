"""E2: packet-level confirmation of the Blink capture attack.

Paper: "we simulated a network with mininet and the P4_16 implementation
of Blink.  We generated 2000 legitimate and 105 malicious flows
(qm = 0.0525), and used the same tR = 8.37 s. ... As expected from the
theoretical results, half of the sampled flows are malicious after
~200 s."

We reproduce the experiment at full scale — 2000 concurrently active
legitimate flows, 105 persistent attack flows, 64 selector cells,
510 s horizon — through the event-driven packet-level driver
(:mod:`repro.blink.packet_level`): flows are scheduled on the event
loop, every packet streams through a bounded-memory aggregator into
the reconstructed Blink pipeline, and no multi-million-record trace is
ever materialised.

Two gated records feed ``tools/bench_compare.py``:

* ``blink_packet_level`` — the full experiment (workload + streaming
  aggregation + Blink replay), with its ``report_hash`` in extra_info.
* ``blink_packet_level_events`` — engine-only throughput: the packet
  schedule is preloaded into the queue (hundreds of thousands of
  pending events) and dispatch alone is timed, best-of-3.

Both records carry ``backend="calendar"``, the event queue they ran on.
"""

from conftest import banner, bench_record, run_once

from repro.analysis import ascii_table, series_block
from repro.blink.packet_level import packet_level_experiment
from repro.flows import DurationDistribution

PREFIX = "198.51.100.0/24"

#: The event queue the records are keyed by (``<name>:calendar``).
QUEUE = "calendar"

#: Engine-throughput scale: enough pending events to exercise queue
#: depth (~290k) while keeping the run CI-friendly.
ENGINE_LEGIT_FLOWS = 250
ENGINE_MALICIOUS_FLOWS = 13
ENGINE_REPS = 3


def test_packet_level_capture(benchmark):
    report = run_once(
        benchmark,
        packet_level_experiment,
        destination_prefix=PREFIX,
        # median tuned so the measured tR lands near the paper's 8.37 s
        duration_model=DurationDistribution(median=3.0),
        seed=0,
    )

    banner(
        "E2 — packet-level Blink capture (2000 legit + 105 malicious flows, "
        f"{QUEUE} queue)"
    )
    print(
        series_block(
            "attacker-held cells (of 64)", report.sample_times, report.sample_values
        )
    )
    print()

    crossing = report.crossing_time
    measured_tr = report.measured_tr
    rows = [
        {"quantity": "packets simulated", "value": report.packets},
        {"quantity": "events processed", "value": report.events},
        {"quantity": "events/second", "value": int(report.events_per_second)},
        {"quantity": "qm (flows)", "value": round(report.qm, 4)},
        {"quantity": "peak trace ring (bytes)", "value": report.peak_ring_bytes},
        {"quantity": "measured tR (s) [paper: 8.37]", "value": round(measured_tr, 2)},
        {
            "quantity": "time until half the sample is malicious (s) [paper: ~200]",
            "value": round(crossing, 1) if crossing else "never",
        },
        {"quantity": "peak attacker-held cells", "value": int(max(report.sample_values))},
        {"quantity": "reroute events", "value": report.reroutes},
        {
            "quantity": "first reroute at (s)",
            "value": round(report.first_reroute, 1) if report.first_reroute else "never",
        },
    ]
    print(ascii_table(rows, title="Packet-level outcome vs paper"))

    # Shape: the attack captures a majority well within the 510 s
    # budget and triggers bogus reroutes; the measured tR is in the
    # right ballpark of the paper's trace-derived 8.37 s.
    assert crossing is not None and crossing < 510.0
    assert report.reroutes > 0
    assert 4.0 < measured_tr < 14.0

    benchmark.extra_info.update(
        {
            "packets": report.packets,
            "events": report.events,
            "events_per_second": report.events_per_second,
            "time_to_half_sample_s": crossing,
            "measured_tr_s": measured_tr,
            "reroutes": report.reroutes,
            "peak_ring_bytes": report.peak_ring_bytes,
            "report_hash": report.report_hash,
        }
    )
    # Gate on the simulation region (loop.run_until), the part the
    # event queue actually governs; spec generation is excluded.
    bench_record(
        benchmark,
        name="blink_packet_level",
        backend=QUEUE,
        trials=report.packets,
        wall_seconds=report.wall_seconds,
    )


def test_packet_level_engine_throughput(benchmark):
    def best_of_reps():
        best = None
        for _ in range(ENGINE_REPS):
            report = packet_level_experiment(
                destination_prefix=PREFIX,
                legitimate_flows=ENGINE_LEGIT_FLOWS,
                malicious_flows=ENGINE_MALICIOUS_FLOWS,
                seed=0,
                with_trace=False,
                preload=True,
            )
            if best is None or report.wall_seconds < best.wall_seconds:
                best = report
        return best

    report = run_once(benchmark, best_of_reps)

    banner(
        f"Engine throughput — preloaded packet schedule, {QUEUE} queue"
    )
    rows = [
        {"quantity": "pending events preloaded", "value": report.events},
        {"quantity": "dispatch wall (s, best of 3)", "value": round(report.wall_seconds, 3)},
        {"quantity": "events/second", "value": int(report.events_per_second)},
    ]
    print(ascii_table(rows, title="Event-queue dispatch"))

    # Every preloaded packet fires exactly once.
    assert report.events == report.packets

    benchmark.extra_info.update(
        {
            "events": report.events,
            "events_per_second": report.events_per_second,
            "report_hash": report.report_hash,
        }
    )
    bench_record(
        benchmark,
        name="blink_packet_level_events",
        backend=QUEUE,
        trials=report.events,
        wall_seconds=report.wall_seconds,
    )
