"""Sharded engine throughput: conservative-lookahead multi-core fan-out.

The sharded packet engine (:mod:`repro.netsim.sharded`) splits the
packet-level Blink workload over forked worker processes and promises a
byte-identical ``report_hash`` at any shard count.  This bench times the
engine at one shard count (``--shards N``, default 1) on an E2-scale
workload and exports one gated record:

* ``blink_sharded_events`` — aggregate events/second across all shard
  loops, best-of-3, engine-only (schedules preloaded, no trace
  shipping).  The record's backend label is ``shards<N>``, so CI runs
  the bench twice (``--shards 1``, ``--shards 4``) and gates with
  ``tools/bench_compare.py --against <shard1 json>
  --min-speedup blink_sharded_events=2.5 --require-equal report_hash``
  — the >=2.5x multi-core floor and the determinism contract in one
  comparison.  The committed ``BENCH_blink_sharded.json`` records the
  single-core reference box (where no speedup is possible); the floor
  is only meaningful on multi-core runners, so CI computes both sides
  fresh.

Set ``REPRO_SHARDED_METRICS_OUT=<path>`` to dump the run's metric
registry — per-shard event counters, horizon-stall histogram, pipe-byte
gauges — as JSON (the CI perf-smoke job uploads it as an artifact).
"""

import json
import os

from conftest import banner, bench_record, run_once

from repro.analysis import ascii_table
from repro.blink.packet_level import packet_level_experiment
from repro.obs import metrics as obs_metrics

#: Half the paper's E2 population: enough events (~1.1M) that dispatch
#: dominates and the per-window sync cost is honestly amortised.
LEGIT_FLOWS = 1000
MALICIOUS_FLOWS = 52
REPS = 3

METRICS_OUT_ENV = "REPRO_SHARDED_METRICS_OUT"


def test_sharded_engine_throughput(benchmark, shard_count):
    registry = obs_metrics.MetricRegistry()

    def best_of_reps():
        best = None
        with obs_metrics.activate(registry):
            for _ in range(REPS):
                report = packet_level_experiment(
                    legitimate_flows=LEGIT_FLOWS,
                    malicious_flows=MALICIOUS_FLOWS,
                    seed=0,
                    shards=shard_count,
                    preload=True,
                    with_trace=False,
                )
                if best is None or report.wall_seconds < best.wall_seconds:
                    best = report
        return best

    report = run_once(benchmark, best_of_reps)

    banner(f"Sharded engine throughput — {shard_count} shard(s)")
    rows = [
        {"quantity": "shards", "value": report.shards},
        {"quantity": "events dispatched", "value": report.events},
        {"quantity": "packets simulated", "value": report.packets},
        {"quantity": "sim wall (s, best of 3)", "value": round(report.wall_seconds, 3)},
        {"quantity": "aggregate events/second", "value": int(report.events_per_second)},
    ]
    print(ascii_table(rows, title="Conservative-lookahead fan-out"))

    assert report.shards == shard_count
    assert report.packets > 500_000  # E2 scale, not a toy run

    benchmark.extra_info.update(
        {
            "shards": report.shards,
            "events": report.events,
            "packets": report.packets,
            "events_per_second": report.events_per_second,
            "report_hash": report.report_hash,
        }
    )
    # Coordinator-side sharded.* metrics only exist past one shard;
    # flatten the headline counters so they export as JSON scalars.
    counters = registry.to_dict()["counters"]
    for key in ("sharded.windows", "sharded.fast_forwards", "sharded.pipe_bytes"):
        if key in counters:
            benchmark.extra_info[key] = counters[key]

    out_path = os.environ.get(METRICS_OUT_ENV)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {"shards": shard_count, "registry": registry.to_dict()},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"sharded metrics snapshot written to {out_path}")

    bench_record(
        benchmark,
        name="blink_sharded_events",
        backend=f"shards{shard_count}",
        trials=report.events,
        wall_seconds=report.wall_seconds,
    )
