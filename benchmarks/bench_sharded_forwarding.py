"""Sharded forwarding throughput: multiprocess full-network fan-out.

The sharded forwarding engine (:mod:`repro.netsim.forwarding`) runs a
complete forwarding :class:`~repro.netsim.network.Network` — routing
tables, TTL/ICMP, queueing links, fault plans — partitioned across
forked workers, and promises a byte-identical ``report_hash`` at any
shard count.  This bench times it at one shard count (``--shards N``,
default 1) on an internet-scale *sparse-cut* input: four dense
128-router clusters on a high-latency backbone ring
(:func:`~repro.netsim.topology.clustered_random_topology`), sharded
along the cluster seams, with traffic endpoints clustered per island
so almost all flows stay shard-local and only a trickle crosses the
cut — the regime conservative-lookahead engines are built for, and
the one where adaptive windows pay off.

One gated record is exported:

* ``sharded_forwarding_events`` — aggregate events/second across all
  shard loops, best-of-N with adaptive windows on.  The backend label
  is ``shards<N>``; CI runs shards 1 and 4 and gates with
  ``tools/bench_compare.py --against <shards1 json>
  --min-speedup sharded_forwarding_events=2.5
  --require-equal report_hash`` — the multi-core floor and the
  determinism contract in one comparison.  The committed
  ``BENCH_sharded_forwarding.json`` records the single-core reference
  box (where no speedup is possible); CI computes both sides fresh.

Past one shard the bench additionally replays the same run with a
*fixed* lookahead window and records the adaptive-vs-fixed speedup
(``extra_info["adaptive_speedup"]``) plus both hashes — the sparse cut
lets adaptive windows grow and fast-forward through quiet gaps that
lockstep windows must crawl across.

Set ``REPRO_FORWARDING_METRICS_OUT=<path>`` to dump the adaptive run's
metric registry — window-width gauge/histogram, ``adaptive_grows`` /
``adaptive_resets`` counters, per-shard event totals — as JSON (the CI
perf-smoke job uploads it as an artifact).
"""

import itertools
import json
import os

from conftest import banner, bench_record, run_once

from repro.analysis import ascii_table
from repro.netsim.forwarding import forwarding_experiment, iter_forwarding_flows
from repro.netsim.topology import cluster_assignment, clustered_random_topology
from repro.obs import metrics as obs_metrics

#: 4 x 128 = 512 routers: large enough that per-shard work dominates
#: window sync, small enough for the CI perf-smoke wall budget.  The
#: endpoint pools follow the 4 islands regardless of --shards, so every
#: shard count simulates the identical workload and hashes compare.
REGIONS = 4
CLUSTER_NODES = 128
ENDPOINTS_PER_REGION = 16
REGION_FLOWS = 220
CROSS_FLOWS = 24
HORIZON = 5.0
SEED = 7
WORKLOAD = "elephant-mice"
#: Long-haul backbone: a 60 ms cut keeps sync rounds rare relative to
#: per-shard work (the lookahead IS the backbone delay).
BACKBONE_DELAY_S = 0.060
#: Densified arrival/packet rates: the stock elephant-mice defaults are
#: sized for hour-long scenario runs, not a 5 s throughput bench.
WORKLOAD_KNOBS = {"rate": 60.0, "packet_rate": 60.0}
REPS = 2

METRICS_OUT_ENV = "REPRO_FORWARDING_METRICS_OUT"


def _region_pools(topology):
    """Per-island endpoint pools: the sparse-cut traffic clusters.

    Skips each island's gateway (``c<r>n0``) so endpoint traffic never
    originates on a backbone node.
    """
    regions = cluster_assignment(topology, REGIONS)
    pools = []
    for region in range(REGIONS):
        members = sorted(n for n, r in regions.items() if r == region)
        pools.append([n for n in members if not n.endswith("n0")][:ENDPOINTS_PER_REGION])
    return pools


def _flow_stream(pools):
    """Mostly intra-region flows plus a cross-cut trickle, streamed."""
    streams = [
        iter_forwarding_flows(
            WORKLOAD,
            pool,
            seed=SEED + region,
            horizon=HORIZON,
            flows=REGION_FLOWS,
            **WORKLOAD_KNOBS,
        )
        for region, pool in enumerate(pools)
    ]
    everywhere = [node for pool in pools for node in pool]
    streams.append(
        iter_forwarding_flows(
            WORKLOAD,
            everywhere,
            seed=SEED + 97,
            horizon=HORIZON,
            flows=CROSS_FLOWS,
            **WORKLOAD_KNOBS,
        )
    )
    return itertools.chain.from_iterable(streams)


def test_sharded_forwarding_throughput(benchmark, shard_count):
    topology = clustered_random_topology(
        REGIONS, CLUSTER_NODES, seed=SEED, backbone_delay_s=BACKBONE_DELAY_S
    )
    pools = _region_pools(topology)
    endpoints = [node for pool in pools for node in pool]
    assignment = (
        cluster_assignment(topology, shard_count) if shard_count > 1 else None
    )
    registry = obs_metrics.MetricRegistry()

    def run(adaptive):
        return forwarding_experiment(
            topology,
            _flow_stream(pools),
            HORIZON,
            seed=SEED,
            shards=shard_count,
            assignment=assignment,
            adaptive_window=adaptive,
            endpoints=endpoints,
        )

    def best_of_reps():
        best = None
        with obs_metrics.activate(registry):
            for _ in range(REPS):
                report = run(adaptive=True)
                if best is None or report.wall_seconds < best.wall_seconds:
                    best = report
        return best

    report = run_once(benchmark, best_of_reps)

    banner(f"Sharded forwarding throughput — {shard_count} shard(s)")
    rows = [
        {"quantity": "routers", "value": REGIONS * CLUSTER_NODES},
        {"quantity": "shards", "value": report.shards},
        {"quantity": "flows", "value": report.flows},
        {"quantity": "packets delivered", "value": report.delivered},
        {"quantity": "events dispatched", "value": report.events},
        {"quantity": "sync windows", "value": report.windows},
        {"quantity": "fast-forwards", "value": report.fast_forwards},
        {"quantity": "boundary packets", "value": report.boundary_packets},
        {"quantity": f"sim wall (s, best of {REPS})", "value": round(report.wall_seconds, 3)},
        {"quantity": "aggregate events/second", "value": int(report.events_per_second)},
    ]
    print(ascii_table(rows, title="Sparse-cut forwarding fan-out"))

    assert report.shards == shard_count
    assert report.delivered > 10_000  # internet-scale, not a toy run

    benchmark.extra_info.update(
        {
            "shards": report.shards,
            "flows": report.flows,
            "delivered": report.delivered,
            "events": report.events,
            "windows": report.windows,
            "fast_forwards": report.fast_forwards,
            "boundary_packets": report.boundary_packets,
            "events_per_second": report.events_per_second,
            "report_hash": report.report_hash,
        }
    )

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
        print(f"forwarding metrics snapshot written to {out_path}")

    bench_record(
        benchmark,
        name="sharded_forwarding_events",
        backend=f"shards{shard_count}",
        trials=report.events,
        wall_seconds=report.wall_seconds,
    )


#: Adaptive-window scenario: a *heterogeneous* cut.  Ring segment 0
#: (clusters 0-1) is a short 10 ms link and the other segments are
#: 100 ms long-hauls; the traffic lives in clusters 2 and 3, whose
#: outgoing lookahead is 100 ms, while clusters 0/1 — the owners of the
#: short link that pins the *global* lookahead to 10 ms — see only a
#: whisper of traffic.  A fixed window must lockstep at 10 ms forever
#: (the busy shards always have an imminent event, so it can never
#: fast-forward); the adaptive frontier ``min(bound + out_lookahead)``
#: rides the quiet shards' event bounds and the busy shards' 100 ms
#: exits, cutting sync rounds several-fold.
HETERO_BACKBONE_S = [0.010, 0.100, 0.100, 0.100]
BUSY_REGIONS = (2, 3)
BUSY_FLOWS = 120
QUIET_KNOBS = {"rate": 4.0, "packet_rate": 0.5}
QUIET_FLOWS = 8
HETERO_CROSS_FLOWS = 8


def test_adaptive_window_speedup(benchmark, shard_count):
    import pytest

    if shard_count != REGIONS:
        pytest.skip("the heterogeneous-cut scenario shards along its "
                    f"{REGIONS} islands")
    topology = clustered_random_topology(
        REGIONS, CLUSTER_NODES, seed=SEED, backbone_delay_s=HETERO_BACKBONE_S
    )
    pools = _region_pools(topology)
    endpoints = [node for pool in pools for node in pool]
    assignment = cluster_assignment(topology, shard_count)

    def sparse_flows():
        streams = []
        for region, pool in enumerate(pools):
            busy = region in BUSY_REGIONS
            streams.append(
                iter_forwarding_flows(
                    WORKLOAD, pool, seed=SEED + region, horizon=HORIZON,
                    flows=BUSY_FLOWS if busy else QUIET_FLOWS,
                    **(WORKLOAD_KNOBS if busy else QUIET_KNOBS),
                )
            )
        streams.append(
            iter_forwarding_flows(
                WORKLOAD,
                pools[BUSY_REGIONS[0]] + pools[BUSY_REGIONS[1]],
                seed=SEED + 97,
                horizon=HORIZON,
                flows=HETERO_CROSS_FLOWS,
                **QUIET_KNOBS,
            )
        )
        return itertools.chain.from_iterable(streams)

    def run(adaptive):
        return forwarding_experiment(
            topology,
            sparse_flows(),
            HORIZON,
            seed=SEED,
            shards=shard_count,
            assignment=assignment,
            adaptive_window=adaptive,
            endpoints=endpoints,
        )

    def both():
        adaptive = min((run(adaptive=True) for _ in range(REPS)),
                       key=lambda r: r.wall_seconds)
        fixed = min((run(adaptive=False) for _ in range(REPS)),
                    key=lambda r: r.wall_seconds)
        return adaptive, fixed

    adaptive, fixed = run_once(benchmark, both)

    assert fixed.report_hash == adaptive.report_hash, (
        "window policy changed the physics: "
        f"{fixed.report_hash} != {adaptive.report_hash}"
    )
    assert adaptive.windows * 2 <= fixed.windows, (
        "adaptive windows did not substantially reduce sync rounds: "
        f"{adaptive.windows} vs {fixed.windows}"
    )
    speedup = fixed.wall_seconds / adaptive.wall_seconds

    banner(f"Adaptive vs fixed windows — {shard_count} shard(s)")
    rows = [
        {"policy": "fixed", "windows": fixed.windows,
         "fast_forwards": fixed.fast_forwards,
         "wall_s": round(fixed.wall_seconds, 3)},
        {"policy": "adaptive", "windows": adaptive.windows,
         "fast_forwards": adaptive.fast_forwards,
         "wall_s": round(adaptive.wall_seconds, 3)},
    ]
    print(ascii_table(rows, title="Sparse-cut window policies"))
    print(f"adaptive speedup: {speedup:.2f}x wall, "
          f"{fixed.windows / adaptive.windows:.2f}x fewer sync rounds")

    benchmark.extra_info.update(
        {
            "shards": adaptive.shards,
            "adaptive_windows": adaptive.windows,
            "fixed_windows": fixed.windows,
            "adaptive_wall_seconds": adaptive.wall_seconds,
            "fixed_wall_seconds": fixed.wall_seconds,
            "adaptive_speedup": speedup,
            "report_hash": adaptive.report_hash,
        }
    )
    bench_record(
        benchmark,
        name="forwarding_adaptive_window",
        backend=f"shards{shard_count}",
        trials=fixed.windows - adaptive.windows,
        wall_seconds=adaptive.wall_seconds,
    )
