"""The benchmark's workloads: inputs built from a seed, one entry-point call.

Each workload turns ``(seed, scale)`` into the program's inputs and makes
exactly one call into a public entry point:

* ``e2_capture`` — :func:`repro.blink.packet_level.packet_level_experiment`
  on the paper's E2 mix (2000 legitimate + 105 malicious flows, 64
  selector cells, ``DurationDistribution(median=3.0)``, one shard).
* ``fwd_1shard`` / ``fwd_2shard`` —
  :func:`repro.netsim.forwarding.forwarding_experiment` on the
  sparse-cut input of ``benchmarks/bench_sharded_forwarding.py``:
  four 128-router islands of :func:`clustered_random_topology` on a
  60 ms backbone, elephant-mice flows (220 per island + 24 across), a
  5 s horizon; one ``Network``, or two shards cut along
  :func:`cluster_assignment` with adaptive windows.

The seed reaches the program only through the generated inputs: the
E2 workload seed, and for forwarding the network it draws (topology,
link delays, chords, per-link seeds).  The forwarding traffic is the
bench's fixed flow draw (``FLOW_SEED``), so every seed offers the same
load (87.3k–88.0k delivered packets over seeds 0–7, against 80k–89k
when the flows vary too) and the spread across seeds is the host's, not
the input size's.  Every call goes through module attributes
(``topology.clustered_random_topology``, ``forwarding.iter_forwarding_flows``)
so the traced run can wrap them without touching the program.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, List

#: Per-scale parameters.  ``full`` is what the benchmark measures;
#: ``tiny`` exists only so the benchmark's own tests run in seconds.
E2_SCALES: Dict[str, Dict[str, object]] = {
    "full": {
        "horizon": 60.0,
        "legitimate_flows": 2000,
        "malicious_flows": 105,
        "cells": 64,
        # The tR the E2 run measures (mean legitimate cell occupancy)
        # must land in this band; at a 60 s horizon it reads ~4.8 s.
        "tr_band": (4.0, 14.0),
    },
    "tiny": {
        "horizon": 20.0,
        "legitimate_flows": 100,
        "malicious_flows": 6,
        "cells": 16,
        "tr_band": (1.0, 14.0),
    },
}

FWD_SCALES: Dict[str, Dict[str, object]] = {
    "full": {
        "regions": 4,
        "cluster_nodes": 128,
        "endpoints_per_region": 16,
        "region_flows": 220,
        "cross_flows": 24,
        "horizon": 5.0,
    },
    "tiny": {
        "regions": 4,
        "cluster_nodes": 16,
        "endpoints_per_region": 4,
        "region_flows": 12,
        "cross_flows": 4,
        "horizon": 1.0,
    },
}

#: Fixed by the forwarding input of ``bench_sharded_forwarding``.
BACKBONE_DELAY_S = 0.060
FLOW_SEED = 7
FLOW_WORKLOAD = "elephant-mice"
FLOW_KNOBS = {"rate": 60.0, "packet_rate": 60.0}
E2_PREFIX = "198.51.100.0/24"


def e2_capture(seed: int, scale: str) -> Dict[str, object]:
    """One E2 packet-level capture run; returns the call's raw figures."""
    from repro.blink import packet_level
    from repro.flows import DurationDistribution

    cfg = E2_SCALES[scale]
    started = time.perf_counter()
    report = packet_level.packet_level_experiment(
        destination_prefix=E2_PREFIX,
        horizon=cfg["horizon"],
        legitimate_flows=cfg["legitimate_flows"],
        malicious_flows=cfg["malicious_flows"],
        duration_model=DurationDistribution(median=3.0),
        seed=seed,
        cells=cfg["cells"],
        shards=1,
    )
    digest = report.report_hash
    wall = time.perf_counter() - started
    low, high = cfg["tr_band"]
    tr = report.measured_tr
    checks: List[str] = []
    if report.packets <= 0:
        checks.append("no packets observed")
    if report.malicious_flows != cfg["malicious_flows"]:
        checks.append(f"malicious flow count {report.malicious_flows}")
    if tr is None or not low <= tr <= high:
        checks.append(f"measured tR {tr} outside [{low}, {high}] s")
    return {
        "hash": digest,
        "started": started,
        "host_wall_s": wall,
        "packets": report.packets,
        "events": report.events,
        "reroutes": report.reroutes,
        "measured_tr_s": tr,
        "per_shard_events": [report.events],
        "check_errors": checks,
    }


def _region_pools(topology_mod, topology, cfg) -> List[List[str]]:
    """Per-island endpoint pools, skipping each island's gateway node."""
    regions = topology_mod.cluster_assignment(topology, cfg["regions"])
    pools = []
    for region in range(cfg["regions"]):
        members = sorted(n for n, r in regions.items() if r == region)
        pools.append(
            [n for n in members if not n.endswith("n0")][: cfg["endpoints_per_region"]]
        )
    return pools


def _flow_stream(forwarding_mod, pools, cfg):
    """Mostly intra-island flows plus a cross-cut trickle, streamed lazily."""
    streams = [
        forwarding_mod.iter_forwarding_flows(
            FLOW_WORKLOAD,
            pool,
            seed=FLOW_SEED + region,
            horizon=cfg["horizon"],
            flows=cfg["region_flows"],
            **FLOW_KNOBS,
        )
        for region, pool in enumerate(pools)
    ]
    everywhere = [node for pool in pools for node in pool]
    streams.append(
        forwarding_mod.iter_forwarding_flows(
            FLOW_WORKLOAD,
            everywhere,
            seed=FLOW_SEED + 97,
            horizon=cfg["horizon"],
            flows=cfg["cross_flows"],
            **FLOW_KNOBS,
        )
    )
    return itertools.chain.from_iterable(streams)


def _forwarding(seed: int, scale: str, shards: int) -> Dict[str, object]:
    from repro.netsim import forwarding, topology

    cfg = FWD_SCALES[scale]
    started = time.perf_counter()
    graph = topology.clustered_random_topology(
        cfg["regions"],
        cfg["cluster_nodes"],
        seed=seed,
        backbone_delay_s=BACKBONE_DELAY_S,
    )
    pools = _region_pools(topology, graph, cfg)
    endpoints = [node for pool in pools for node in pool]
    assignment = topology.cluster_assignment(graph, shards) if shards > 1 else None
    report = forwarding.forwarding_experiment(
        graph,
        _flow_stream(forwarding, pools, cfg),
        cfg["horizon"],
        seed=seed,
        shards=shards,
        assignment=assignment,
        adaptive_window=shards > 1,
        endpoints=endpoints,
    )
    wall = time.perf_counter() - started
    checks: List[str] = []
    if report.shards != shards:
        checks.append(f"ran on {report.shards} shards, asked for {shards}")
    if report.delivered <= 0:
        checks.append("no packets delivered")
    expected_flows = cfg["regions"] * cfg["region_flows"] + cfg["cross_flows"]
    if report.flows != expected_flows:
        checks.append(f"flow count {report.flows} != {expected_flows}")
    return {
        "hash": report.report_hash,
        "started": started,
        "host_wall_s": wall,
        "packets": report.delivered,
        "events": report.events,
        "windows": report.windows,
        "fast_forwards": report.fast_forwards,
        "boundary_packets": report.boundary_packets,
        "pipe_bytes": report.pipe_bytes,
        "per_shard_events": list(report.per_shard_events),
        "check_errors": checks,
    }


def fwd_1shard(seed: int, scale: str) -> Dict[str, object]:
    """The sparse-cut forwarding input on one ``Network``."""
    return _forwarding(seed, scale, shards=1)


def fwd_2shard(seed: int, scale: str) -> Dict[str, object]:
    """The identical input forked into two shards along the island seams."""
    return _forwarding(seed, scale, shards=2)


WORKLOADS: Dict[str, Callable[[int, str], Dict[str, object]]] = {
    "e2_capture": e2_capture,
    "fwd_1shard": fwd_1shard,
    "fwd_2shard": fwd_2shard,
}

#: The workloads whose call runs in one process, pinned to one CPU.
ONE_PROCESS = frozenset({"e2_capture", "fwd_1shard"})

#: What each workload's call imports, loaded before the calls are forked.
ENTRY_MODULES: Dict[str, tuple] = {
    "e2_capture": ("repro.blink.packet_level", "repro.flows"),
    "fwd_1shard": ("repro.netsim.forwarding", "repro.netsim.topology"),
    "fwd_2shard": ("repro.netsim.forwarding", "repro.netsim.topology"),
}
