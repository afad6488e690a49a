"""Host-time tracing for the benchmark's traced run.

Wrappers are installed from outside the program, around the public
functions and methods each layer exposes.  Two kinds of boundary:

* **counters** — per-packet boundaries (``observe``, ``feed``,
  ``lookup``, ``transmit`` ...): calls, total time and time spent in
  nested traced boundaries, aggregated in memory;
* **spans** — coarse boundaries (setup phases, ``run_until``, each
  sharded window barrier): one record each, with a parent id, so the
  call tree can be rebuilt.

Every boundary sits on one stack, so a boundary's *self* time is its
total minus the time of the traced boundaries nested in it, and the
self times of all boundaries plus the untraced remainder of the root
span add up to the root span's wall time exactly.

Nothing is written while the workload runs; :meth:`Ledger.summary` is
called once at the end.  Forked shard workers inherit the wrappers but
switch them off at fork, so only the coordinator process is measured.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Layer of a boundary = the text before its first dot.  Order is the
#: order layers are reported in.
LAYERS = (
    "flows",
    "events",
    "trace",
    "blink",
    "topology",
    "routing",
    "link",
    "network",
    "workloads",
    "kernels",
    "forwarding",
)

ROOT = "bench.call"


class Ledger:
    """In-memory spans and per-boundary counters of one traced call."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, child_s]
        self.counts: Dict[str, float] = {}
        self.spans: List[Dict[str, object]] = []
        self.missing: List[str] = []
        self.enabled = True
        self._frames: List[List[float]] = []  # per open boundary: [child_s]
        self._open_spans: List[int] = []
        self._origin = _perf()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool = False,
        on_exit: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` timed as boundary ``name`` (a span when ``span``)."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        ledger = self

        def traced(*args, **kwargs):
            if not ledger.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            span_id = ledger._open(name) if span else None
            frames.append(frame)
            started = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - started
                frames.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span_id is not None:
                    ledger._close(span_id, started, elapsed)
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator whose every step is timed as ``name``."""
        ledger = self

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            step = ledger.wrap(name, iterator.__next__)

            def stream():
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    ledger.count(name + ".items")
                    yield item

            return stream()

        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._open_spans.append(span_id)
        return span_id

    def _close(self, span_id: int, started: float, elapsed: float) -> None:
        record = self.spans[span_id]
        record["start_s"] = started - self._origin
        record["end_s"] = started - self._origin + elapsed
        self._open_spans.pop()

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with its traced form; note it if absent."""
        target = getattr(owner, attr, None)
        if target is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, target, **options))

    def root(self, fn: Callable) -> Callable:
        return self.wrap(ROOT, fn, span=True)

    # -- results -----------------------------------------------------

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0])[0])

    def self_time(self, name: str) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer; ``unattributed`` is the root's own time."""
        layers = {layer: 0.0 for layer in LAYERS}
        for name in self.stats:
            if name == ROOT:
                continue
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_time(name)
        layers["unattributed"] = self.self_time(ROOT)
        return layers

    def summary(self) -> Dict[str, object]:
        return {
            "boundaries": {
                name: {"calls": int(c), "total_s": t, "child_s": ch, "self_s": t - ch}
                for name, (c, t, ch) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": self.spans,
            "layer_self_s": self.layer_self_times(),
            "root_s": self.total(ROOT),
            "missing": self.missing,
        }


def install(ledger: Ledger) -> None:
    """Wrap every traced boundary of the program (coordinator side).

    The Blink modules are wrapped only when the workload imported them,
    so a forwarding call does not pay for importing ``scipy`` here.
    """
    from multiprocessing import connection

    from repro import kernels
    from repro.flows import generators
    from repro.netsim import events, forwarding, link, network, routing, topology, trace

    if "repro.blink.packet_level" in sys.modules:
        from repro.blink import packet_level, pipeline, selector

        # repro.flows: E2 spec generation (setup) and flow scheduling.
        for attr in ("steady_state_flow_schedule", "malicious_flow_schedule"):
            ledger.patch(packet_level, attr, "flows.specs", span=True)
        ledger.patch(packet_level, "schedule_workload", "flows.schedule_workload", span=True)
        # repro.blink: the E2 per-packet path.
        ledger.patch(pipeline.TraceReplaySession, "feed", "blink.feed")
        ledger.patch(pipeline.TraceReplaySession, "finish", "blink.finish", span=True)
        ledger.patch(selector.FlowSelector, "retransmitting_count", "blink.retx_count")
    ledger.patch(generators, "flow_packet_schedule", "flows.packet_schedule")

    # repro.netsim.events
    ledger.patch(events.EventLoop, "run_until", "events.run_until", span=True)
    ledger.patch(events.EventLoop, "schedule_batch_at", "events.batch")

    # repro.netsim.trace
    ledger.patch(trace.StreamingTraceAggregator, "observe", "trace.observe")

    # repro.netsim.topology
    for attr in ("clustered_random_topology", "cluster_assignment"):
        ledger.patch(topology, attr, "topology.build", span=True)
    ledger.patch(topology.Topology, "node_properties", "topology.node_props")

    # repro.netsim.routing
    ledger.patch(routing.StaticRouter, "compute", "routing.compute", span=True)
    ledger.patch(routing.RoutingTable, "lookup", "routing.lookup")

    # repro.netsim.link: drops and the deepest queue seen at transmit.
    def after_transmit(args, accepted):
        if accepted is False:
            ledger.count("link.drops")
        ledger.peak("link.max_queue", args[0].queue_depth)

    def after_remote(args, arrival):
        if arrival is None:
            ledger.count("link.drops")

    ledger.patch(link.Link, "transmit", "link.transmit", on_exit=after_transmit)
    ledger.patch(link.Link, "transmit_remote", "link.remote", on_exit=after_remote)

    # repro.netsim.network: per-hop forwarding and network construction.
    ledger.patch(network.Network, "__init__", "network.build", span=True)
    ledger.patch(network.Network, "_forward", "network.forward")

    # repro.workloads: time inside the lazily consumed flow streams.
    original = getattr(forwarding, "iter_forwarding_flows", None)
    if original is None:
        ledger.missing.append("forwarding.iter_forwarding_flows")
    else:
        forwarding.iter_forwarding_flows = ledger.wrap_iter("workloads.flowgen", original)

    # repro.kernels: the memoised backend shadows its methods per
    # instance, so the instance attributes are what must be wrapped.
    backend = kernels.get_backend()

    def after_pack(args, payload):
        ledger.count("kernels.codec_bytes", len(payload))

    def after_unpack(args, columns):
        ledger.count("kernels.codec_bytes", len(args[0]))

    ledger.patch(backend, "soa_pack_f64", "kernels.codec", on_exit=after_pack)
    ledger.patch(backend, "soa_unpack_f64", "kernels.codec", on_exit=after_unpack)
    ledger.patch(backend, "soa_sort_pack_f64", "kernels.hash")

    # repro.netsim.forwarding: setup, fork, window barriers, IPC.
    sim = forwarding.ShardedForwardingSim
    ledger.patch(forwarding, "forwarding_experiment", "forwarding.experiment", span=True)
    ledger.patch(sim, "__init__", "forwarding.shard_build", span=True)
    ledger.patch(sim, "_start_workers", "forwarding.fork", span=True)
    ledger.patch(sim, "_advance_all", "forwarding.window", span=True)
    ledger.patch(sim, "_finish", "forwarding.finish", span=True)
    ledger.patch(connection.Connection, "poll", "forwarding.barrier_wait")
    ledger.patch(connection.Connection, "recv", "forwarding.barrier_wait")
    ledger.patch(connection.Connection, "send", "forwarding.ipc_send")


def layer_metrics(ledger: Ledger, figures: Dict[str, object]) -> Dict[str, float]:
    """The per-layer metrics of one traced call.

    ``figures`` is the workload's own result (packets, events, report
    counters).  Ratios: ``blink.retx_count_per_pkt`` is per packet
    observed; ``forwarding.shard_imbalance`` is max over mean of the
    per-shard event counts.
    """
    packets = figures["packets"]
    per_shard = figures["per_shard_events"]
    mean_events = sum(per_shard) / len(per_shard)
    retx_calls = ledger.calls("blink.retx_count")
    metrics = {
        "flows.specs_s": ledger.total("flows.specs"),
        "flows.schedule_calls": ledger.calls("flows.packet_schedule"),
        "flows.schedule_s": ledger.total("flows.packet_schedule"),
        "events.dispatched": figures["events"],
        "events.run_self_s": ledger.self_time("events.run_until"),
        "events.batch_calls": ledger.calls("events.batch"),
        "events.batch_s": ledger.total("events.batch"),
        "trace.observe_calls": ledger.calls("trace.observe"),
        "trace.observe_self_s": ledger.self_time("trace.observe"),
        "blink.feed_calls": ledger.calls("blink.feed"),
        "blink.feed_self_s": ledger.self_time("blink.feed"),
        "blink.retx_count_calls": retx_calls,
        "blink.retx_count_s": ledger.total("blink.retx_count"),
        "blink.reroutes": figures.get("reroutes", 0),
        "blink.retx_count_per_pkt": retx_calls / packets if packets else 0.0,
        "topology.build_s": ledger.total("topology.build"),
        "topology.node_props_calls": ledger.calls("topology.node_props"),
        "topology.node_props_s": ledger.total("topology.node_props"),
        "routing.compute_s": ledger.total("routing.compute"),
        "routing.lookup_calls": ledger.calls("routing.lookup"),
        "routing.lookup_s": ledger.total("routing.lookup"),
        "link.transmit_calls": ledger.calls("link.transmit"),
        "link.transmit_s": ledger.total("link.transmit"),
        "link.remote_calls": ledger.calls("link.remote"),
        "link.drops": ledger.counts.get("link.drops", 0),
        "link.max_queue": ledger.counts.get("link.max_queue", 0),
        "network.build_s": ledger.total("network.build"),
        "network.forward_calls": ledger.calls("network.forward"),
        "network.forward_self_s": ledger.self_time("network.forward"),
        "workloads.flows": ledger.counts.get("workloads.flowgen.items", 0),
        "workloads.flowgen_s": ledger.total("workloads.flowgen"),
        "kernels.codec_calls": ledger.calls("kernels.codec"),
        "kernels.codec_bytes": ledger.counts.get("kernels.codec_bytes", 0),
        "kernels.codec_s": ledger.total("kernels.codec"),
        "kernels.hash_s": ledger.total("kernels.hash"),
        "forwarding.windows": figures.get("windows", 0),
        "forwarding.fast_forwards": figures.get("fast_forwards", 0),
        "forwarding.boundary_packets": figures.get("boundary_packets", 0),
        "forwarding.pipe_bytes": figures.get("pipe_bytes", 0),
        "forwarding.barrier_wait_s": ledger.total("forwarding.barrier_wait"),
        "forwarding.ipc_send_s": ledger.total("forwarding.ipc_send"),
        "forwarding.shard_imbalance": (
            max(per_shard) / mean_events if mean_events else 0.0
        ),
    }
    for layer, seconds in ledger.layer_self_times().items():
        metrics[f"{layer}.layer_self_s"] = seconds
    return metrics
