"""Discrete-event network simulator substrate.

Replaces the paper's mininet/P4 testbed: an event loop, packet model,
topology/link/routing layers and a packet-forwarding :class:`Network`
with MitM tap points and in-switch dataplane programs.
"""

from repro.netsim.events import Event, EventLoop
from repro.netsim.link import (
    ChainTap,
    DelayTap,
    DropTap,
    Link,
    LinkTap,
    RecordTap,
    TapVerdict,
)
from repro.netsim.network import Network
from repro.netsim.packet import (
    IcmpHeader,
    IcmpType,
    Packet,
    Protocol,
    TcpFlags,
    TcpHeader,
    flow_key,
    icmp_time_exceeded,
    tcp_packet,
)
from repro.netsim.routing import Route, RoutingTable, StaticRouter
from repro.netsim.topology import (
    LinkProperties,
    NodeProperties,
    Topology,
    cluster_assignment,
    clustered_random_topology,
    dumbbell_topology,
    fat_tree_topology,
    line_topology,
    partition_cut_edges,
    partition_lookahead,
    partition_nodes,
    partition_out_lookaheads,
    partition_weights,
    random_topology,
    scaled_random_topology,
    star_topology,
    triangle_with_hosts,
)

# NOTE: the sharded engines live in ``repro.netsim.sharded`` and
# ``repro.netsim.forwarding`` and are imported as submodules
# (``from repro.netsim.forwarding import ...``) rather than re-exported
# here: they pull in ``multiprocessing`` and the flow generators, which
# the plain simulator path never needs.
from repro.netsim.trace import (
    FlowStats,
    StreamingTraceAggregator,
    StreamingTraceCollector,
    Trace,
    TraceCollector,
    TraceRecord,
)

__all__ = [
    "ChainTap",
    "DelayTap",
    "DropTap",
    "Event",
    "EventLoop",
    "FlowStats",
    "IcmpHeader",
    "IcmpType",
    "Link",
    "LinkProperties",
    "LinkTap",
    "Network",
    "NodeProperties",
    "Packet",
    "Protocol",
    "RecordTap",
    "Route",
    "RoutingTable",
    "StaticRouter",
    "StreamingTraceAggregator",
    "StreamingTraceCollector",
    "TapVerdict",
    "TcpFlags",
    "TcpHeader",
    "Topology",
    "Trace",
    "TraceCollector",
    "TraceRecord",
    "cluster_assignment",
    "clustered_random_topology",
    "dumbbell_topology",
    "fat_tree_topology",
    "flow_key",
    "icmp_time_exceeded",
    "line_topology",
    "partition_cut_edges",
    "partition_lookahead",
    "partition_nodes",
    "partition_out_lookaheads",
    "partition_weights",
    "random_topology",
    "scaled_random_topology",
    "star_topology",
    "tcp_packet",
    "triangle_with_hosts",
]
