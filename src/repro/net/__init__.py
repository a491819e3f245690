"""Network substrate: IPv4 addressing, packets, AS-level topologies, routing,
links with drop-tail queues, a deterministic discrete-event simulator and a
NumPy-vectorised fluid (flow-level) model for Internet-scale sweeps.

This package is the "Internet" the paper's traffic control service is
deployed into.  One router per autonomous system; hosts attach to stub ASes;
every router carries an optional adaptive-device hook (paper Fig. 2).
"""

from repro.net.addressing import (
    AddressAllocator,
    CompiledPrefixTable,
    HostAddressPool,
    IPv4Address,
    Prefix,
    PrefixTable,
    summarize,
)
from repro.net.packet import ICMPType, Packet, PacketBatch, Protocol, TCPFlags
from repro.net.topology import (
    ASRole,
    ASInfo,
    Topology,
    TopologyBuilder,
    parse_as_rel2,
    synthesize_as_rel2,
)
from repro.net.routing import Routing, build_routing
from repro.net.policy import PolicyRouting, Relationship
from repro.net.link import Link
from repro.net.network import LinkParams, Network
from repro.net.node import Host, Node, Router
from repro.net.simulator import Event, Simulator
from repro.net.fluid import Flow, FlowSet, FluidFilter, FluidNetwork, FluidResult
from repro.net.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.net.trace import PacketRecord, TraceRecorder

__all__ = [
    "IPv4Address",
    "Prefix",
    "PrefixTable",
    "CompiledPrefixTable",
    "AddressAllocator",
    "HostAddressPool",
    "summarize",
    "Network",
    "LinkParams",
    "Packet",
    "PacketBatch",
    "Protocol",
    "TCPFlags",
    "ICMPType",
    "ASRole",
    "ASInfo",
    "Topology",
    "TopologyBuilder",
    "parse_as_rel2",
    "synthesize_as_rel2",
    "Routing",
    "build_routing",
    "PolicyRouting",
    "Relationship",
    "Link",
    "Node",
    "Host",
    "Router",
    "Simulator",
    "Event",
    "Flow",
    "FlowSet",
    "FluidFilter",
    "FluidNetwork",
    "FluidResult",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FaultInjector",
    "PacketRecord",
    "TraceRecorder",
]
