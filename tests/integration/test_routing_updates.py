"""Tests for dynamic topology changes and the Sec. 4.2 routing-update
handling of adaptive devices."""

import pytest

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderFilter, HeaderMatch, SourceAntiSpoof
from repro.core.device import attach_device
from repro.errors import TopologyError
from repro.net import Network, Packet, Protocol, TopologyBuilder


def diamond_net():
    """0 -2- 3 and 0 -1- 3: two disjoint paths between the endpoints."""
    import networkx as nx

    from repro.net import ASRole
    from repro.net.topology import Topology

    g = nx.Graph()
    for v in (0, 3):
        g.add_node(v, role=ASRole.STUB)
    for v in (1, 2):
        g.add_node(v, role=ASRole.TRANSIT)
    g.add_edge(0, 1)
    g.add_edge(1, 3)
    g.add_edge(0, 2)
    g.add_edge(2, 3)
    return Network(Topology(g))


class TestLinkFailure:
    def test_traffic_reroutes_after_failure(self):
        net = diamond_net()
        a = net.add_host(0)
        b = net.add_host(3)
        original_path = net.path(0, 3)
        via = original_path[1]
        other = 1 if via == 2 else 2
        net.fail_link(0, via)
        assert net.path(0, 3) == [0, other, 3]
        a.send(Packet.udp(a.address, b.address))
        net.run()
        assert b.received_packets == 1
        assert net.routers[other].forwarded_packets == 1

    def test_partitioning_failure_rejected(self):
        net = Network(TopologyBuilder.line(3))
        with pytest.raises(TopologyError):
            net.fail_link(0, 1)
        # the refused failure must leave the topology intact
        assert net.topology.graph.has_edge(0, 1)

    def test_unknown_adjacency_rejected(self):
        net = diamond_net()
        with pytest.raises(TopologyError):
            net.fail_link(0, 3)

    def test_restore_link(self):
        net = diamond_net()
        original_path = net.path(0, 3)
        via = original_path[1]
        net.fail_link(0, via)
        net.restore_link(0, via)
        assert net.path(0, 3) == original_path
        with pytest.raises(TopologyError):
            net.restore_link(0, via)  # not failed any more


class TestDeviceRoutingUpdates:
    def _device_world(self, policy):
        net = diamond_net()
        registry = OwnershipRegistry()
        user = NetworkUser("acme", prefixes=[net.topology.prefix_of(3)])
        registry.register(user)
        device = attach_device(net, 0, registry)
        device.routing_update_policy = policy
        graph = ComponentGraph("svc")
        graph.chain(
            SourceAntiSpoof("as", user.prefixes),         # topology-dependent
            HeaderFilter("f", HeaderMatch(proto=Protocol.UDP, dport=9)),
        )
        device.install(user, dst_graph=graph)
        return net, device, user

    def test_adapt_policy_keeps_service_running(self):
        net, device, user = self._device_world("adapt")
        net.fail_link(0, net.path(0, 3)[1])
        assert device.routing_updates == 1
        assert device.services["acme"].active

    def test_disable_policy_pauses_topology_dependent_service(self):
        net, device, user = self._device_world("disable")
        net.fail_link(0, net.path(0, 3)[1])
        assert not device.services["acme"].active
        assert "acme" in device.pending_routing_reconfig

    def test_reconfirm_reenables(self):
        net, device, user = self._device_world("disable")
        net.fail_link(0, net.path(0, 3)[1])
        assert device.reconfirm_topology("acme") == 1
        assert device.services["acme"].active
        assert device.reconfirm_topology("acme") == 0  # idempotent

    def test_restart_forgets_parked_services(self):
        """Sec. 4.5: a restarted device holds no pre-crash per-service
        state, so a service the NMS re-installs inactive stays inactive."""
        net, device, user = self._device_world("disable")
        graph = device.services["acme"].dst_graph
        net.fail_link(0, net.path(0, 3)[1])
        assert device.pending_routing_reconfig == {"acme"}
        device.crash()
        device.restart()
        assert device.pending_routing_reconfig == set()
        device.install(user, dst_graph=graph).active = False
        assert device.reconfirm_topology() == 0
        assert not device.services["acme"].active

    def test_topology_independent_service_untouched(self):
        net = diamond_net()
        registry = OwnershipRegistry()
        user = NetworkUser("acme", prefixes=[net.topology.prefix_of(3)])
        registry.register(user)
        device = attach_device(net, 0, registry)
        device.routing_update_policy = "disable"
        graph = ComponentGraph("plain")
        graph.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP, dport=9)))
        device.install(user, dst_graph=graph)
        net.fail_link(0, net.path(0, 3)[1])
        assert device.services["acme"].active  # nothing topology-dependent

    def test_update_notifies_all_devices(self):
        net = diamond_net()
        registry = OwnershipRegistry()
        devices = [attach_device(net, asn, registry) for asn in (0, 1, 2, 3)]
        net.fail_link(0, net.path(0, 3)[1])
        assert all(d.routing_updates == 1 for d in devices)
