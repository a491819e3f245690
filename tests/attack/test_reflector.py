"""Tests for the reflector attack engine (packet-level and fluid)."""

import numpy as np
import pytest

from repro.attack import ReflectorAttack, reflector_responder
from repro.attack.reflector import ReflectorFluidModel
from repro.errors import AttackConfigError
from repro.net import (
    FluidNetwork,
    ICMPType,
    Network,
    Packet,
    Protocol,
    TopologyBuilder,
)


def build_net():
    return Network(TopologyBuilder.hierarchical(2, 2, 4, seed=2))


class TestResponder:
    def _host(self):
        net = build_net()
        return net, net.add_host(net.topology.stub_ases[0])

    def test_synack_mode(self):
        net, h = self._host()
        respond = reflector_responder(mode="synack")
        syn = Packet.tcp_syn(h.address, h.address)
        (reply,) = respond(syn, h, 0.0)
        assert reply.flags.is_synack
        assert reply.src == h.address
        assert reply.kind == "attack-reflected"
        assert not reply.spoofed  # the reflector's real address!

    def test_synack_ignores_non_syn(self):
        net, h = self._host()
        respond = reflector_responder(mode="synack")
        assert respond(Packet.udp(h.address, h.address), h, 0.0) is None

    def test_rst_mode(self):
        net, h = self._host()
        respond = reflector_responder(mode="rst")
        ack = Packet(src=h.address, dst=h.address, proto=Protocol.TCP)
        (reply,) = respond(ack, h, 0.0)
        assert reply.proto is Protocol.TCP

    def test_icmp_mode(self):
        net, h = self._host()
        respond = reflector_responder(mode="icmp")
        (reply,) = respond(Packet.udp(h.address, h.address), h, 0.0)
        assert reply.icmp_type is ICMPType.HOST_UNREACHABLE

    def test_dns_amplification(self):
        net, h = self._host()
        respond = reflector_responder(amplification=10.0, mode="dns")
        query = Packet.udp(h.address, h.address, size=60)
        (reply,) = respond(query, h, 0.0)
        assert reply.size == 600

    def test_no_reflection_loops(self):
        net, h = self._host()
        respond = reflector_responder(mode="dns")
        reflected = Packet.udp(h.address, h.address, kind="attack-reflected")
        assert respond(reflected, h, 0.0) is None

    def test_unknown_mode(self):
        with pytest.raises(AttackConfigError):
            reflector_responder(mode="wat")


class TestReflectorAttack:
    def _scenario(self, mode="synack", amplification=1.0):
        net = build_net()
        stubs = net.topology.stub_ases
        victim = net.add_host(stubs[0], record=True)
        agents = [net.add_host(a) for a in stubs[1:3]]
        reflectors = [net.add_host(a) for a in stubs[3:6]]
        attack = ReflectorAttack(net, agents, reflectors, victim,
                                 rate_pps=40.0, duration=0.5, mode=mode,
                                 amplification=amplification, seed=5)
        return net, victim, agents, reflectors, attack

    def test_victim_receives_from_reflectors_only(self):
        net, victim, agents, reflectors, attack = self._scenario()
        attack.launch()
        net.run()
        reflector_addrs = {int(r.address) for r in reflectors}
        agent_addrs = {int(a.address) for a in agents}
        srcs = {int(p.src) for _, p in victim.log}
        assert srcs <= reflector_addrs
        assert not (srcs & agent_addrs)
        assert victim.received_by_kind["attack-reflected"] > 0

    def test_sources_at_victim_are_unspoofed(self):
        """The paper's central point: the victim sees legitimate sources."""
        net, victim, *_, attack = self._scenario()
        attack.launch()
        net.run()
        assert all(not p.spoofed for _, p in victim.log)
        # yet ground truth shows reflectors, not the real agents
        assert all(p.true_origin.startswith("host-") for _, p in victim.log)

    def test_dns_mode_amplifies_bytes(self):
        net, victim, agents, _, attack = self._scenario(mode="dns", amplification=5.0)
        gens = attack.launch()
        net.run()
        request_bytes = sum(g.sent for g in gens) * attack.request_size
        assert victim.received_bytes_by_kind["attack-reflected"] == pytest.approx(
            5.0 * request_bytes, rel=0.05)

    def test_needs_reflectors(self):
        net, victim, agents, _, attack = self._scenario()
        attack.reflectors = []
        with pytest.raises(AttackConfigError):
            attack.launch()


class TestReflectorFluidModel:
    def _model(self, amplification=2.0):
        topo = TopologyBuilder.hierarchical(2, 2, 4, seed=3)
        fluid = FluidNetwork(topo)
        stubs = topo.stub_ases
        return fluid, ReflectorFluidModel(
            fluid, victim_asn=stubs[0], agent_asns=stubs[1:4],
            reflector_asns=stubs[4:7], rate_per_agent=1e6,
            amplification=amplification,
        )

    def test_request_flows_spray_evenly(self):
        fluid, model = self._model()
        flows = model.request_flows()
        assert len(flows) == 9
        assert all(f.rate == pytest.approx(1e6 / 3) for f in flows)
        assert all(f.claimed_src_asn == model.victim_asn for f in flows)
        assert all(f.spoofed for f in flows)

    def test_unfiltered_amplified_delivery(self):
        fluid, model = self._model(amplification=2.0)
        req, second = model.evaluate()
        assert req.delivered_rate() == pytest.approx(3e6)
        assert model.victim_attack_rate() == pytest.approx(6e6)

    def test_filtering_requests_reduces_reflection(self):
        fluid, model = self._model(amplification=2.0)

        class DropSpoofedAtSource:
            def pass_fractions(self, hops, sel):
                return np.array([0.0 if (hops.pos[h] == 0
                                         and hops.flows[hops.flow[h]].spoofed)
                                 else 1.0 for h in sel])

        assert model.victim_attack_rate(filters=[DropSpoofedAtSource()]) == 0.0

    def test_extra_flows_ride_second_pass(self):
        fluid, model = self._model()
        from repro.net import Flow

        legit = Flow(model.agent_asns[0], model.victim_asn, 5e5, kind="legit")
        _, second = model.evaluate(extra_flows=[legit])
        assert second.delivered_rate("legit") == pytest.approx(5e5)

    def test_needs_reflectors(self):
        fluid, model = self._model()
        with pytest.raises(AttackConfigError):
            ReflectorFluidModel(fluid, 0, [1], [], 1e6)
