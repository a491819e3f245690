"""The device flow cache must be invisible except for speed.

Property-style checks that ``wants``/``process`` through the LRU flow
cache always match an uncached reference device, including across
``install``/``uninstall`` and registry ``register``/``unregister``
invalidations, plus unit tests for the counters and LRU bounds.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveDevice,
    ComponentGraph,
    DeviceContext,
    NetworkUser,
    OwnershipRegistry,
)
from repro.core.components import HeaderFilter, HeaderMatch
from repro.net import ASRole, IPv4Address, Packet, Prefix, Protocol

P = Prefix.parse
A = IPv4Address.parse


def make_device(registry=None, n_users=4):
    registry = registry or OwnershipRegistry()
    users = []
    for i in range(n_users):
        user = NetworkUser(f"user-{i}", prefixes=[Prefix((i + 1) << 16, 16)])
        registry.register(user)
        users.append(user)
    device = AdaptiveDevice(
        DeviceContext(asn=1, role=ASRole.STUB,
                      local_prefix=P("192.168.0.0/16")), registry)
    for user in users:
        graph = ComponentGraph(f"svc:{user.user_id}")
        graph.chain(HeaderFilter("drop7", HeaderMatch(proto=Protocol.TCP,
                                                      dport=7)))
        device.install(user, dst_graph=graph)
    return device, users, registry


def reference_wants(device, packet):
    """The uncached redirect decision (original slow path)."""
    src_owner, dst_owner = device.registry.owners_of_packet(packet)
    return any(o is not None and o.user_id in device.services
               for o in (src_owner, dst_owner))


addr_st = st.integers(min_value=0, max_value=(8 << 16) - 1)


class TestCacheTransparency:
    @given(pairs=st.lists(st.tuples(addr_st, addr_st, st.integers(0, 3)),
                          min_size=1, max_size=50))
    @settings(max_examples=40)
    def test_wants_matches_uncached(self, pairs):
        device, _, _ = make_device()
        for src, dst, dport in pairs:
            pkt = Packet.udp(IPv4Address(src), IPv4Address(dst), dport=dport)
            assert device.wants(pkt) == reference_wants(device, pkt)
            # and again, now guaranteed from the cache
            assert device.wants(pkt) == reference_wants(device, pkt)

    def test_repeat_flow_hits_cache(self):
        device, users, _ = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        hits_before = device.flow_cache_hits
        for _ in range(5):
            assert device.wants(pkt)
        assert device.flow_cache_hits == hits_before + 5
        assert device.flow_cache_misses == 1
        assert 0.0 < device.flow_cache_hit_rate < 1.0

    def test_distinct_dport_is_distinct_flow(self):
        device, users, _ = make_device()
        dst = IPv4Address(users[0].prefixes[0].base + 3)
        device.wants(Packet.udp(A("172.16.0.1"), dst, dport=53))
        device.wants(Packet.udp(A("172.16.0.1"), dst, dport=80))
        assert device.flow_cache_misses == 2


class TestInvalidation:
    def test_uninstall_invalidates(self):
        device, users, _ = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        device.uninstall(users[0].user_id)
        assert not device.wants(pkt)

    def test_install_invalidates(self):
        device, users, registry = make_device(n_users=2)
        outsider = NetworkUser("late", prefixes=[Prefix(5 << 16, 16)])
        registry.register(outsider)
        pkt = Packet.udp(A("172.16.0.1"), IPv4Address((5 << 16) + 9))
        assert not device.wants(pkt)  # owner registered but no service here
        graph = ComponentGraph("svc:late")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP, dport=7)))
        device.install(outsider, dst_graph=graph)
        assert device.wants(pkt)

    def test_set_active_invalidates(self):
        # regression: set_active used to leave stale cache entries behind,
        # so deactivated services kept redirecting (and vice versa)
        device, users, _ = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        device.set_active(users[0].user_id, False)
        assert not device.wants(pkt)
        device.set_active(users[0].user_id, True)
        assert device.wants(pkt)

    def test_crash_and_restart_invalidate(self):
        device, users, _ = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        device.crash()
        assert not device.wants(pkt)  # fail-open: no redirect while down
        device.restart()
        assert not device.wants(pkt)  # restart wiped the services

    def test_registry_unregister_invalidates(self):
        device, users, registry = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        registry.unregister(users[0].user_id)
        assert not device.wants(pkt)

    def test_registry_register_invalidates(self):
        device, _, registry = make_device(n_users=1)
        addr = IPv4Address((3 << 16) + 1)
        pkt = Packet.udp(A("172.16.0.1"), addr)
        assert not device.wants(pkt)
        newcomer = NetworkUser("new", prefixes=[Prefix(3 << 16, 16)])
        registry.register(newcomer)
        graph = ComponentGraph("svc:new")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP, dport=7)))
        device.install(newcomer, dst_graph=graph)
        assert device.wants(pkt)

    @given(ops=st.lists(st.sampled_from(["pkt0", "pkt1", "uninstall0",
                                         "reinstall0", "unregister1"]),
                        min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_random_op_interleavings_stay_consistent(self, ops):
        device, users, registry = make_device(n_users=2)
        graphs = {u.user_id: device.services[u.user_id].dst_graph
                  for u in users}
        packets = [
            Packet.udp(A("172.16.0.1"),
                       IPv4Address(u.prefixes[0].base + 3))
            for u in users
        ]
        for op in ops:
            if op == "pkt0" or op == "pkt1":
                pkt = packets[int(op[-1])]
                assert device.wants(pkt) == reference_wants(device, pkt)
            elif op == "uninstall0":
                device.uninstall(users[0].user_id)
            elif op == "reinstall0":
                device.install(users[0], dst_graph=graphs[users[0].user_id])
            elif op == "unregister1":
                if users[1].user_id in {u.user_id for u in registry.users}:
                    registry.unregister(users[1].user_id)
        for pkt in packets:
            assert device.wants(pkt) == reference_wants(device, pkt)


class TestProcessFastPath:
    def test_process_uses_cached_owners(self):
        device, users, _ = make_device()
        pkt = Packet.udp(A("172.16.0.1"),
                         IPv4Address(users[0].prefixes[0].base + 3))
        assert device.wants(pkt)
        out = device.process(pkt, 0.0, None)
        assert out is not None
        assert device.flow_cache_hits >= 1  # process reused the wants entry

    def test_process_drop_still_counted(self):
        device, users, _ = make_device()
        victim = IPv4Address(users[0].prefixes[0].base + 3)
        syn = Packet.tcp_syn(A("172.16.0.1"), victim, dport=7)
        assert device.process(syn, 0.0, None) is None
        assert device.dropped == 1


class TestLRUBounds:
    def test_capacity_enforced(self):
        device, users, _ = make_device()
        device._core.flow_cache_capacity = 8
        for i in range(50):
            device.wants(Packet.udp(IPv4Address(0xAC100000 + i),
                                    IPv4Address(users[0].prefixes[0].base + 3)))
        assert len(device._core.flow_cache) <= 8

    def test_lru_evicts_oldest(self):
        device, users, _ = make_device()
        device._core.flow_cache_capacity = 2
        dst = IPv4Address(users[0].prefixes[0].base + 3)
        a = Packet.udp(IPv4Address(1), dst)
        b = Packet.udp(IPv4Address(2), dst)
        c = Packet.udp(IPv4Address(3), dst)
        device.wants(a)
        device.wants(b)
        device.wants(a)  # refresh a; b is now least-recent
        device.wants(c)  # evicts b
        misses = device.flow_cache_misses
        device.wants(a)
        assert device.flow_cache_misses == misses  # a still cached
        device.wants(b)
        assert device.flow_cache_misses == misses + 1  # b was evicted
