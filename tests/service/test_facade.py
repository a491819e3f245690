"""Tests for the live service facade and traffic controller."""

import pytest

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import (
    BURST_BYTES,
    HeaderFilter,
    HeaderMatch,
    PrefixBlacklist,
    RateLimiterComponent,
)
from repro.errors import AddressError, OwnershipError
from repro.net import IPv4Address, Prefix, Protocol, Simulator, addressing
from repro.service import ManualClock, ServiceFacade, TrafficController
from repro.service.core import FLOW_CACHE_CAPACITY
from repro.service.facade import DROP_ADMISSION, PASS_DIRECT, Verdict
from repro.util import TokenBucket

SIZE = int(BURST_BYTES)  # one packet this size drains a rate limiter's bucket

A = IPv4Address.parse


def blacklist_graph(prefix="203.0.113.0/24", name="blk"):
    g = ComponentGraph(name)
    g.chain(PrefixBlacklist("b", [Prefix.parse(prefix)]))
    return g


def make_facade(**kwargs):
    facade = ServiceFacade(clock=ManualClock(), **kwargs)
    user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
    facade.subscribe(user, dst_graph=blacklist_graph())
    return facade, user


class TestCheck:
    def test_unowned_flow_returns_the_shared_direct_verdict(self):
        facade, _ = make_facade()
        verdict = facade.check("172.16.0.1", "172.16.9.9")
        assert verdict is PASS_DIRECT
        assert verdict.allowed and not verdict.redirected
        assert verdict.action == "pass"

    def test_owned_clean_flow_is_processed_and_passes(self):
        facade, _ = make_facade()
        verdict = facade.check("198.51.100.7", "10.1.0.5")
        assert verdict.allowed and verdict.redirected
        assert verdict.reason == "processed"
        assert verdict.dst_owner == "acme"
        assert verdict.src_owner is None

    def test_owned_blacklisted_flow_is_filtered(self):
        facade, _ = make_facade()
        verdict = facade.check("203.0.113.9", "10.1.0.5")
        assert not verdict.allowed and verdict.redirected
        assert verdict.reason == "filtered"
        assert verdict.action == "drop"

    def test_address_coercion_int_str_and_object_agree(self):
        facade, _ = make_facade()
        as_str = facade.check("203.0.113.9", "10.1.0.5")
        as_int = facade.check(int(A("203.0.113.9")), int(A("10.1.0.5")))
        as_obj = facade.check(A("203.0.113.9"), A("10.1.0.5"))
        assert as_str.reason == as_int.reason == as_obj.reason == "filtered"

    def test_counters_track_verdicts(self):
        facade, _ = make_facade()
        facade.check("172.16.0.1", "172.16.9.9")   # direct
        facade.check("198.51.100.7", "10.1.0.5")   # processed
        facade.check("203.0.113.9", "10.1.0.5")    # filtered
        assert facade._m_pass.value == 2
        assert facade._m_drop.value == 1
        assert facade._m_redirected.value == 2


    def test_out_of_range_address_raises_and_is_not_cached(self):
        facade, _ = make_facade()
        top = NetworkUser("top", prefixes=[Prefix.parse("255.255.255.0/24")])
        facade.subscribe(top, dst_graph=blacklist_graph(name="top"))
        facade.check("198.51.100.7", "10.1.0.5")
        cached = len(facade.core.flow_cache)
        for dst in (-1, 2**32, 2**32 + int(A("10.1.0.5"))):
            # used to run the pipeline of whoever owns the wrapped address
            with pytest.raises(AddressError, match="address out of range"):
                facade.check(1, dst)
        assert len(facade.core.flow_cache) == cached


class TestSharedVerdicts:
    """Owned checks share one verdict per (allowed, src owner, dst owner)."""

    def test_owned_verdicts_equal_freshly_built_ones(self):
        facade, _ = make_facade()
        assert facade.check("198.51.100.7", "10.1.0.5") == Verdict(
            allowed=True, redirected=True, reason="processed",
            src_owner=None, dst_owner="acme")
        assert facade.check("203.0.113.9", "10.1.0.5") == Verdict(
            allowed=False, redirected=True, reason="filtered",
            src_owner=None, dst_owner="acme")

    def test_same_outcome_and_owners_share_one_object(self):
        facade, _ = make_facade()
        first = facade.check("198.51.100.7", "10.1.0.5")
        assert facade.check("198.51.100.8", "10.1.0.6", dport=443) is first
        dropped = facade.check("203.0.113.9", "10.1.0.5")
        assert facade.check("203.0.113.10", "10.1.9.9") is dropped
        assert dropped is not first

    def test_swap_from_filtered_to_processed(self):
        facade, _ = make_facade()
        assert facade.check("203.0.113.9", "10.1.0.5").reason == "filtered"
        facade.swap_policy("acme", dst_graph=blacklist_graph("192.0.2.0/24"))
        verdict = facade.check("203.0.113.9", "10.1.0.5")
        assert verdict.reason == "processed" and verdict.allowed

    def test_graph_mutated_after_install_waits_for_swap_policy(self):
        facade, _ = make_facade()
        graph = facade.core.services["acme"].dst_graph
        graph.add(PrefixBlacklist("more", [Prefix.parse("198.51.100.0/24")]))
        graph.connect("b", "more")
        assert facade.check("198.51.100.7", "10.1.0.5").reason == "processed"
        facade.swap_policy("acme", dst_graph=graph)
        assert facade.check("198.51.100.7", "10.1.0.5").reason == "filtered"

    def test_table_is_bounded_by_the_flow_cache_capacity(self):
        facade = ServiceFacade(clock=ManualClock())
        n = 65  # 65 * 65 owner pairs > FLOW_CACHE_CAPACITY
        assert n * n > FLOW_CACHE_CAPACITY
        base = int(A("10.0.0.0"))
        for i in range(n):
            user = NetworkUser(f"u{i}", prefixes=[Prefix(base | i << 16, 16)])
            facade.subscribe(user, dst_graph=blacklist_graph(name=f"g{i}"))
        for i in range(n):
            for j in range(n):
                verdict = facade.check(base + 1 | i << 16, base + 1 | j << 16)
                assert (verdict.src_owner, verdict.dst_owner) == (f"u{i}", f"u{j}")
                assert len(facade._verdicts) <= FLOW_CACHE_CAPACITY
        assert len(facade._verdicts) == n * n - FLOW_CACHE_CAPACITY


class TestLiveReconfiguration:
    """Regression: management actions must invalidate cached verdicts.

    A flow whose redirect verdict is already cached would otherwise keep
    being filtered after ``set_active(False)`` (or keep bypassing a fresh
    install after ``uninstall``) for as long as the LRU held the entry.
    """

    def test_set_active_false_clears_cached_redirect_verdicts(self):
        facade, _ = make_facade()
        assert facade.check("203.0.113.9", "10.1.0.5").reason == "filtered"
        facade.set_active("acme", False)
        verdict = facade.check("203.0.113.9", "10.1.0.5")
        assert verdict is PASS_DIRECT

    def test_reactivation_restores_filtering(self):
        facade, _ = make_facade()
        facade.set_active("acme", False)
        assert facade.check("203.0.113.9", "10.1.0.5") is PASS_DIRECT
        facade.set_active("acme", True)
        assert facade.check("203.0.113.9", "10.1.0.5").reason == "filtered"

    def test_uninstall_clears_cached_redirect_verdicts(self):
        facade, _ = make_facade()
        assert facade.check("203.0.113.9", "10.1.0.5").reason == "filtered"
        assert facade.uninstall("acme")
        assert facade.check("203.0.113.9", "10.1.0.5") is PASS_DIRECT

    def test_reinstall_after_uninstall_filters_again(self):
        facade, user = make_facade()
        facade.uninstall("acme")
        assert facade.check("203.0.113.9", "10.1.0.5") is PASS_DIRECT
        facade.install(user, dst_graph=blacklist_graph(name="blk2"))
        assert facade.check("203.0.113.9", "10.1.0.5").reason == "filtered"


class TestFlowCacheFlushes:
    """The flow cache is flushed exactly when a cached redirect decision
    could go stale."""

    def test_set_active_with_the_same_flag_keeps_the_cache(self):
        facade, _ = make_facade()
        facade.check("203.0.113.9", "10.1.0.5")
        generation = facade.core.generation
        facade.set_active("acme", True)
        assert len(facade.core.flow_cache) == 1
        assert facade.core.generation == generation

    def test_a_flip_uninstall_and_registry_change_empty_it(self):
        facade, user = make_facade()
        other = NetworkUser("globex", prefixes=[Prefix.parse("10.2.0.0/16")])
        flushes = [
            lambda: facade.set_active("acme", False),
            lambda: facade.set_active("acme", True),
            lambda: facade.uninstall("acme"),
            lambda: facade.registry.register(other),
        ]
        for flush in flushes:
            facade.check("203.0.113.9", "10.1.0.5")
            assert len(facade.core.flow_cache) == 1
            flush()
            # the next probe finds the cache cleared: the same flow misses
            misses = facade.core.m_fc_misses.value
            facade.check("203.0.113.9", "10.1.0.5")
            assert facade.core.m_fc_misses.value == misses + 1
            assert len(facade.core.flow_cache) == 1

    def test_dotted_quad_and_int_keys_agree(self):
        facade, _ = make_facade()
        pairs = [("203.0.113.9", "10.1.0.5"), ("198.51.100.7", "10.1.0.5"),
                 ("172.16.0.1", "172.16.9.9"), ("10.1.0.9", "203.0.113.1")]
        for src, dst in pairs * 2:  # the second round hits the cache
            assert facade.check(src, dst) is facade.check(
                int(A(src)), int(A(dst)))
        assert facade.core.m_fc_misses.value == 2 * len(pairs)

    @pytest.mark.parametrize("bad", ["10.1.0", "10.1.0.256", "::1",
                                     "::ffff:10.1.0.5", "2001:db8::7", ""])
    def test_malformed_or_ipv6_string_raises_without_a_trace(self, bad):
        facade, _ = make_facade()
        facade.check("198.51.100.7", "10.1.0.5")
        cached = len(facade.core.flow_cache)
        misses = facade.core.m_fc_misses.value
        for src, dst in ((bad, "10.1.0.5"), ("198.51.100.7", bad)):
            with pytest.raises(AddressError):
                facade.check(src, dst)
        assert len(facade.core.flow_cache) == cached
        assert facade.core.m_fc_misses.value == misses


class TestAddressParsing:
    def test_owned_hit_parses_nothing_and_a_miss_each_address_once(
            self, monkeypatch):
        """The miss that caches a flow parses its two dotted quads; the
        entry holds them as ints, so an owned hit builds its packet from
        those and parses nothing."""
        facade, _ = make_facade()
        parsed, parse = [], addressing._parse_quad

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(addressing, "_parse_quad", counting_parse)
        verdict = facade.check("198.51.100.7", "10.1.0.5")
        assert verdict.redirected and verdict.dst_owner == "acme"
        assert parsed == ["198.51.100.7", "10.1.0.5"]
        parsed.clear()
        assert facade.check("198.51.100.7", "10.1.0.5") is verdict
        assert parsed == []


class TestClockSeam:
    def test_injected_clock_drives_time_dependent_components(self):
        """A rate limiter inside the pipeline sees facade-clock time: the
        same flow passes or drops depending only on advanced time."""
        clock = ManualClock()
        facade = ServiceFacade(clock=clock)
        user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        g = ComponentGraph("rl")
        g.chain(RateLimiterComponent("limit", rate_bps=8 * BURST_BYTES))
        facade.subscribe(user, dst_graph=g)
        assert facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed
        # bucket empty, no time has passed
        assert not facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed
        clock.advance(1.0)  # refills a whole burst
        assert facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed

    def test_sim_clock_drives_the_same_facade(self):
        sim = Simulator()
        facade = ServiceFacade(clock=sim.clock)
        user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        g = ComponentGraph("rl")
        g.chain(RateLimiterComponent("limit", rate_bps=8 * BURST_BYTES))
        facade.subscribe(user, dst_graph=g)
        assert facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed
        assert not facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed
        sim.schedule(1.0, int)
        sim.run()
        assert facade.check("172.16.0.1", "10.1.0.5", size=SIZE).allowed

    def test_explicit_now_overrides_the_clock(self):
        facade, _ = make_facade()
        # no exception, verdict computed at the caller's timestamp
        assert facade.check("198.51.100.7", "10.1.0.5", now=123.0).allowed


class TestSubscribe:
    def test_subscribe_registers_ownership_once(self):
        facade = ServiceFacade()
        user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        facade.subscribe(user, dst_graph=blacklist_graph())
        facade.subscribe(user, src_graph=blacklist_graph(name="blk2"))
        assert len(facade.registry) == 1
        assert facade.core.services["acme"].src_graph is not None

    def test_existing_registry_is_respected(self):
        registry = OwnershipRegistry()
        user = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        registry.register(user)
        facade = ServiceFacade(registry)
        facade.subscribe(user, dst_graph=blacklist_graph())
        assert len(registry) == 1

    def test_resubscribe_keeps_registry_version_and_installs_graph(self):
        facade, user = make_facade()
        version = facade.registry.version
        graph = blacklist_graph("198.51.100.0/24", name="blk2")
        facade.subscribe(user, dst_graph=graph)
        assert facade.registry.version == version
        assert facade.core.services["acme"].dst_graph is graph
        assert not facade.check("198.51.100.7", "10.1.0.5").allowed

    def test_resubscribe_with_a_new_prefix_registers_it(self):
        facade = ServiceFacade(clock=ManualClock())
        first = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")])
        g = ComponentGraph("udp")
        g.chain(HeaderFilter("udp", HeaderMatch(proto=Protocol.UDP)))
        facade.subscribe(first, dst_graph=g)
        grown = NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16"),
                                              Prefix.parse("10.2.0.0/16")])
        facade.subscribe(grown, dst_graph=g)
        assert facade.registry.owner_of("10.2.0.5").user_id == "acme"
        verdict = facade.check("192.0.2.1", "10.2.0.5", proto=Protocol.UDP)
        assert verdict.reason == "filtered" and verdict.dst_owner == "acme"

    def test_new_user_on_a_taken_prefix_is_rejected(self):
        facade, _ = make_facade()
        intruder = NetworkUser("mallory", prefixes=[Prefix.parse("10.1.0.0/16")])
        with pytest.raises(OwnershipError):
            facade.subscribe(intruder, dst_graph=blacklist_graph())
        assert "mallory" not in facade.registry
        assert "mallory" not in facade.core.services

    def test_registry_membership_by_user_id(self):
        facade, _ = make_facade()
        assert "acme" in facade.registry
        assert "mallory" not in facade.registry

    def test_unsubscribe_returns_the_prefixes_to_the_direct_path(self):
        facade, _ = make_facade()
        assert not facade.check("203.0.113.9", "10.1.0.5").allowed
        generation = facade.core.generation
        facade.unsubscribe("acme")
        assert facade.check("203.0.113.9", "10.1.0.5") is PASS_DIRECT
        assert "acme" not in facade.registry
        assert "acme" not in facade.core.services
        assert facade.core.generation > generation
        assert facade._m_policy_generation.value == facade.core.generation
        with pytest.raises(OwnershipError):
            facade.unsubscribe("acme")


class TestTrafficController:
    def make_controller(self, admission=None):
        facade, _ = make_facade()
        return TrafficController(facade, "10.1.0.5", admission=admission)

    def test_allow_checks_client_against_service_address(self):
        controller = self.make_controller()
        assert controller.allow("198.51.100.7").reason == "processed"
        assert controller.allow("203.0.113.9").reason == "filtered"

    def test_admission_bucket_rejects_before_ownership(self):
        controller = self.make_controller(
            admission=TokenBucket(rate=0.0, burst=1.0))
        assert controller.allow("198.51.100.7").allowed
        verdict = controller.allow("198.51.100.7")
        assert verdict is DROP_ADMISSION
        assert verdict.reason == "admission"
        assert controller._m_admission_rejected.value == 1

    def test_admission_refills_with_facade_time(self):
        facade, _ = make_facade()
        clock = facade.clock
        controller = TrafficController(
            facade, "10.1.0.5", admission=TokenBucket(rate=1.0, burst=1.0))
        assert controller.allow("198.51.100.7").allowed
        assert not controller.allow("198.51.100.7").allowed
        clock.advance(1.0)
        assert controller.allow("198.51.100.7").allowed

    def test_dst_override(self):
        controller = self.make_controller()
        verdict = controller.allow("172.16.0.1", dst="172.16.9.9")
        assert verdict is PASS_DIRECT
