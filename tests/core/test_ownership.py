"""Tests for traffic ownership and the number authority."""

import pytest

from repro.core import NetworkUser, NumberAuthority, OwnershipRegistry
from repro.errors import OwnershipError
from repro.net import IPv4Address, Packet, Prefix

P = Prefix.parse
A = IPv4Address.parse


class TestNetworkUser:
    def test_owns_address(self):
        u = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])
        assert u.owns_address("10.1.2.3")
        assert not u.owns_address("10.2.0.0")


class TestNumberAuthority:
    def test_record_and_verify(self):
        na = NumberAuthority()
        na.record_allocation(P("10.1.0.0/16"), "acme")
        assert na.verify_ownership("acme", [P("10.1.0.0/16")])
        assert not na.verify_ownership("evil", [P("10.1.0.0/16")])

    def test_covering_allocation_verifies_subprefix(self):
        na = NumberAuthority()
        na.record_allocation(P("10.0.0.0/8"), "acme")
        assert na.verify_ownership("acme", [P("10.5.0.0/16")])

    def test_unallocated_prefix_fails(self):
        na = NumberAuthority()
        assert not na.verify_ownership("acme", [P("10.0.0.0/8")])

    def test_partial_claims_fail(self):
        na = NumberAuthority()
        na.record_allocation(P("10.1.0.0/16"), "acme")
        assert not na.verify_ownership("acme", [P("10.1.0.0/16"), P("10.2.0.0/16")])

    def test_double_allocation_rejected(self):
        na = NumberAuthority()
        na.record_allocation(P("10.1.0.0/16"), "acme")
        with pytest.raises(OwnershipError):
            na.record_allocation(P("10.1.0.0/16"), "evil")
        # idempotent for the same holder
        na.record_allocation(P("10.1.0.0/16"), "acme")

    def test_suballocation_covered_by_larger_block(self):
        """Regression: a holder's larger block vouches for a sub-prefix even
        when that sub-prefix was separately sub-allocated onward — the old
        address-level LPM check saw only the deeper allocation and refused."""
        na = NumberAuthority()
        na.record_allocation(P("10.0.0.0/8"), "acme")
        na.record_allocation(P("10.1.0.0/16"), "globex")
        assert na.verify_ownership("globex", [P("10.1.0.0/16")])
        assert na.verify_ownership("acme", [P("10.1.0.0/16")])
        assert na.verify_ownership("acme", [P("10.2.0.0/16")])
        assert not na.verify_ownership("globex", [P("10.2.0.0/16")])
        assert not na.verify_ownership("evil", [P("10.1.0.0/16")])

    def test_covering_block_must_cover_whole_prefix(self):
        """Holding a piece of a range is not holding the range."""
        na = NumberAuthority()
        na.record_allocation(P("10.0.0.0/16"), "acme")
        assert not na.verify_ownership("acme", [P("10.0.0.0/8")])

    def test_verify_scales_independent_of_allocation_count(self):
        """The covering walk touches only the prefix's trie path, so cost
        is flat in the number of recorded allocations."""
        na = NumberAuthority()
        for i in range(2000):
            na.record_allocation(Prefix((i + 1) << 16, 16), f"holder-{i}")
        import time
        start = time.perf_counter()
        for _ in range(200):
            assert na.verify_ownership("holder-7", [Prefix(8 << 16, 16)])
            assert not na.verify_ownership("holder-7", [Prefix(9 << 16, 16)])
        elapsed = time.perf_counter() - start
        # 400 verifications against 2000 allocations: the old O(n) items()
        # scan took seconds here; the walk takes milliseconds
        assert elapsed < 0.5


class TestOwnershipRegistry:
    def test_owner_lookup(self):
        reg = OwnershipRegistry()
        acme = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])
        reg.register(acme)
        assert reg.owner_of("10.1.2.3") is acme
        assert reg.owner_of("10.2.0.0") is None

    def test_owners_of_packet_two_stages(self):
        reg = OwnershipRegistry()
        acme = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])
        globex = NetworkUser("globex", prefixes=[P("10.2.0.0/16")])
        reg.register(acme)
        reg.register(globex)
        pkt = Packet.udp(A("10.1.0.1"), A("10.2.0.1"))
        src_owner, dst_owner = reg.owners_of_packet(pkt)
        assert src_owner is acme and dst_owner is globex

    def test_conflicting_registration_rejected(self):
        reg = OwnershipRegistry()
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16")]))
        with pytest.raises(OwnershipError):
            reg.register(NetworkUser("evil", prefixes=[P("10.1.0.0/16")]))

    def test_unregister(self):
        reg = OwnershipRegistry()
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16")]))
        reg.unregister("acme")
        assert reg.owner_of("10.1.0.1") is None
        with pytest.raises(OwnershipError):
            reg.unregister("acme")

    def test_unregister_after_narrowing_reregister(self):
        """Unregistering removes every prefix ever registered under the id,
        not only those of the last ``NetworkUser`` object."""
        reg = OwnershipRegistry()
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16"),
                                                   P("10.2.0.0/16")]))
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16")]))
        reg.unregister("acme")
        assert "acme" not in reg
        assert reg.owner_of("10.1.0.5") is None
        assert reg.owner_of("10.2.0.5") is None

    def test_failed_register_inserts_nothing(self):
        """A conflict on any prefix leaves the table and version as they
        were, so no flow cache keyed on the version goes stale."""
        reg = OwnershipRegistry()
        reg.register(NetworkUser("a", prefixes=[P("10.1.0.0/16")]))
        version = reg.version
        with pytest.raises(OwnershipError):
            reg.register(NetworkUser("b", prefixes=[P("10.3.0.0/16"),
                                                    P("10.1.0.0/16")]))
        assert reg.owner_of("10.3.0.5") is None
        assert "b" not in reg
        assert reg.version == version

    def test_reregister_repoints_every_held_prefix(self):
        """Re-registering extends the id's prefixes, and each resolves to
        the latest ``NetworkUser``."""
        reg = OwnershipRegistry()
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16"),
                                                   P("10.2.0.0/16")]))
        reg.register(NetworkUser("acme", prefixes=[P("10.1.0.0/16")]))
        assert reg.owner_of("10.2.0.5") is reg.user("acme")
        assert reg.owner_of("10.1.0.5") is reg.user("acme")

    def test_user_accessor(self):
        reg = OwnershipRegistry()
        acme = NetworkUser("acme", prefixes=[P("10.1.0.0/16")])
        reg.register(acme)
        assert reg.user("acme") is acme
        with pytest.raises(OwnershipError):
            reg.user("nobody")
        assert len(reg) == 1
        assert reg.users == [acme]

    def test_longest_prefix_owner_wins(self):
        reg = OwnershipRegistry()
        coarse = NetworkUser("coarse", prefixes=[P("10.0.0.0/8")])
        fine = NetworkUser("fine", prefixes=[P("10.1.0.0/16")])
        reg.register(coarse)
        reg.register(fine)
        assert reg.owner_of("10.1.0.1") is fine
        assert reg.owner_of("10.2.0.1") is coarse
