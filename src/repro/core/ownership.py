"""Traffic ownership (paper Sec. 4.1).

"We declare a network packet to be owned by these network users, who are
officially registered to hold either the destination or the source IP
address or both of that packet."

* :class:`NumberAuthority` models the RIR databases (ARIN, RIPE NCC, ...)
  that the TCSP queries during registration (Fig. 4),
* :class:`NetworkUser` is a registered customer of the service,
* :class:`OwnershipRegistry` answers the per-packet question the adaptive
  device asks on every redirect decision: *who owns this address?*
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import OwnershipError
from repro.net.addressing import IPv4Address, Prefix, PrefixTable
from repro.net.packet import Packet

__all__ = ["NetworkUser", "NumberAuthority", "OwnershipRegistry"]


@dataclass
class NetworkUser:
    """A network user: an organisation holding registered address space.

    The paper targets "large organisations that are strongly dependent on
    Internet communication" (Sec. 5.3) — each instance stands for one such
    subscriber.
    """

    user_id: str
    display_name: str = ""
    prefixes: list[Prefix] = field(default_factory=list)

    def __hash__(self) -> int:
        return hash(self.user_id)


class NumberAuthority:
    """Internet number authority: the ground-truth prefix -> holder database.

    "the TCSP checks with Internet number authorities if the IP addresses
    are indeed owned by the service requester" (Sec. 5.1 / Fig. 4).
    """

    def __init__(self, name: str = "RIR") -> None:
        self.name = name
        self._holders: PrefixTable[str] = PrefixTable()

    def record_allocation(self, prefix: Prefix, holder_id: str) -> None:
        """Register that ``holder_id`` was allocated ``prefix``."""
        existing = self._holders.lookup_exact(prefix)
        if existing is not None and existing != holder_id:
            raise OwnershipError(
                f"{prefix} already allocated to {existing!r}, cannot give to {holder_id!r}"
            )
        self._holders.insert(prefix, holder_id)

    def verify_ownership(self, holder_id: str, prefixes: Iterable[Prefix]) -> bool:
        """True iff every prefix is held by ``holder_id`` (directly or via a
        covering allocation).

        One trie walk along each prefix's bit path visits exactly the
        allocations that cover it (at most 33), so verification cost is
        independent of how many allocations the authority holds — the
        previous implementation rescanned every allocation per prefix.
        A holder's larger block vouches for any sub-prefix inside it, even
        one that was separately sub-allocated onward.
        """
        return all(
            any(holder == holder_id for _, holder in self._holders.covering(prefix))
            for prefix in prefixes
        )


class OwnershipRegistry:
    """Fast address -> owning user lookups for the adaptive devices.

    A single longest-prefix-match trie over all registered users' prefixes;
    the device consults it twice per packet (source stage, destination
    stage, Sec. 4.1).
    """

    def __init__(self) -> None:
        self._table: PrefixTable[NetworkUser] = PrefixTable()
        self._users: dict[str, NetworkUser] = {}
        #: mutation counter (plain attribute: read on every cached redirect
        #: decision); devices key their per-flow caches on it so a
        #: ``register``/``unregister`` invalidates every cached decision.
        self.version = 0

    def register(self, user: NetworkUser) -> None:
        """Add (or extend) a user's registered prefixes.

        All or nothing: a prefix held by another user raises before any is
        inserted.  Every prefix held under the id, earlier ones included,
        then resolves to ``user``.
        """
        for prefix in user.prefixes:
            current = self._table.lookup_exact(prefix)
            if current is not None and current.user_id != user.user_id:
                raise OwnershipError(
                    f"{prefix} already registered to {current.user_id!r}"
                )
        held = ([p for p, u in self._table.items() if u.user_id == user.user_id]
                if user.user_id in self._users else [])
        for prefix in (*held, *user.prefixes):
            self._table.insert(prefix, user)
        self._users[user.user_id] = user
        self.version += 1

    def unregister(self, user_id: str) -> None:
        """Remove every prefix registered under ``user_id``, including
        those of earlier registrations the last one no longer lists."""
        if self._users.pop(user_id, None) is None:
            raise OwnershipError(f"unknown user {user_id!r}")
        for prefix in [p for p, u in self._table.items()
                       if u.user_id == user_id]:
            self._table.remove(prefix)
        self.version += 1

    def owner_of(self, addr: IPv4Address | int | str) -> Optional[NetworkUser]:
        """The registered user owning this address (LPM), or None."""
        return self._table.lookup(addr)

    def owners_of_packet(self, packet: Packet) -> tuple[Optional[NetworkUser], Optional[NetworkUser]]:
        """(source owner, destination owner) — the two processing stages."""
        return self.owner_of(packet.src), self.owner_of(packet.dst)

    def user(self, user_id: str) -> NetworkUser:
        try:
            return self._users[user_id]
        except KeyError as exc:
            raise OwnershipError(f"unknown user {user_id!r}") from exc

    @property
    def users(self) -> list[NetworkUser]:
        return list(self._users.values())

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._users

    def __len__(self) -> int:
        return len(self._users)
