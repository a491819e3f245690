"""Standalone adaptive-device builders for scalability scenarios.

:func:`build_device` (formerly private to E6) constructs a device serving
``n_subscribers`` users without any network around it — the unit under
test for the paper's Sec. 5.3 scaling claims and the E6/E13 micro
benchmarks.
"""

from __future__ import annotations

from repro.core import (
    AdaptiveDevice,
    ComponentGraph,
    DeviceContext,
    NetworkUser,
    OwnershipRegistry,
)
from repro.core.components import HeaderFilter, HeaderMatch
from repro.net import ASRole, Prefix, Protocol

__all__ = ["build_device"]

#: header-filter rules in each subscriber's graph
RULES_PER_SUBSCRIBER = 2


def build_device(n_subscribers: int) -> tuple[AdaptiveDevice, list[NetworkUser]]:
    """A device serving ``n_subscribers`` users, each with a two-rule graph.

    Subscribers own disjoint /16 prefixes under 10.0.0.0/8.
    """
    registry = OwnershipRegistry()
    users = []
    for i in range(n_subscribers):
        prefix = Prefix((i + 1) << 16, 16)  # disjoint /16s: 0.1/16, 0.2/16, ...
        user = NetworkUser(f"user-{i}", prefixes=[prefix])
        registry.register(user)
        users.append(user)
    device = AdaptiveDevice(
        DeviceContext(asn=1, role=ASRole.STUB,
                      local_prefix=Prefix.parse("192.168.0.0/16")),
        registry)
    for user in users:
        graph = ComponentGraph(f"svc:{user.user_id}")
        graph.chain(*[
            HeaderFilter(f"r{j}", HeaderMatch(proto=Protocol.TCP, dport=7))
            for j in range(RULES_PER_SUBSCRIBER)
        ])
        device.install(user, dst_graph=graph)
    return device, users
