"""E13 — ablations of the design choices DESIGN.md calls out.

Three design decisions of the paper's architecture, each measured against
its alternative:

* **stage ordering** (Sec. 4.1): source-owner stage before destination-
  owner stage ("analogous to ... first sending ... and then receiving").
  The ablation shows the observable difference: with src-first, a sender's
  drop rule fires before the receiver's logger sees the packet.
* **redirect only owned traffic** (Sec. 4.1: "Most traffic will use the
  direct path through the router") vs. redirecting everything through the
  device — the per-packet cost of giving up the ownership check.
* **stateless vs. stateful teardown filtering** (Sec. 4.3): dropping every
  RST also kills legitimate resets; the connection-aware filter does not.
"""

from __future__ import annotations

import time

from repro.core import (
    AdaptiveDevice,
    ComponentGraph,
    DeviceContext,
    NetworkUser,
    OwnershipRegistry,
    StatefulTeardownFilter,
)
from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
)
from repro.experiments.common import ExperimentConfig, register
from repro.scenario.devices import build_device
from repro.net import ASRole, IPv4Address, Packet, Prefix, Protocol, TCPFlags
from repro.util.tables import Table

__all__ = ["run", "stage_order_table", "redirect_policy_table",
           "teardown_filter_table"]


def _two_owner_device(stage_order: str):
    registry = OwnershipRegistry()
    sender = NetworkUser("sender", prefixes=[Prefix.parse("10.1.0.0/16")])
    receiver = NetworkUser("receiver", prefixes=[Prefix.parse("10.2.0.0/16")])
    registry.register(sender)
    registry.register(receiver)
    device = AdaptiveDevice(
        DeviceContext(asn=5, role=ASRole.TRANSIT,
                      local_prefix=Prefix.parse("10.9.0.0/16")),
        registry, stage_order=stage_order)
    # the sender drops its own outbound UDP; the receiver logs its inbound
    src_graph = ComponentGraph("sender-drop")
    src_graph.add(HeaderFilter("drop-udp", HeaderMatch(proto=Protocol.UDP)))
    dst_graph = ComponentGraph("receiver-log")
    logger = LoggerComponent("rx-log")
    dst_graph.add(logger)
    device.install(sender, src_graph=src_graph)
    device.install(receiver, dst_graph=dst_graph)
    return device, logger


def stage_order_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E13a: stage-order ablation (Sec. 4.1: source stage first)",
        ["order", "delivered", "receiver_logged", "semantics"],
    )
    for order in ("src-first", "dst-first"):
        device, logger = _two_owner_device(order)
        pkt = Packet.udp(IPv4Address.parse("10.1.0.1"),
                         IPv4Address.parse("10.2.0.1"))
        out = device.process(pkt, 0.0, None)
        table.add_row(
            order, out is not None, len(logger.entries),
            ("sender's will enforced before the receiver observes"
             if order == "src-first" else
             "receiver observes traffic the sender then retracts"),
        )
    table.add_note("the paper's order mirrors send-then-receive: a packet "
                   "dropped by its sender's stage never existed for the "
                   "receiver — dst-first leaks it into the receiver's logs")
    return table


class _RedirectAllDevice(AdaptiveDevice):
    """Ablation: skip the ownership check and redirect every packet."""

    def wants(self, packet: Packet) -> bool:  # pragma: no cover - trivial
        return True


def redirect_policy_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E13b: redirect policy ablation (Sec. 4.1: only owned traffic "
        "enters the device)",
        ["policy", "owned_share_%", "mean_per_packet_us", "slowdown_x"],
    )
    reps = cfg.scaled(2000, minimum=300)
    device, users = build_device(200)
    redirect_all = _RedirectAllDevice(device.context, device.registry)
    for user_id, instance in device.services.items():
        redirect_all.services[user_id] = instance
    owned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                       IPv4Address(users[0].prefixes[0].base + 3))
    unowned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                         IPv4Address.parse("172.16.0.9"))

    def cost(dev, owned_share: float) -> float:
        n_owned = int(reps * owned_share)
        start = time.perf_counter()
        for i in range(reps):
            pkt = owned if i < n_owned else unowned
            if dev.wants(pkt):
                dev.process(pkt, 0.0, None)
        return (time.perf_counter() - start) / reps * 1e6

    for share in (0.01, 0.10):
        t_selective = cost(device, share)
        t_all = cost(redirect_all, share)
        table.add_row("redirect-owned-only", share * 100,
                      round(t_selective, 2), 1.0)
        table.add_row("redirect-everything", share * 100, round(t_all, 2),
                      round(t_all / t_selective, 2))
    table.add_note("in this software model both policies pay the LPM lookup, "
                   "so the gap is modest; on real hardware (paper Fig. 2) "
                   "redirect-everything would detour *all* line-rate traffic "
                   "through the device — the ownership check is what keeps "
                   "'most traffic ... on the direct path through the router'")
    return table


def teardown_filter_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E13c: stateless vs stateful teardown filtering (Sec. 4.3)",
        ["filter", "forged_rst_blocked_%", "legit_rst_blocked_%"],
    )
    from repro.core.components import ComponentContext, Verdict

    owner = NetworkUser("victim", prefixes=[Prefix.parse("10.2.0.0/16")])

    def ctx(now):
        return ComponentContext(now=now, asn=1, is_transit=False,
                                local_prefix=Prefix.parse("10.9.0.0/16"),
                                stage="dest", owner=owner)

    victim = IPv4Address.parse("10.2.0.1")
    peer = IPv4Address.parse("10.5.0.1")
    forger = IPv4Address.parse("10.7.0.1")
    n = cfg.scaled(100, minimum=20)

    def drive(component):
        forged_blocked = legit_blocked = 0
        now = 0.0
        for i in range(n):
            now += 0.05
            # a real connection's data packet, then its legitimate RST
            data = Packet(src=peer, dst=victim, proto=Protocol.TCP,
                          sport=40000 + i, dport=80)
            component.process(data, ctx(now))
            legit_rst = Packet.tcp_rst(peer, victim, sport=40000 + i, dport=80)
            if component.process(legit_rst, ctx(now + 0.01)) is Verdict.DROP:
                legit_blocked += 1
            # a forged RST from a host the victim never talked to
            forged = Packet.tcp_rst(forger, victim, sport=i, dport=80)
            if component.process(forged, ctx(now + 0.02)) is Verdict.DROP:
                forged_blocked += 1
        return forged_blocked / n * 100, legit_blocked / n * 100

    stateless = HeaderFilter("block-all-rst",
                             HeaderMatch(proto=Protocol.TCP,
                                         flags_any=TCPFlags.RST))
    forged_pct, legit_pct = drive(stateless)
    table.add_row("stateless block-all-rst", round(forged_pct, 1),
                  round(legit_pct, 1))
    stateful = StatefulTeardownFilter()
    forged_pct, legit_pct = drive(stateful)
    table.add_row("stateful connection-aware", round(forged_pct, 1),
                  round(legit_pct, 1))
    table.add_note("both block 100% of the forged teardowns; only the "
                   "stateful variant spares legitimate resets")
    return table


@register("E13")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [stage_order_table(cfg), redirect_policy_table(cfg),
            teardown_filter_table(cfg)]
