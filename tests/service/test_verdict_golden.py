"""A seeded verdict stream, pinned: the owned-check path's golden.

One seeded stream of owned and unowned packets, policy hot-swaps,
activation flips and registry changes drives four consumers of the
decision core at once:

* three :class:`~repro.core.device.AdaptiveDevice` objects, each reached
  through its router's ``receive`` hook (a stub and a transit router in
  ``src-first`` order, and a stub router in the E13 ``dst-first`` order),
* one :class:`~repro.service.facade.ServiceFacade`, through ``check``.

Every verdict must equal the one a plain model gives: owners by a linear
longest-prefix scan, and each stage's graph walked by
:func:`tests.policy.test_compiler.reference_walk` over the model's own
copy of that graph, in the consumer's stage order and context.  The
stream (inputs and verdicts) is then hashed, and the hash is pinned, so
any change to which checks are made, in which order, shows here.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from repro.core import ComponentGraph, NetworkUser, OwnershipRegistry
from repro.core.components import (
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    PayloadScrubber,
    PrefixBlacklist,
    SourceAntiSpoof,
    Verdict as StageVerdict,
)
from repro.core.device import AdaptiveDevice, DeviceContext
from repro.net import IPv4Address, Network, Packet, Prefix, Protocol, TopologyBuilder
from repro.net.packet import TCPFlags
from repro.obs import scoped
from repro.service import ManualClock, ServiceFacade
from tests.policy.test_compiler import reference_walk

P = Prefix.parse
SEED = 2005
EVENTS = 3000
#: a small flow cache, so LRU evictions happen within the stream
CACHE = 16
#: sha256 of the stream's records (see :func:`run_stream`)
GOLDEN = "eba08d71b9a1b0dfbc69bee04bc310256398523cf4d426cef132f8efdd70ccbd"

USERS = {
    "acme": [P("10.1.0.0/16")],
    "globex": [P("10.2.0.0/16")],
    "initech": [P("172.16.0.0/12")],
    "umbrella": [P("10.0.2.0/25")],
}
#: registered and unregistered mid-stream; no service anywhere, and its
#: prefix sits inside acme's, so it takes acme's flows from the pipeline
LATE = NetworkUser("hooli", prefixes=[P("10.1.64.0/18")])

ADDRESSES = ("10.1.0.5", "10.1.70.9", "10.1.200.1", "10.2.0.7", "172.16.3.4",
             "10.0.2.9", "10.0.0.3", "198.51.100.1", "203.0.113.9")
PROTOS = (Protocol.UDP, Protocol.TCP, Protocol.ICMP)
DPORTS = (7, 9, 25, 53, 80)
FLAGS = (TCPFlags.NONE, TCPFlags.RST, TCPFlags.SYN)
SIZES = (64, 512, 1200)


def graphs(user_id: str, variant: int) -> tuple[Optional[ComponentGraph],
                                                  Optional[ComponentGraph]]:
    """A user's (source, destination) stage graphs in one variant; each
    call builds fresh components."""
    def chain(name, *components):
        graph = ComponentGraph(f"{user_id}:{name}:{variant}")
        graph.chain(*components)
        return graph

    big_udp = HeaderFilter("big-udp", HeaderMatch(proto=Protocol.UDP,
                                                  min_size=1000))
    if user_id == "acme":
        spoof = SourceAntiSpoof("spoof", USERS["acme"])
        src = (chain("src", PayloadScrubber("scrub"), spoof) if variant == 0
               else chain("src", spoof))
        dport = 7 if variant == 0 else 9
        return src, chain("dst", HeaderFilter("port", HeaderMatch(dport=dport)),
                          big_udp)
    if user_id == "globex":
        blocked = P("10.1.128.0/17") if variant == 0 else P("10.1.0.0/17")
        return None, chain("dst", PrefixBlacklist("bl", [blocked]),
                           HeaderFilter("rst", HeaderMatch(flags_any=TCPFlags.RST)))
    if user_id == "initech":
        match = (HeaderMatch(proto=Protocol.ICMP) if variant == 0
                 else HeaderMatch(proto=Protocol.TCP, dport=25))
        return chain("src", HeaderFilter("f", match)), None
    return chain("src", SourceAntiSpoof("spoof", USERS["umbrella"])), None


class Model:
    """Registered prefixes, installed graphs and activation, in dicts."""

    def __init__(self) -> None:
        self.prefixes = {uid: list(p) for uid, p in USERS.items()}
        self.variant = {uid: 0 for uid in USERS}
        self.active = {uid: True for uid in USERS}
        self.graphs = {uid: graphs(uid, 0) for uid in USERS}

    def owner(self, addr: int) -> Optional[str]:
        best, best_len = None, -1
        for uid, prefixes in self.prefixes.items():
            for prefix in prefixes:
                if prefix.contains(addr) and prefix.length > best_len:
                    best, best_len = uid, prefix.length
        return best

    def serviced(self, uid: Optional[str]) -> bool:
        return uid in self.graphs and self.active[uid]

    def verdict(self, packet: Packet, site: DeviceContext, dst_first: bool,
                now: float, ingress: Optional[int]) -> tuple:
        """(redirected, allowed, src owner, dst owner) for one packet."""
        src, dst = self.owner(int(packet.src)), self.owner(int(packet.dst))
        if not (self.serviced(src) or self.serviced(dst)):
            return False, True, None, None
        stages = [("source", src, 0), ("dest", dst, 1)]
        if dst_first:
            stages.reverse()
        for stage, uid, index in stages:
            if not self.serviced(uid):
                continue
            graph = self.graphs[uid][index]
            if graph is None:
                continue
            ctx = ComponentContext(now, site.asn, site.is_transit,
                                   site.local_prefix, stage,
                                   NetworkUser(uid, prefixes=USERS[uid]),
                                   ingress, ingress is None)
            if reference_walk(graph, packet, ctx) is StageVerdict.DROP:
                return True, False, src, dst
        return True, True, src, dst


def stream(seed: int):
    """The seeded events: mostly packets over a pool of 52 flows (so the
    cache hits and evicts), with swaps, flips and registry changes."""
    rng = random.Random(seed)
    flows = []
    for _ in range(48):
        proto = rng.choice(PROTOS)
        flows.append((rng.choice(ADDRESSES), rng.choice(ADDRESSES), proto,
                      rng.choice(DPORTS) if proto is not Protocol.ICMP else 0))
    # acme to acme: a big UDP packet is scrubbed by the source stage before
    # the destination stage's size filter sees it, so stage order matters
    flows += [("10.1.0.5", "10.1.200.1", Protocol.UDP, 80)] * 4
    registered = False
    for _ in range(EVENTS):
        roll = rng.random()
        if roll < 0.04:
            yield ("swap", rng.choice(sorted(USERS)))
        elif roll < 0.07:
            yield ("flip", rng.choice(sorted(USERS)))
        elif roll < 0.08:
            yield ("unregister" if registered else "register",)
            registered = not registered
        else:
            src, dst, proto, dport = rng.choice(flows)
            flags = (rng.choice(FLAGS) if proto is Protocol.TCP
                     else TCPFlags.NONE)
            yield ("packet", src, dst, proto, dport, rng.randrange(1024, 1100),
                   rng.choice(SIZES), flags, rng.randrange(3),
                   rng.random() < 0.5, rng.random() < 0.5)


def run_stream(seed: int) -> list[str]:
    """Drive every consumer through the stream, assert each verdict
    against the model, and return one record per event."""
    with scoped():
        net = Network(TopologyBuilder.line(3))
        topo = net.topology
        registry = OwnershipRegistry()
        users = {uid: NetworkUser(uid, prefixes=p) for uid, p in USERS.items()}
        for user in users.values():
            registry.register(user)
        devices = []
        for asn, order in ((0, "src-first"), (1, "src-first"), (2, "dst-first")):
            site = DeviceContext(asn, topo.role_of(asn), topo.prefix_of(asn))
            device = AdaptiveDevice(site, registry, strict=False,
                                    stage_order=order)
            device._core.flow_cache_capacity = CACHE
            net.routers[asn].adaptive_device = device
            devices.append(device)
        # the neighbour link each router can be entered from
        entry_links = (net.routers[1].links[0], net.routers[0].links[1],
                       net.routers[1].links[2])
        facade = ServiceFacade(registry, clock=ManualClock())
        facade.core.flow_cache_capacity = CACHE
        for uid, user in users.items():
            src_graph, dst_graph = graphs(uid, 0)
            facade.install(user, src_graph, dst_graph)
            for device in devices:
                device.install(user, *graphs(uid, 0))

        model = Model()
        records = []
        for n, event in enumerate(stream(seed)):
            now = n * 1e-3
            kind = event[0]
            if kind == "swap":
                uid = event[1]
                model.variant[uid] ^= 1
                variant = model.variant[uid]
                model.graphs[uid] = graphs(uid, variant)
                src_graph, dst_graph = graphs(uid, variant)
                facade.swap_policy(uid, src_graph, dst_graph)
                for device in devices:
                    device.install(users[uid], *graphs(uid, variant))
                records.append(f"swap {uid} {variant}")
            elif kind == "flip":
                uid = event[1]
                model.active[uid] = not model.active[uid]
                facade.set_active(uid, model.active[uid])
                for device in devices:
                    device.set_active(uid, model.active[uid])
                records.append(f"flip {uid} {model.active[uid]}")
            elif kind == "register":
                registry.register(LATE)
                model.prefixes[LATE.user_id] = list(LATE.prefixes)
                records.append("register")
            elif kind == "unregister":
                registry.unregister(LATE.user_id)
                del model.prefixes[LATE.user_id]
                records.append("unregister")
            else:
                records.append(check_packet(event, now, model, net, devices,
                                            entry_links, facade))
        return records


def check_packet(event, now, model, net, devices, entry_links, facade) -> str:
    _, src, dst, proto, dport, sport, size, flags, asn, entered, as_int = event
    out = []
    # the router hook: each device's verdict is what its router did
    router, device = net.routers[asn], devices[asn]
    link = entry_links[asn] if entered else None
    ingress = link.src.asn if entered else None

    def packet(flags=flags):
        return Packet(IPv4Address.parse(src), IPv4Address.parse(dst),
                      proto=proto, size=size, sport=sport, dport=dport,
                      flags=flags)

    dropped = router.drops["adaptive-device"]
    redirected = device.redirected
    router.receive(packet(), link)
    got = (device.redirected > redirected,
           router.drops["adaptive-device"] == dropped)
    dst_first = device._core.stage_order == "dst-first"
    want = model.verdict(packet(), device.context, dst_first, now, ingress)
    assert got == want[:2], (event, got, want)
    out.append(f"{int(got[0])}{int(got[1])}")
    if dst_first and model.verdict(packet(), device.context, False, now,
                                   ingress)[:2] != want[:2]:
        out[-1] += "*"  # the source-first order would have decided otherwise

    # the live facade: it builds its own packet (no TCP flags)
    key = ((int(IPv4Address.parse(src)), int(IPv4Address.parse(dst)))
           if as_int else (src, dst))
    verdict = facade.check(*key, proto=proto, sport=sport, dport=dport,
                           size=size, now=now)
    redirected, allowed, src_owner, dst_owner = model.verdict(
        packet(TCPFlags.NONE), facade.core.context, False, now, None)
    assert (verdict.redirected, verdict.allowed) == (redirected, allowed), event
    if redirected:
        assert verdict.reason == ("processed" if allowed else "filtered")
        assert (verdict.src_owner, verdict.dst_owner) == (src_owner, dst_owner)
    else:
        assert verdict.reason == "direct"
    out.append(f"{int(redirected)}{int(allowed)}:{verdict.reason}")
    return (f"{src} {dst} {proto.name} {sport} {dport} {size} {flags.value} "
            f"AS{asn} {'in' if entered else 'local'} "
            f"{'int' if as_int else 'str'} " + " ".join(out))


def test_verdict_stream_matches_the_model_and_its_pinned_hash():
    records = run_stream(SEED)
    packets = [r for r in records if r[0].isdigit()]
    assert len(packets) > 0.9 * EVENTS
    # the stream exercises every outcome on both kinds of consumer
    for outcome in ("11", "10", "01"):
        assert any(f" {outcome} " in r for r in packets), outcome
    assert any("*" in r for r in packets)  # the dst-first order mattered
    for reason in ("direct", "processed", "filtered"):
        assert any(r.endswith(reason) for r in packets), reason
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GOLDEN
