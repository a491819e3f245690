"""E6 — scalability (paper Sec. 5.3).

"It is important to notice that no additional rules must be installed in
our adaptive devices when more users join the Internet or when additional
computers are attached. ... The scaling factors that our service depends
on is the total number of autonomous systems deploying our service, the
resulting number of rules installed (derived from the tens of thousands
of subscribers) and the bandwidth at which traffic must be filtered."

Measured here:

* total installed rules vs. number of *subscribers* (grows linearly) and
  vs. number of *hosts* (flat),
* per-packet device processing cost vs. installed services (the redirect
  decision is one LPM lookup; only owners' packets pay for their graphs).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import ExperimentConfig, register
from repro.net import (
    FluidNetwork,
    IPv4Address,
    LinkParams,
    Network,
    Packet,
    PacketBatch,
    TopologyBuilder,
    synthesize_as_rel2,
)
from repro.net.fluid import flood_flows
from repro.scenario.devices import build_device
from repro.util.rng import derive_rng
from repro.util.tables import Table
from repro.util.units import Mbps, ms

__all__ = ["run", "rules_vs_subscribers_table", "rules_vs_hosts_table",
           "device_cost_table", "flow_cache_table", "caida_scale_table",
           "batch_forwarding_table", "sketch_accuracy_table", "build_device"]


def rules_vs_subscribers_table(cfg: ExperimentConfig) -> Table:
    table = Table(
        "E6a: installed rules scale with subscribers (Sec. 5.3)",
        ["subscribers", "rules_total", "rules_per_subscriber"],
    )
    for n in (10, 100, 1000, cfg.scaled(5000, minimum=2000)):
        device, _ = build_device(n)
        table.add_row(n, device.rule_count(),
                      round(device.rule_count() / n, 2))
    table.add_note("rules grow linearly in subscribers ('tens of thousands "
                   "rather than millions', Sec. 5.3)")
    return table


def rules_vs_hosts_table(cfg: ExperimentConfig) -> Table:
    """Growing the *host* population changes nothing on the devices."""
    table = Table(
        "E6b: installed rules are independent of the host population (Sec. 5.3)",
        ["hosts_behind_prefixes", "subscribers", "rules_total"],
    )
    device, users = build_device(100)
    baseline_rules = device.rule_count()
    for hosts in (10_000, 100_000, 1_000_000, 20_000_000):
        # hosts live inside the subscribers' prefixes: the ownership trie
        # and the rule set are untouched; only addresses get denser.
        table.add_row(hosts, len(users), device.rule_count())
        assert device.rule_count() == baseline_rules
    table.add_note("compare 2004's ~21.7M hosts (Sec. 5.3 [2]): the rule "
                   "count column would still read 200")
    return table


def device_cost_table(cfg: ExperimentConfig) -> Table:
    """Per-packet processing cost vs. installed services."""
    table = Table(
        "E6c: per-packet device cost vs. installed services",
        ["subscribers", "owned_pkt_us", "unowned_pkt_us", "redirect_check_us"],
    )
    reps = cfg.scaled(3000, minimum=500)
    for n in (10, 100, 1000):
        device, users = build_device(n)
        owned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                           IPv4Address(users[0].prefixes[0].base + 5))
        unowned = Packet.udp(IPv4Address.parse("172.16.0.1"),
                             IPv4Address.parse("172.16.0.2"))

        def timed(fn, *args) -> float:
            start = time.perf_counter()
            for _ in range(reps):
                fn(*args)
            return (time.perf_counter() - start) / reps * 1e6

        t_owned = timed(device.process, owned, 0.0, None)
        t_unowned = timed(device.process, unowned, 0.0, None)
        t_check = timed(device.wants, owned)
        table.add_row(n, round(t_owned, 2), round(t_unowned, 2),
                      round(t_check, 2))
    table.add_note("the redirect decision (one LPM lookup) is independent "
                   "of the subscriber count; unowned traffic 'will use the "
                   "direct path through the router' (Sec. 4.1)")
    return table


def flow_cache_table(cfg: ExperimentConfig) -> Table:
    """The device's per-flow fast path: hit rate and redirect-check speedup.

    Real traffic is flow-structured (many packets per 4-tuple), so the
    LRU flow cache turns the per-packet redirect decision from two LPM
    walks plus a membership check into one dict probe.  ``cold_us``
    measures the miss path (cache cleared before every check),
    ``warm_us`` the steady state over a recirculating working set.
    """
    table = Table(
        "E6d: device flow-cache fast path (redirect decision)",
        ["subscribers", "flows", "hit_rate_%", "cold_us", "warm_us",
         "speedup_x"],
    )
    reps = cfg.scaled(3000, minimum=500)
    for n in (100, 1000):
        device, users = build_device(n)
        rng = derive_rng(cfg.seed, "e6d", n)
        n_flows = 64
        packets = []
        for i in range(n_flows):
            user = users[int(rng.integers(0, len(users)))]
            src = IPv4Address(int(rng.integers(0, 2**32)))
            dst = IPv4Address(user.prefixes[0].base
                              + int(rng.integers(1, 2**16)))
            packets.append(Packet.udp(src, dst, dport=int(rng.integers(1, 1024))))

        start = time.perf_counter()
        for i in range(reps):
            device.invalidate_flow_cache()
            device.wants(packets[i % n_flows])
        cold = (time.perf_counter() - start) / reps * 1e6

        device.invalidate_flow_cache()
        device.reset_stats()
        start = time.perf_counter()
        for i in range(reps):
            device.wants(packets[i % n_flows])
        warm = (time.perf_counter() - start) / reps * 1e6
        table.add_row(n, n_flows, round(device.flow_cache_hit_rate * 100, 1),
                      round(cold, 2), round(warm, 2),
                      round(cold / warm, 1) if warm else 0.0)
    table.add_note("cold = cache invalidated before every decision (the "
                   "uncached slow path); warm = steady state on a 64-flow "
                   "working set, the router-style common case")
    table.add_note("the cache is invalidated by install/uninstall and by "
                   "any ownership-registry change, so correctness never "
                   "depends on traffic patterns")
    return table


def caida_scale_table(cfg: ExperimentConfig) -> Table:
    """Fluid-model scalability on CAIDA-shaped AS graphs.

    The paper's deployment argument is stated at Internet scale ("roughly
    18'000 autonomous systems", Sec. 5.3).  Packet simulation cannot reach
    that; the fluid model evaluates a flooding attack across tens of
    thousands of ASes in well under a second.
    """
    table = Table(
        "E6e: fluid evaluation at CAIDA scale (as-rel2 shaped graphs)",
        ["ases", "links", "stubs", "flows", "build_ms", "eval_ms",
         "delivered_frac"],
    )
    sizes = (250, cfg.scaled(2000, minimum=500),
             cfg.scaled(18000, minimum=1000))
    for n in sizes:
        rng = derive_rng(cfg.seed, "e6e", n)
        start = time.perf_counter()
        topo = TopologyBuilder.from_as_rel2(synthesize_as_rel2(n, seed=cfg.seed))
        build_ms = (time.perf_counter() - start) * 1e3
        fluid = FluidNetwork(topo)
        victim = topo.stub_ases[0]
        n_flows = min(1000, max(50, len(topo.stub_ases) // 4))
        flows = flood_flows(topo, victim, n_flows, rate_each=Mbps(10), rng=rng)
        start = time.perf_counter()
        result = fluid.evaluate(flows)
        eval_ms = (time.perf_counter() - start) * 1e3
        frac = result.delivered_rate(dst_asn=victim) / result.sent_rate()
        table.add_row(n, topo.graph.number_of_edges(), len(topo.stub_ases),
                      n_flows, round(build_ms, 1), round(eval_ms, 1),
                      round(frac, 3))
    table.add_note("graphs come from synthesize_as_rel2 (CAIDA serial-2 "
                   "format) through the same parser a real snapshot would "
                   "use; delivered < 1 when the victim's access links "
                   "congest (Sec. 5.3 scale setting)")
    return table


def batch_forwarding_table(cfg: ExperimentConfig) -> Table:
    """Scalar vs batched forwarding on the packet data plane.

    Same 5-AS line, same total packet count; the batched pipeline carries
    the burst as SoA columns (one event slot per sub-batch) instead of one
    event per packet.
    """
    table = Table(
        "E6f: batched vs scalar packet forwarding (SoA data plane)",
        ["batch_size", "packets", "wall_ms", "per_packet_us", "speedup_x"],
    )
    n_packets = cfg.scaled(4096, minimum=512)
    fat = LinkParams(bandwidth=Mbps(10_000), delay=ms(1),
                     buffer_bytes=1 << 30)
    scalar_us = None
    for b in (1, 64, 1024):
        b = min(b, n_packets)  # reduced-scale runs send fewer packets
        net = Network(TopologyBuilder.line(5), access=fat,
                      link_params_fn=lambda a, c: fat)
        src = net.add_host(0)
        dst = net.add_host(4)
        start = time.perf_counter()
        if b == 1:
            for _ in range(n_packets):
                src.send(Packet.udp(src.address, dst.address))
        else:
            src_col = np.full(b, int(src.address), dtype=np.int64)
            for _ in range(n_packets // b):
                src.send_batch(PacketBatch.udp(src_col, int(dst.address)))
        net.run()
        wall_ms = (time.perf_counter() - start) * 1e3
        sent = n_packets if b == 1 else (n_packets // b) * b
        assert net.total_received() == sent
        per_packet = wall_ms * 1e3 / sent
        if scalar_us is None:
            scalar_us = per_packet
        table.add_row(b, sent, round(wall_ms, 1), round(per_packet, 2),
                      round(scalar_us / per_packet, 1))
    table.add_note("batch 1 is the scalar pipeline (event per packet); "
                   "larger batches amortise routing lookups and queue "
                   "accounting over NumPy columns")
    return table


def sketch_accuracy_table(cfg: ExperimentConfig) -> Table:
    """Flow-statistics backends: state bytes vs accuracy across fan-in.

    The Sec. 5.3 claim applied to the statistics service: exact per-flow
    state grows linearly with attacker fan-in, while the sketch backends
    hold state constant and pay with bounded count error.  Keys follow a
    zipf-like source popularity (heavy hitters plus a long tail), the
    adversarial-but-realistic regime for top-k tracking.
    """
    from repro.core.flowstats import make_flow_stats

    table = Table(
        "E6g: flow-statistics backends — state vs accuracy across fan-in",
        ["backend", "fan_in", "state_bytes", "top10_recall",
         "mean_rel_err_%"],
    )
    fan_ins = (1000, 10_000, cfg.scaled(100_000, minimum=20_000))
    for fan_in in fan_ins:
        rng = derive_rng(cfg.seed, "e6g", fan_in)
        n = 4 * fan_in
        weights = 1.0 / np.arange(1, fan_in + 1, dtype=np.float64) ** 1.1
        weights /= weights.sum()
        keys = rng.choice(fan_in, size=n, p=weights).astype(np.int64)
        sizes = rng.integers(40, 1500, size=n).astype(np.int64)
        true_keys, true_counts = np.unique(keys, return_counts=True)
        order = np.lexsort((true_keys, -true_counts))
        top_true = {int(true_keys[i]) for i in order[:10]}
        for kind in ("exact", "bloom", "cmsketch", "countsketch"):
            stats = make_flow_stats(kind, seed=cfg.seed)
            stats.add_batch(keys, nbytes=sizes)
            top_est = {k for k, _ in stats.top(10, by="packets")}
            recall = len(top_true & top_est) / 10 if top_est else 0.0
            errs = [abs(stats.packet_count(int(true_keys[i]))
                        - int(true_counts[i])) / int(true_counts[i])
                    for i in order[:10]]
            table.add_row(kind, fan_in, stats.state_bytes(),
                          round(recall, 2),
                          round(100 * float(np.mean(errs)), 2))
    table.add_note("exact state grows linearly with fan-in; the sketches "
                   "(and the bloom counter) stay constant — a bloom filter "
                   "cannot enumerate keys at all, so its top-10 recall is 0 "
                   "by construction")
    table.add_note("count-min errors are overestimate-only (eps*N bound); "
                   "count-sketch errors are unbiased and typically smaller "
                   "on skewed streams")
    return table


@register("E6")
def run(cfg: ExperimentConfig) -> list[Table]:
    return [rules_vs_subscribers_table(cfg), rules_vs_hosts_table(cfg),
            device_cost_table(cfg), flow_cache_table(cfg),
            caida_scale_table(cfg), batch_forwarding_table(cfg),
            sketch_accuracy_table(cfg)]
