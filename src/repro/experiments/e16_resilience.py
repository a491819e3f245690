"""E16 — mitigation resilience under injected control-plane and device
faults (paper Secs. 4.5 and 5.1; DESIGN.md failure model).

The paper's availability story is qualitative: the service keeps working
while the TCSP is attacked (Sec. 5.1) and a failing device stays inside
its owner's mandate (Sec. 4.5).  E16 makes it quantitative by injecting
*scheduled, seeded* faults — adaptive-device crashes, control-message-loss
windows, NMS partitions, a TCSP outage — into a running TCS deployment
that is filtering a live UDP flood, and measuring

* mitigation effectiveness per sampling window (1 - attack leak / attack
  sent),
* recovery: the time after the last fault clears until effectiveness is
  back within 5% of the fault-free run (the self-healing loop: crashed
  devices restart *wiped*, the NMS watchdog detects the restart and
  anti-entropy re-installs the services),
* control-plane work: retries, message drops, direct-NMS failovers,
  reconciliations.

E16e/E16f extend the chaos to the control plane's *state*: the TCSP runs
as a replica set over a shared :mod:`~repro.core.storage` backend, and a
fault plan crashes the primary TCSP, one NMS shard and one storage
replica mid-run.  E16e contrasts process-local memory (the crashed
shard's desired state is wiped) with the replicated store (a promoted
standby and the restarted NMS reconcile back to full deployment — zero
permanently lost records after heal); E16f tracks the replica set's
convergence window by window.

All randomness derives from ``(cfg.seed, level)``, so the sweep is
byte-identical between :func:`run_all` and :func:`run_parallel`, and two
runs at the same seed produce identical tables.
"""

from __future__ import annotations

from typing import Optional

from repro.attack.flood import DirectFlood, TrafficGenerator
from repro.core import (
    ComponentGraph,
    DeploymentScope,
    InMemoryBackend,
    ReplicatedBackend,
)
from repro.core.components import HeaderFilter, HeaderMatch
from repro.core.storage import StorageBackend
from repro.errors import ControlPlaneUnavailable
from repro.experiments.common import ExperimentConfig, parallel_map, register
from repro.net import ASRole, Network, Packet, Protocol
from repro.net.faults import Fault, FaultInjector, FaultKind, FaultPlan
from repro.scenario import FaultSpec, TopologySpec
from repro.scenario.tcs import build_tcs_world
from repro.util.tables import Table

__all__ = ["run", "sweep_table", "timeline_table", "control_path_table",
           "fail_policy_table", "shard_crash_table", "convergence_table"]

HORIZON = 4.0          #: simulated seconds per trial
WINDOW = 0.25          #: effectiveness sampling window
FLOOD_START = 0.2
FLOOD_DURATION = 3.4   #: flood outlives every fault (plan clears by ~3.2 s)
ATTACK_RATE_PPS = 300.0
LEGIT_RATE_PPS = 50.0
CONTROL_PERIOD = 0.4   #: period of the user's background control calls

#: fault intensity sweep: level name -> declarative fault schedule
LEVELS: tuple[tuple[str, FaultSpec], ...] = (
    ("none", FaultSpec()),
    ("light", FaultSpec(n_crashes=2)),
    ("moderate", FaultSpec(n_crashes=4, n_loss_windows=1, loss_rate=0.5,
                           n_partitions=1)),
    ("heavy", FaultSpec(n_crashes=8, n_loss_windows=2, loss_rate=0.8,
                        n_partitions=1, tcsp_outages=1)),
)


def _drop_attack_factory(device_ctx):
    """dst-owner stage: drop off-service UDP toward the subscriber."""
    graph = ComponentGraph("drop-attack-udp")
    graph.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
    return graph


def _world(seed: int, n_agents: int, n_legit: int, fail_policy: str):
    """A contracted, deployed, watched TCS world with a flood scheduled."""
    net = Network(TopologySpec(kind="hierarchical", n_core=2,
                               transit_per_core=2,
                               stub_per_transit=6).build(seed))
    world = build_tcs_world(net, n_isps=3, service=True, home_nms_index=0)
    tcsp, nmses, svc = world.tcsp, world.nmses, world.service
    stubs = net.topology.stub_ases
    victim_asn = world.owner_asn
    # filter close to the sources (Sec. 5.2): every stub border except the
    # victim's own, so a crashed source-side device has measurable impact
    scope = DeploymentScope(roles=(ASRole.STUB,),
                            exclude=frozenset({int(victim_asn)}))
    svc.deploy(scope, dst_graph_factory=_drop_attack_factory)

    victim = net.add_host(victim_asn)
    attacker_asns = [int(a) for a in stubs[1:1 + n_agents]]
    attackers = [net.add_host(a) for a in attacker_asns]
    legit_asns = [int(a) for a in stubs[1 + n_agents:1 + n_agents + n_legit]]
    legit_hosts = [net.add_host(a) for a in legit_asns]

    for nms in nmses:
        for device in nms.devices.values():
            device.fail_policy = fail_policy
        nms.start_watchdog()

    DirectFlood(net, attackers, victim, rate_pps=ATTACK_RATE_PPS,
                duration=FLOOD_DURATION, start=FLOOD_START, spoof="none",
                seed=seed).launch()
    for client in legit_hosts:
        def factory(seq, now, client=client):
            return Packet.tcp_syn(client.address, victim.address, dport=80,
                                  kind="legit")
        TrafficGenerator(client, factory, LEGIT_RATE_PPS, start=FLOOD_START,
                         duration=FLOOD_DURATION).install()
    return (net, tcsp, nmses, svc, victim, attacker_asns, legit_asns)


def _window_effs(samples: list[tuple], n_agents: int) -> list[tuple]:
    """Per-window (t_end, effectiveness | None, active_faults) from the
    cumulative samples; None where no attack traffic was due."""
    out = []
    for (t0, a0, _f0), (t1, a1, f1) in zip(samples, samples[1:]):
        lo = max(t0, FLOOD_START)
        hi = min(t1, FLOOD_START + FLOOD_DURATION)
        sent = n_agents * ATTACK_RATE_PPS * max(0.0, hi - lo)
        eff = None if sent <= 0 else max(0.0, 1.0 - (a1 - a0) / sent)
        out.append((t1, eff, f1))
    return out


def _run_level(point: tuple) -> dict:
    """One sweep point (top-level so parallel_map can pickle it)."""
    level, fault_spec, seed, n_agents, n_legit = point
    net, tcsp, nmses, svc, victim, attacker_asns, legit_asns = _world(
        seed, n_agents, n_legit, fail_policy="fail-open")
    plan = fault_spec.plan(
        seed, horizon=HORIZON, device_asns=attacker_asns,
        nms_ids=[n.isp_id for n in nmses[1:]])
    injector = FaultInjector(plan, net, tcsp=tcsp, nmses=nmses, seed=seed)
    injector.arm()

    samples: list[tuple] = [(0.0, 0, 0)]

    def sample() -> None:
        samples.append((net.sim.now, victim.received_by_kind.get("attack", 0),
                        len(injector.active)))

    net.sim.schedule_every(WINDOW, sample)

    def control_op() -> None:
        try:
            svc.read_logs()
        except ControlPlaneUnavailable:
            pass

    net.sim.schedule_every(CONTROL_PERIOD, control_op)
    net.run(until=HORIZON)

    windows = _window_effs(samples, n_agents)
    effs = [(t, e) for t, e, _f in windows if e is not None]
    during = [e for t, e in effs
              if plan.faults and plan.faults[0].start <= t <= plan.last_clear + WINDOW]
    after = [e for t, e in effs if t > plan.last_clear + WINDOW]
    channels = [tcsp.channel] + [n.channel for n in nmses]
    return {
        "level": level,
        "n_faults": len(plan),
        "last_clear": plan.last_clear,
        "windows": windows,
        "eff_during": (sum(during) / len(during)) if during else None,
        "eff_after": (sum(after) / len(after)) if after else None,
        "after_series": [(t, e) for t, e in effs if t > plan.last_clear],
        "retries": sum(c.stats.retries for c in channels),
        "msg_drops": injector.messages_dropped,
        "fallbacks": svc.fallback_used,
        "crashes": sum(d.crashes for n in nmses for d in n.devices.values()),
        "reconciliations": sum(n.reconciliations for n in nmses),
        "reinstalled": sum(n.services_reinstalled for n in nmses),
        "relay_failures": tcsp.nms_relay_failures,
    }


def _recovery_time(result: dict, eff_ref: float) -> Optional[float]:
    """Seconds from the last fault clearing until the first window whose
    effectiveness is back within 5% of the fault-free reference."""
    for t, e in result["after_series"]:
        if e is not None and e >= eff_ref - 0.05:
            return max(0.0, t - result["last_clear"])
    return None


def _sweep_points(cfg: ExperimentConfig) -> list[dict]:
    n_agents = cfg.scaled(6, minimum=3)
    n_legit = cfg.scaled(4, minimum=2)
    points = [(level, knobs, cfg.seed, n_agents, n_legit)
              for level, knobs in LEVELS]
    return parallel_map(_run_level, points, workers=cfg.workers)


def sweep_table(cfg: ExperimentConfig,
                results: Optional[list[dict]] = None) -> Table:
    table = Table(
        "E16a: mitigation effectiveness vs. injected fault intensity "
        "(Secs. 4.5/5.1)",
        ["fault_level", "faults", "crashes", "eff_during_faults",
         "eff_after_clear", "recovery_s", "recovered", "retries",
         "msg_drops", "failovers", "reinstalls"],
    )
    results = results if results is not None else _sweep_points(cfg)
    ref = next(r for r in results if r["level"] == "none")
    eff_ref = ref["eff_after"] if ref["eff_after"] is not None else 1.0
    for r in results:
        if r["level"] == "none":
            recovery, recovered = 0.0, True
        else:
            rec = _recovery_time(r, eff_ref)
            recovery = rec if rec is not None else -1.0
            recovered = (rec is not None
                         and r["eff_after"] is not None
                         and r["eff_after"] >= eff_ref - 0.05)
        table.add_row(
            r["level"], r["n_faults"], r["crashes"],
            round(r["eff_during"], 3) if r["eff_during"] is not None else "-",
            round(r["eff_after"], 3) if r["eff_after"] is not None else "-",
            round(recovery, 2), recovered, r["retries"], r["msg_drops"],
            r["fallbacks"], r["reinstalled"],
        )
    table.add_note("eff = 1 - (attack delivered / attack sent) per 0.25 s "
                   "window; 'during' averages windows overlapping the fault "
                   "schedule, 'after' the windows past the last clear")
    table.add_note("recovered = effectiveness back within 5% of the "
                   "fault-free run after the last fault clears (self-healing "
                   "via watchdog + anti-entropy re-install)")
    return table


def timeline_table(cfg: ExperimentConfig,
                   results: Optional[list[dict]] = None) -> Table:
    table = Table(
        "E16b: recovery timeline at the 'moderate' fault level",
        ["t_s", "effectiveness", "active_faults"],
    )
    results = results if results is not None else _sweep_points(cfg)
    moderate = next(r for r in results if r["level"] == "moderate")
    for t, eff, active in moderate["windows"]:
        if round(t / WINDOW) % 2 == 0:  # print every other window
            table.add_row(round(t, 2),
                          round(eff, 3) if eff is not None else "-", active)
    table.add_note(f"last injected fault clears at "
                   f"t={moderate['last_clear']:.2f}s; effectiveness dips "
                   f"while crashed (fail-open) devices leak, then returns "
                   f"once the watchdog re-installs wiped services")
    return table


def control_path_table(cfg: ExperimentConfig) -> Table:
    """Deterministic control-plane scenarios: who carries the call, and at
    what retry cost, as TCSP/NMS availability degrades."""
    table = Table(
        "E16c: control-plane path selection and retry cost (Sec. 5.1)",
        ["scenario", "deploy_ok", "devices", "path", "retries",
         "exhausted", "failovers", "relay_failures"],
    )

    def fresh(seed_off: int = 0):
        return _world(cfg.seed + seed_off, n_agents=3, n_legit=2,
                      fail_policy="fail-open")

    # 1: healthy — via TCSP
    net, tcsp, nmses, svc, victim, *_ = fresh()
    n_devices = sum(len(n.desired["acme"].factories)
                    for n in nmses if "acme" in n.desired)
    table.add_row("healthy", True, n_devices, "via TCSP",
                  tcsp.channel.stats.retries, tcsp.channel.stats.exhausted,
                  svc.fallback_used, tcsp.nms_relay_failures)
    # 2: TCSP down — retried, then automatic direct NMS + peer forwarding
    net, tcsp, nmses, svc, victim, *_ = fresh(1)
    tcsp.reachable = False
    scope = DeploymentScope(roles=(ASRole.STUB,),
                            exclude=frozenset({int(victim.asn)}))
    result = svc.deploy(scope, dst_graph_factory=_drop_attack_factory)
    table.add_row("TCSP under DDoS", bool(result),
                  sum(len(v) for v in result.values()),
                  "direct NMS + peers", tcsp.channel.stats.retries,
                  tcsp.channel.stats.exhausted, svc.fallback_used,
                  tcsp.nms_relay_failures)
    # 3: one NMS partitioned during a TCSP relay — skipped, then resynced
    net, tcsp, nmses, svc, victim, *_ = fresh(2)
    nmses[1].partitioned = True
    svc.set_active(False)
    partition_failures = tcsp.nms_relay_failures
    nmses[1].partitioned = False
    resynced = tcsp.resync()
    table.add_row(f"NMS partition (resynced {resynced} op)", True, n_devices,
                  "via TCSP, partitioned NMS skipped",
                  nmses[1].channel.stats.retries,
                  nmses[1].channel.stats.exhausted, svc.fallback_used,
                  partition_failures)
    table.add_note("'failovers' counts TrafficControlService falls to the "
                   "direct home-NMS path; 'relay_failures' counts TCSP->NMS "
                   "relays that exhausted their retries")
    return table


def fail_policy_table(cfg: ExperimentConfig) -> Table:
    """Sec. 4.5 while down: fail-open passes owned traffic unfiltered,
    fail-closed blocks it — measured during an injected crash window."""
    table = Table(
        "E16d: fail-open vs. fail-closed during a device crash (Sec. 4.5)",
        ["fail_policy", "attack_leaked_during_crash",
         "legit_delivered_during_crash", "attack_after_recovery",
         "legit_after_recovery"],
    )
    crash_at, restart_at, t_end = 1.0, 2.0, 3.0
    for policy in ("fail-open", "fail-closed"):
        net, tcsp, nmses, svc, victim, attacker_asns, legit_asns = _world(
            cfg.seed, n_agents=3, n_legit=2, fail_policy=policy)
        # crash the device at one attacker stub and one legit client stub
        targets = [attacker_asns[0], legit_asns[0]]
        devices = [net.routers[a].adaptive_device for a in targets]
        marks: dict[str, tuple[int, int]] = {}

        def snap(label: str) -> None:
            marks[label] = (victim.received_by_kind.get("attack", 0),
                            victim.received_by_kind.get("legit", 0))

        for device in devices:
            net.sim.schedule_at(crash_at, device.crash)
            net.sim.schedule_at(restart_at, device.restart)
        net.sim.schedule_at(crash_at, snap, "crash")
        net.sim.schedule_at(restart_at, snap, "restart")
        # watchdog reconciles within one heartbeat of the restart
        net.sim.schedule_at(restart_at + 0.5, snap, "recovered")
        net.run(until=t_end)
        snap("end")
        a_during = marks["restart"][0] - marks["crash"][0]
        l_during = marks["restart"][1] - marks["crash"][1]
        a_after = marks["end"][0] - marks["recovered"][0]
        l_after = marks["end"][1] - marks["recovered"][1]
        # due in each interval: the crashed stub's flood share, and ALL
        # legit clients' traffic (only one client's stub crashed)
        n_legit = len(legit_asns)
        expected_attack = ATTACK_RATE_PPS * (restart_at - crash_at)
        expected_legit = n_legit * LEGIT_RATE_PPS * (restart_at - crash_at)
        after_span = t_end - restart_at - 0.5
        table.add_row(
            policy, round(a_during / expected_attack, 3),
            round(l_during / expected_legit, 3),
            round(a_after / (ATTACK_RATE_PPS * after_span), 3),
            round(l_after / (n_legit * LEGIT_RATE_PPS * after_span), 3),
        )
    table.add_note("one attacker-stub and one client-stub device crash at "
                   "t=1 s and restart (wiped, Sec. 4.5) at t=2 s; ratios are "
                   "against the traffic due in each interval")
    table.add_note("fail-open leaks the crashed stub's attack but keeps "
                   "legit flowing; fail-closed blocks both until the "
                   "watchdog re-installs the services")
    return table


STORE_HORIZON = 3.0    #: simulated seconds for the E16e/E16f store trials


def _store_world(seed: int, backend: str):
    """A 3-ISP TCS world with a TCSP standby and a selectable storage
    backend (control plane only — no traffic; E16e/E16f measure state)."""
    net = Network(TopologySpec(kind="hierarchical", n_core=2,
                               transit_per_core=2,
                               stub_per_transit=6).build(seed))
    store: StorageBackend
    if backend == "replicated":
        replicated = ReplicatedBackend(3, seed=seed, replication_lag=0.02,
                                       sim=net.sim)
        replicated.start_anti_entropy(WINDOW)
        store = replicated
    else:
        store = InMemoryBackend()
    world = build_tcs_world(net, n_isps=3, service=True, home_nms_index=0,
                            store=store, tcsp_standbys=1)
    return net, world, store


def _run_store_point(point: tuple) -> dict:
    """One E16e backend trial (top-level so parallel_map can pickle it).

    Timeline: the service deploys at t=0; the primary TCSP is unreachable
    0.6-1.6 s (the replica set promotes the standby once the lease
    lapses); storage replica 1 is down 0.7-1.6 s; the ``isp-1`` NMS
    process crashes at 0.8 s — its volatile state dies with it — and
    restarts at 1.6 s, reconciling from whatever its desired-state store
    still holds.  Mid-crash control traffic (two activation toggles) keeps
    writes flowing through the degraded store; undelivered relays are
    resynced at 2.0 s.
    """
    backend, seed = point
    net, world, store = _store_world(seed, backend)
    tcsp, nmses, svc = world.tcsp, world.nmses, world.service
    scope = DeploymentScope(roles=(ASRole.STUB,),
                            exclude=frozenset({int(world.owner_asn)}))
    svc.deploy(scope, dst_graph_factory=_drop_attack_factory)

    def desired_count() -> int:
        return sum(1 for n in nmses if world.owner in n.desired)

    plan = FaultPlan([
        Fault(FaultKind.TCSP_OUTAGE, 0.6, 1.0),
        Fault(FaultKind.STORE_REPLICA_CRASH, 0.7, 0.9, (1,)),
        Fault(FaultKind.NMS_SHARD_CRASH, 0.8, 0.8, ("isp-1",)),
    ])
    replicated = isinstance(store, ReplicatedBackend)
    injector = FaultInjector(plan, net, tcsp=tcsp, nmses=nmses,
                             store=store if replicated else None, seed=seed)
    injector.arm()

    desired_deploy = desired_count()
    marks: dict[str, int] = {}
    timeline: list[tuple] = []

    def sample() -> None:
        timeline.append((
            net.sim.now,
            store.live_replicas if replicated else len(nmses),
            store.divergent_records() if replicated else 0,
            store.lost_writes if replicated else 0,
            store.repairs if replicated else 0,
            desired_count(),
        ))

    net.sim.schedule_every(WINDOW, sample)

    def toggle(active: bool) -> None:
        try:
            svc.set_active(active)
        except ControlPlaneUnavailable:
            pass

    def mark_during() -> None:
        marks["during"] = desired_count()

    resynced: list[int] = []
    net.sim.schedule_at(1.0, toggle, False)
    net.sim.schedule_at(1.2, mark_during)
    net.sim.schedule_at(1.3, toggle, True)
    net.sim.schedule_at(2.0, lambda: resynced.append(tcsp.resync()))
    net.run(until=STORE_HORIZON)
    if replicated:
        store.anti_entropy()
    return {
        "backend": backend,
        "durable": store.durable,
        "desired_deploy": desired_deploy,
        "desired_during": marks.get("during", 0),
        "desired_heal": desired_count(),
        "lost_in_crash": sum(n.desired_lost_in_crashes for n in nmses),
        "resynced": sum(resynced),
        "tcsp_failovers": tcsp.failovers,
        "relay_failures": tcsp.nms_relay_failures,
        "failover_writes": store.failover_writes if replicated else 0,
        "lost_writes": store.lost_writes if replicated else 0,
        "stale_reads": store.stale_reads if replicated else 0,
        "repairs": store.repairs if replicated else 0,
        "perm_lost": store.permanently_lost() if replicated else None,
        "timeline": timeline,
    }


def _store_points(cfg: ExperimentConfig) -> list[dict]:
    points = [(backend, cfg.seed) for backend in ("memory", "replicated")]
    return parallel_map(_run_store_point, points, workers=cfg.workers)


def shard_crash_table(cfg: ExperimentConfig,
                      results: Optional[list[dict]] = None) -> Table:
    table = Table(
        "E16e: desired-state survival across TCSP / NMS-shard / storage-"
        "replica crashes (Sec. 5.1)",
        ["backend", "durable", "desired_deploy", "desired_mid_crash",
         "desired_healed", "wiped", "resynced", "tcsp_failovers",
         "failover_writes", "lost_writes", "stale_reads", "perm_lost"],
    )
    results = results if results is not None else _store_points(cfg)
    for r in results:
        table.add_row(
            r["backend"], r["durable"], r["desired_deploy"],
            r["desired_during"], r["desired_heal"], r["lost_in_crash"],
            r["resynced"], r["tcsp_failovers"], r["failover_writes"],
            r["lost_writes"], r["stale_reads"],
            r["perm_lost"] if r["perm_lost"] is not None else "-",
        )
    table.add_note("desired_* counts NMSes whose desired-state store still "
                   "holds the subscriber's deployment; the isp-1 NMS process "
                   "crashes mid-run (its process-local state dies), the "
                   "primary TCSP is DDoSed (standby promoted on lease "
                   "expiry), and storage replica 1 is down for 0.9 s")
    table.add_note("the in-memory backend loses the crashed shard's desired "
                   "entry permanently ('wiped'); the replicated store "
                   "serves it from surviving replicas, so the restarted NMS "
                   "reconciles back to full deployment and perm_lost = 0")
    return table


def convergence_table(cfg: ExperimentConfig,
                      results: Optional[list[dict]] = None) -> Table:
    table = Table(
        "E16f: replicated-store consistency convergence under shard crashes",
        ["t_s", "live_replicas", "divergent", "lost_writes", "repairs",
         "desired_visible"],
    )
    results = results if results is not None else _store_points(cfg)
    r = next(x for x in results if x["backend"] == "replicated")
    for t, live, divergent, lost, repairs, desired in r["timeline"]:
        table.add_row(round(t, 2), live, divergent, lost, repairs, desired)
    table.add_note("divergent = records where a live replica lags the "
                   "newest live version; anti-entropy runs every 0.25 s and "
                   "repairs the crashed replica after its 1.6 s restart")
    table.add_note(f"permanently lost records after heal + final "
                   f"anti-entropy pass: {r['perm_lost']}")
    return table


@register("E16")
def run(cfg: ExperimentConfig) -> list[Table]:
    results = _sweep_points(cfg)
    store_results = _store_points(cfg)
    return [sweep_table(cfg, results), timeline_table(cfg, results),
            control_path_table(cfg), fail_policy_table(cfg),
            shard_crash_table(cfg, store_results),
            convergence_table(cfg, store_results)]
