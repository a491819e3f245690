#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full-scale experiment run.

Usage::

    python -m repro.experiments --markdown > /tmp/exp.md
    python tools/build_experiments_md.py /tmp/exp.md > EXPERIMENTS.md

or simply ``python tools/build_experiments_md.py`` to run the experiments
inline (slower, ~20 s).
"""

from __future__ import annotations

import io
import re
import sys

INTRO = """# EXPERIMENTS — paper claims vs. measured results

Every table below was regenerated with `python -m repro.experiments`
(seed 42, scale 1.0, fully deterministic; ~20 s total on a laptop) and this
file is rebuilt by `tools/build_experiments_md.py`.
The paper (IPPS 2005) is an architecture paper without quantitative
tables — its Figures 1-6 are diagrams — so each experiment operationalises
one *claim* of the paper; "reproduced" below means the measured **shape**
(who wins, by what kind of factor, where crossovers fall) matches the
claim.  The benchmark suite (`pytest benchmarks/ --benchmark-only`)
re-runs all of these at reduced scale.

| ID | Paper anchor | Claim | Reproduced? |
|----|--------------|-------|-------------|
| E1 | Fig. 1, Sec. 2.2 | the amplifying network multiplies packet rate, bytes and traceback difficulty | yes — rate amp 50-86x, byte amp = configured reply ratio, depth 3 |
| E2 | Sec. 3, 4.3 | prior mitigations fail or backfire per attack class; the TCS wins everywhere | yes — full matrix below |
| E3 | Sec. 3.2 [15] | route-based filtering highly effective at ~20% AS coverage | yes — <1% survival at 20% top-degree deployment, robust under valley-free routing |
| E4 | Sec. 4.3, 6 | TCS stops attacks close to the source and frees transport resources | yes — drop distance 0 hops; byte-hops fall 1:1 with victim protection |
| E5 | Sec. 4.5 | every misuse avenue is closed | yes — 10/10 attempts blocked |
| E6 | Sec. 5.3 | rules scale with subscribers, not hosts; redirect check is cheap | yes — linear in subscribers, flat in hosts; CAIDA-scale (18k AS) fluid tables + 34x batched forwarding (like-for-like micro-benchmark) |
| E7 | Sec. 5.1, Figs. 3-5 | one registration covers all ISPs; direct NMS path survives a DDoS on the TCSP | yes |
| E8 | Sec. 4.3 | protocol-misuse (RST/ICMP) teardown attacks can be filtered out | yes — 0% -> 100% connection survival |
| E9 | Sec. 3.1, 4.4 | traceback yields "a wrong attack source — the reflectors" | yes — all three traceback methods name only reflectors |
| E10 | Sec. 4.4 | triggers auto-activate rate limits on anomalies | yes — detection in 20-110 ms, goodput preserved |
| E11 | Sec. 4.4 | link delay/loss measurable in-network for debugging | yes — <1% delay error, loss localised |
| E12 | Sec. 4.6 | filtering close to the source frees ISP bandwidth; collateral confined to offending access networks | yes — 100% of core/transit attack load freed at full stub deployment |
| E13 | Secs. 4.1/4.3 | design-choice ablations (stage order, redirect policy, stateful filtering) | yes — each paper choice measurably dominates its alternative |
| E14 | Sec. 3.1 | "an attacked server's resources are exhausted before its uplink is overloaded" defeats pushback | yes — 0 pushback activations at <1% link load while the server dies; TCS unaffected |
| E15 | Secs. 1, 4.2 | rules "installed, configured and activated instantly" keep up with a vector-switching attacker | yes — every vector answered in 35-110 ms from packet headers alone |
| E16 | Secs. 4.5, 5.1 | the service stays effective and controllable while its own parts fail, and heals itself | yes — recovery to within 5% of fault-free effectiveness after every injected fault schedule; replicated control-plane state survives TCSP/NMS-shard/storage crashes with zero permanent losses |

---
"""

SECTIONS = [
 ("E1", "Fig. 1 / Sec. 2.2 — attack anatomy", """**Claim.** "Such a network amplifies the rate of packets (a few control
packets of the attacker to the masters cause many attack packets to be
sent by the agents to the victim), the size of packets (if request packet
size < reply packet size) and the difficulty to trace back an attack."

**Measured.** Rate amplification grows with the agent pool (50x -> 86x per
control packet); byte amplification equals the configured reply/request
ratio (DNS-style reflectors); the indirection depth is 3
(attacker->master->agent->reflector).  The worm model (Slammer parameters)
builds the "several ten thousand hosts" agent pool in ~3 minutes.""",
  ["E1a", "E1b"]),
 ("E2", "Sec. 3 / 4.3 — the mitigation matrix", """**Claims reproduced, row by row:**
* *ingress filtering* annihilates spoofed traffic (including reflector
  requests) but is useless against a real-address botnet, and it only
  works because here every agent-side stub deploys it (Sec. 3.2);
* *route-based filtering at 30% random ASes* barely helps at this scale
  (placement matters — see E3);
* *pushback* under spoofing names 20 innocent ASes as "the attacker"
  (Sec. 3.1: "legitimate sources may experience severe service
  degradation"); against the reflector attack its aggregates are the
  reflectors;
* *traceback-filter* halves the unspoofed flood (true sources found) but
  against the reflector attack identifies reflectors (ids_false) and
  filtering them buys little while cutting their legitimate services;
* *SOS* and *i3* protect the victim but cut off every client that did not
  pre-join (0.5 collateral = the non-participating half), and the attack
  still crosses the Internet to die at the perimeter;
* *last-hop filtering* fails outright: the victim is already overloaded
  when it tries to install rules (the paper's "interesting open question",
  answered in the negative);
* *the TCS* zeroes all three attack classes with zero collateral: anti-
  spoofing at stub borders (reflector), the dst-owner-stage distributed
  firewall (spoofed flood), and near-source blacklisting of genuine
  addresses (unspoofed botnet).""",
  ["E2"]),
 ("E3", "Sec. 3.2 — deployment-fraction sweep (Park & Lee)", """**Claim.** "ingress filtering is already highly effective against source
address spoofing even if only approximately 20% of the autonomous systems
have it in place" — for *route-based* filtering on power-law Internets.

**Measured.** Route-based filtering at the top-degree 20% of ASes lets
under 1% of spoofed traffic through; the same filter at *random* ASes
needs ~80% coverage for the same effect, and edge ingress filtering
scales only linearly with deployment.  Placement at high-degree transit
ASes is what makes the 20% figure work — consistent with [15].  E3b shows
the result is robust to the routing model: under valley-free (Gao-Rexford)
policy routing the funnel through high-degree providers is even tighter.""",
  ["E3", "E3b"]),
 ("E4", "Sec. 4.3 / Sec. 6 — the TCS defense", """**Claims.** "Our service allows for filtering traffic close to the source
of the attack" and "frees network resources that are nowadays wasted for
transporting attack traffic around the globe".

**Measured.** Victim-side protection scales linearly with the fraction of
stub borders offering the service (the incremental-deployment story of
Sec. 5.1); the mean drop distance is 0 hops (killed at the very source
AS), so wasted byte-hops fall 1:1 with the attack.  E4b contrasts: a
victim-edge filter protects the victim equally well but still burns 100%
of the transport path.  Collateral is 0 at every deployment level.""",
  ["E4", "E4b"]),
 ("E5", "Sec. 4.5 — misuse prevention", """**Claim.** "Any misuse of such a novel service must be prevented from the
very beginning ... countermeasures against effects of misconfigurations
and misuse were taken into consideration when designing this new service."

**Measured.** All ten concrete misuse attempts are blocked by the designed
mechanism (registration/ownership checks, certificate signatures, static
vetting of declared capabilities, runtime conservation monitoring with
containment, structural scope confinement).  Property-based tests
(hypothesis) cover the same invariants over randomised inputs.""",
  ["E5"]),
 ("E6", "Sec. 5.3 — scalability", """**Claim.** "no additional rules must be installed in our adaptive devices
when more users join the Internet or when additional computers are
attached"; rules derive from "the tens of thousands of subscribers".

**Measured.** Rules grow exactly linearly in subscribers (2 per
subscriber here) and are flat in the host population; the per-packet
redirect decision (one longest-prefix-match lookup) costs ~2 us regardless
of the subscriber count, and unowned traffic pays only that check
("Most traffic will use the direct path through the router").  E6g
extends the same state-vs-population argument to flow *statistics*: the
exact per-flow backend grows linearly with attacker fan-in while the
sketch backends (Count-Min, Count-Sketch, counting Bloom) hold constant
state with top-10 heavy-hitter recall >= 0.9 — statistics memory, like
rule count, need not scale with the host population.""",
  ["E6a", "E6b", "E6c", "E6d", "E6e", "E6f", "E6g"]),
 ("E7", "Sec. 5.1 / Figs. 3-5 — control plane", """**Claims.** "Only a single service registration is needed instead of a
separate one with each ISP"; the direct NMS path works "if the network
conditions are such that the TCSP can no longer be reached, e.g. because
of an ongoing DDoS attack on the TCSP".

**Measured.** One registration + one deploy call configures all devices
across 4 contracted ISPs; with the TCSP down, the home-NMS path with peer
forwarding reaches identical coverage.  E7c makes the outage mechanistic:
control requests travel as packets to a TCSP *host* with bounded service
capacity, and a flood past that capacity starves them — 100% -> 0%
completion exactly at the crossover.""",
  ["E7a", "E7b", "E7c"]),
 ("E8", "Sec. 4.3 — protocol-misuse teardown", """**Claim.** "Attacks based on protocol misuse like e.g. sending ICMP
unreachable or TCP reset messages to tear down TCP connections can also
be filtered out."

**Measured.** Undefended, forged teardown packets kill every connection
at >=20 pps; with the two TCS firewall rules, survival is 100% at every
injection rate, for both RST and ICMP variants.  (E13c refines this with
a stateful filter that additionally spares *legitimate* resets.)""",
  ["E8"]),
 ("E9", "Sec. 3.1 / 4.4 — traceback", """**Claim.** "Reactive strategies involving traceback mechanisms will yield
a wrong attack source — the reflectors — ... if DDoS attacks involve
reflectors."

**Measured.** PPM, classic SPIE and the TCS-hosted SPIE service all
identify the true agent ASes for direct attacks (even spoofed ones), and
all three terminate at the *reflectors* for reflector attacks — the
packets the victim receives were genuinely created there.  E9b shows the
SPIE digest-backlog limit: packets older than the retained Bloom-filter
windows become untraceable.""",
  ["E9a", "E9b"]),
 ("E10", "Sec. 4.4 — automated reaction", """**Claim.** "Automated reaction to network anomalies could be implemented
by placing triggers that fire an event if the traffic statistics ...
indicate values exceeding expected boundaries.  As a consequence, a rule
that rate limits the anomalous traffic could be activated."

**Measured.** Pre-armed triggers detect the flood in 20-110 ms (faster at
lower thresholds), activate the pre-installed rate limiter on each firing
device, cut attack delivery by up to 27x, and — because the limiter
targets only the anomalous traffic class — leave legit goodput at 100%.
E10b attaches a SpaceSaving heavy-hitter tracker to the trigger window:
each firing then *names* the offending sources (attacker recall 1.0 with
O(64) state per trigger) and the reaction narrows from "all matching
traffic" to the identified offenders.""",
  ["E10", "E10b"]),
 ("E11", "Sec. 4.4 — network debugging", """**Claim.** "Link delays or packet loss on intermediate links could be
measured for network debugging purposes."

**Measured.** Per-segment one-way delay recovered to within 0.1% (the
residual is serialization time); a squeezed link's loss is detected and
localised to the right segment.""",
  ["E11"]),
 ("E12", "Sec. 4.6 — deployment incentives", """**Claim.** "Malicious or illegitimate traffic can now be filtered closer
to the source.  This frees valuable bandwidth resources ... Collateral
damage is limited mostly to poorly managed access networks where infected
or compromised machines are hooked up to the Internet."

**Measured.** With full stub-border deployment the reflector attack never
leaves the offending access networks: core and transit ISPs carry 0% of
the former attack load (their incentive to offer the premium service),
and the containment table shows the killed-at-source share tracking the
deployment fraction 1:1.""",
  ["E12", "E12b"]),
 ("E13", "design-choice ablations", """Three architecture decisions, each measured against its alternative:

* *source stage before destination stage* (Sec. 4.1) — reversed, a
  receiver's logger observes packets the sender's stage then retracts;
  the paper's order mirrors send-then-receive causality.
* *redirect only owned traffic* (Sec. 4.1) — the cost of giving up the
  ownership check, measured honestly for this software model.
* *stateless vs. stateful teardown filtering* (Sec. 4.3) — blocking every
  RST also kills 100% of legitimate resets; the connection-aware filter
  (an implemented extension) blocks all forged teardowns and no real ones.""",
  ["E13a", "E13b", "E13c"]),
 ("E14", "Sec. 3.1 — the server-farm failure mode", """**Claim.** "Pushback assumes that DDoS attacks result in overloaded
links.  In many cases, however, an attacked server's resources are
exhausted before its uplink is overloaded.  In particular, this is the
case for servers that are hosted in farms."

**Measured.** Behind a 1 Gbit/s farm link a moderate botnet never pushes
link utilisation past ~1%, yet the victim's CPU model drops most traffic
— including two thirds of legitimate requests.  Pushback's
drop-statistics detector records **zero** activations (nothing congests),
while the victim-deployed TCS blacklist — which needs no congestion
signal — removes the flood at its sources and restores 100% service.""",
  ["E14"]),
 ("E15", "Secs. 1 / 4.2 — the arms race", """**Claim.** Attackers "construct new attack tools and variants" faster
than defenses follow (Sec. 1); the TCS counters this because rules "can
be installed, configured and activated instantly" (Sec. 4.2).

**Measured.** A three-phase campaign switches vectors (reflector bounce,
spoofed UDP flood, forged-RST teardown).  The reactive defender — seeing
only packet headers at the victim — classifies each vector's signature
and answers with the matching TCS deployment within 35-110 ms; per-phase
attack delivery collapses and 8/10 long-lived connections survive the
teardown phase versus 1/10 undefended.""",
  ["E15"]),
 ("E16", "Secs. 4.5 / 5.1 — resilience under injected faults", """**Claims.** The control plane survives a DDoS on the TCSP (Sec. 5.1) and
a failing device must never exceed its owner's mandate (Sec. 4.5) — here
hardened into a measurable property: *mitigation effectiveness returns to
within 5% of the fault-free run after the last injected fault clears*.

**Measured.** A seeded fault schedule (device crashes, control-message
loss windows, NMS partitions, a TCSP outage) is injected into a live
deployment filtering a UDP flood.  Effectiveness dips while source-side
devices are down (fail-open) and recovers every time: crashed devices
restart *wiped* (Sec. 4.5) and the NMS watchdog's anti-entropy pass
re-installs the desired services within one heartbeat.  E16c shows the
control-plane paths: a TCSP outage is detected by retry exhaustion and
fails over to the direct peer-NMS path; a partitioned NMS is skipped and
resynced afterwards.  E16d quantifies the fail-open/fail-closed policy
choice: fail-open leaks the crashed stub's attack share but preserves
legitimate traffic; fail-closed inverts the trade.  E16e/E16f extend the
chaos to control-plane *state*: the TCSP runs as a replica set over a
pluggable storage backend, and a fault plan crashes the primary TCSP,
one NMS shard and one storage replica mid-run.  With process-local
memory the crashed shard's desired state is wiped and stays lost; with
the replicated, prefix-sharded store a promoted standby and the
restarted NMS reconcile back to full deployment — zero permanently lost
records after heal — and E16f's timeline shows the replica set
converging (divergent records repaired by anti-entropy within two
windows of the restart).  The whole experiment is deterministic for a
seed (two runs are byte-identical, serial or parallel).""",
  ["E16a", "E16b", "E16c", "E16d", "E16e", "E16f"]),
]


def parse_blocks(text: str) -> dict[str, str]:
    blocks: dict[str, str] = {}
    current_key, buf = None, []
    for line in io.StringIO(text):
        m = re.match(r"\*\*(E\d+[a-g]?):", line)
        if m:
            if current_key:
                blocks[current_key] = "".join(buf).strip()
            current_key, buf = m.group(1), [line]
        elif current_key:
            buf.append(line)
    if current_key:
        blocks[current_key] = "".join(buf).strip()
    return blocks


def build(markdown_tables: str) -> str:
    blocks = parse_blocks(markdown_tables)
    wanted = [key for _, _, _, keys in SECTIONS for key in keys]
    missing = [k for k in wanted if k not in blocks]
    if missing:
        raise SystemExit(f"missing experiment tables: {missing}")
    out = [INTRO]
    for exp_id, title, commentary, keys in SECTIONS:
        out.append(f"## {exp_id} — {title}\n\n{commentary}\n")
        for key in keys:
            out.append(blocks[key] + "\n")
        out.append("---\n")
    out.append("""## Scenario layer — packet vs. fluid engine comparison

Every experiment above now runs through the declarative scenario layer
(`repro.scenario`, see DESIGN.md §10): a frozen `ScenarioSpec` built once
and executed by interchangeable engines.  The E2-shaped presets run on
*both* backends via `python -m repro scenario run --spec NAME --engine
both` (seed 42, scale 1.0):

| preset | engine | attack survival | legit goodput | collateral |
|---|---|---|---|---|
| `reflector-tcs` | packet | 0.000 | 1.000 | 0.000 |
| `reflector-tcs` | fluid | 0.000 | 1.000 | 0.000 |
| `spoofed-flood-ingress` | packet | 0.000 | 1.000 | 0.000 |
| `spoofed-flood-ingress` | fluid | 0.000 | 1.000 | 0.000 |
| `spoofed-flood-rbf` | packet | 0.400 | 1.000 | 0.000 |
| `spoofed-flood-rbf` | fluid | 0.375 | 1.000 | 0.000 |
| `reflector-baseline` | packet | 0.230 | 0.536 | 0.000 |
| `reflector-baseline` | fluid | 1.000 | 1.000 | 0.000 |

The engines agree wherever the models overlap: full-coverage filtering
(TCS anti-spoofing, RFC 2267 ingress) reports zero attack survival and
zero collateral on either backend, and partial route-based filtering
lands within a few percent (0.400 packet vs. 0.375 fluid — the packet
engine's per-packet sampling vs. the fluid model's exact flow fractions).
*Undefended* cells differ by design: the fluid model's default link
capacities exceed the packet model's access-link limits, so fluid
survival is 1.0 where the packet engine already shows congestive
queue-drop (0.23 for the amplified reflector flood, with legitimate
goodput collapsing to 0.54).  Filtering conclusions transfer between
backends; congestion conclusions require the packet engine.

---

## Reproduction environment

* `python -m repro.experiments --seed 42 --scale 1.0`
* Python 3.11, numpy/networkx only, no network access.
* All numbers above are deterministic for the given seed; different seeds
  move individual numbers but not any qualitative shape.
""")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        tables = open(argv[1]).read()
    else:
        import contextlib

        from repro.experiments.__main__ import main as run_experiments

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            run_experiments(["--markdown"])
        tables = buf.getvalue()
    sys.stdout.write(build(tables))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
