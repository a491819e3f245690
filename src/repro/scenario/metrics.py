"""The uniform metric surface shared by every engine.

A :class:`MetricSet` is a frozen record of the standard outputs every
experiment ultimately reports — attack traffic delivered to the victim,
legitimate goodput, collateral damage caused by the defense itself,
transport work wasted by attack traffic, control-plane message counts, and
source-identification accuracy — regardless of whether a packet-level or
fluid run produced them.  ``attack_delivered``/``attack_sent`` keep their
engine-native units (packets vs bits/s); ``attack_survival`` is the
unit-free ratio the engines can be compared on.

:class:`MetricSink` adapts each backend's native results into a
:class:`MetricSet`.  Determinism contract: the same spec + seed yields a
byte-identical MetricSet (equal ``signature()``) whether the run happened
serially, under :func:`~repro.experiments.common.parallel_map`, or in a
separate process pool — pinned by tests/scenario/test_determinism.py.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attack.scenarios import ScenarioMetrics
from repro.obs.metrics import MetricRegistry, declare

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fluid import FluidResult
    from repro.scenario.build import BuiltScenario

__all__ = ["MetricSet", "MetricSink", "METRIC_NAMES"]

#: Every standard metric, in report order (ScenarioSpec.metrics selects).
METRIC_NAMES = ("attack_delivered", "attack_sent", "attack_survival",
                "legit_goodput", "collateral", "byte_hops_attack",
                "control_packets", "identified_true", "identified_false")

_SCENARIO_GAUGES = {
    name: declare(f"scenario.{name}", "gauge",
                  labels=("engine", "scenario"),
                  help=f"per-run {name.replace('_', ' ')} (uniform MetricSet)")
    for name in METRIC_NAMES
}


@dataclass(frozen=True)
class MetricSet:
    """Standard outputs of one scenario run on one engine."""

    scenario: str
    engine: str
    seed: int
    attack_delivered: float     # packets (packet engine) / bits-per-s (fluid)
    attack_sent: float
    attack_survival: float      # delivered / sent — unit-free, comparable
    legit_goodput: float
    collateral: float
    byte_hops_attack: float
    control_packets: int = 0
    identified_true: int = 0
    identified_false: int = 0
    notes: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def select(self, names: tuple[str, ...]) -> dict:
        """The chosen metric values (all of them for an empty selection)."""
        chosen = names or METRIC_NAMES
        return {name: getattr(self, name) for name in chosen}

    def signature(self) -> str:
        """Stable content hash — equal iff the metric sets are identical."""
        text = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def publish(self, registry: "MetricRegistry | None" = None) -> "MetricSet":
        """Register every standard value as a ``scenario.*`` gauge in the
        (ambient) :mod:`repro.obs` registry, labelled by engine and
        scenario name — one accounting pipeline for experiment tables and
        exported telemetry.  Returns ``self`` for chaining."""
        for name, decl in _SCENARIO_GAUGES.items():
            gauge = decl.labelled(registry=registry, engine=self.engine,
                                  scenario=self.scenario)
            gauge.set(getattr(self, name))
        return self


class MetricSink:
    """Adapters from engine-native results to the uniform MetricSet."""

    @staticmethod
    def from_packet(built: "BuiltScenario",
                    metrics: ScenarioMetrics) -> MetricSet:
        handle = built.defense
        identified = handle.identified if handle is not None else set()
        agent_asns = built.agent_asns
        sent = metrics.attack_requests_sent
        return MetricSet(
            scenario=built.spec.name,
            engine="packet",
            seed=built.spec.seed,
            attack_delivered=float(metrics.attack_packets_at_victim),
            attack_sent=float(sent),
            attack_survival=(metrics.attack_packets_at_victim / sent
                             if sent else 0.0),
            legit_goodput=metrics.legit_goodput,
            collateral=metrics.collateral_fraction,
            byte_hops_attack=float(metrics.byte_hops_attack),
            control_packets=metrics.control_packets,
            identified_true=len(identified & agent_asns),
            identified_false=len(identified - agent_asns),
            notes=handle.notes if handle is not None else "",
        )

    @staticmethod
    def from_fluid_direct(built: "BuiltScenario",
                          result: "FluidResult") -> MetricSet:
        handle = built.defense
        victim = built.victim_asn
        delivered = result.delivered_rate("attack", dst_asn=victim)
        sent = result.sent_rate("attack")
        legit_sent = result.sent_rate("legit")
        legit_filtered = sum(
            float(result.filtered[i]) for i, f in enumerate(result.flows)
            if f.kind == "legit")
        return MetricSet(
            scenario=built.spec.name,
            engine="fluid",
            seed=built.spec.seed,
            attack_delivered=delivered,
            attack_sent=sent,
            attack_survival=delivered / sent if sent else 0.0,
            legit_goodput=result.survival_fraction("legit"),
            collateral=legit_filtered / legit_sent if legit_sent else 0.0,
            byte_hops_attack=sum(
                v for k, v in result.byte_hops.items()
                if k.startswith("attack")),
            identified_true=0, identified_false=0,
            notes=handle.notes if handle is not None else "",
        )

    @staticmethod
    def from_fluid_reflector(built: "BuiltScenario",
                             request_result: "FluidResult",
                             reflected_result: "FluidResult") -> MetricSet:
        handle = built.defense
        victim = built.victim_asn
        amplification = built.scenario.attack.amplification
        delivered = reflected_result.delivered_rate("attack-reflected",
                                                    dst_asn=victim)
        # full amplified rate the reflectors *would* emit undefended —
        # the natural "sent" for a reflector attack's survival ratio
        sent = request_result.sent_rate("attack-request") * amplification
        legit_sent = reflected_result.sent_rate("legit")
        legit_filtered = sum(
            float(reflected_result.filtered[i])
            for i, f in enumerate(reflected_result.flows)
            if f.kind == "legit")
        byte_hops = (
            sum(v for k, v in request_result.byte_hops.items()
                if k.startswith("attack"))
            + sum(v for k, v in reflected_result.byte_hops.items()
                  if k.startswith("attack")))
        return MetricSet(
            scenario=built.spec.name,
            engine="fluid",
            seed=built.spec.seed,
            attack_delivered=delivered,
            attack_sent=sent,
            attack_survival=delivered / sent if sent else 0.0,
            legit_goodput=reflected_result.survival_fraction("legit"),
            collateral=legit_filtered / legit_sent if legit_sent else 0.0,
            byte_hops_attack=byte_hops,
            identified_true=0, identified_false=0,
            notes=handle.notes if handle is not None else "",
        )
