"""Declarative scenario layer: specs in, metrics out.

One :class:`ScenarioSpec` describes a complete experiment cell (topology,
role placement, attack, defense, optional faults); :func:`run_scenario`
executes it on either the packet-level simulator or the fluid model, and
both report the same :class:`MetricSet`.  Experiments become a spec plus a
table formatter — see DESIGN.md's "scenario layer" section.
"""

from repro.scenario.build import BuiltScenario, build
from repro.scenario.engine import (
    ENGINES,
    Engine,
    FluidEngine,
    PacketEngine,
    run_scenario,
)
from repro.scenario.metrics import METRIC_NAMES, MetricSet, MetricSink
from repro.scenario.presets import PRESETS, e2_cell, preset, preset_names
from repro.scenario.spec import (
    AttackSpec,
    DefenseSpec,
    FaultSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)

__all__ = [
    "AttackSpec",
    "BuiltScenario",
    "DefenseSpec",
    "ENGINES",
    "Engine",
    "FaultSpec",
    "FluidEngine",
    "METRIC_NAMES",
    "MetricSet",
    "MetricSink",
    "PRESETS",
    "PacketEngine",
    "ScenarioSpec",
    "SpecError",
    "TopologySpec",
    "build",
    "e2_cell",
    "preset",
    "preset_names",
    "run_scenario",
]
