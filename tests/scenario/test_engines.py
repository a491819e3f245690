"""Engine behavior: the backend-agnostic run path and its guard rails."""

import dataclasses

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.e2_mitigation_matrix import cell_spec
from repro.net import IPv4Address, Packet
from repro.scenario import defenses
from repro.scenario import (
    DefenseSpec,
    Engine,
    FluidEngine,
    MetricSet,
    PRESETS,
    PacketEngine,
    SpecError,
    preset,
    run_scenario,
)


class TestPacketEngine:
    def test_satisfies_the_engine_protocol(self):
        assert isinstance(PacketEngine(), Engine)
        assert isinstance(FluidEngine(), Engine)

    def test_returns_a_labelled_metric_set(self):
        spec = preset("spoofed-flood-ingress")
        m = PacketEngine().run(spec)
        assert isinstance(m, MetricSet)
        assert m.engine == "packet"
        assert m.scenario == spec.name
        assert m.seed == spec.seed
        assert m.attack_survival == 0.0

    def test_preset_matches_the_e2_matrix_cell(self):
        """Every fault-free preset is the spec E2 runs for its (attack,
        defense) cell, apart from its name and description."""
        cells = [spec for spec in PRESETS.values() if spec.faults is None]
        assert len(cells) == 6
        for spec in cells:
            cell = cell_spec(spec.attack.kind, spec.defense.name,
                             ExperimentConfig())
            assert dataclasses.replace(
                cell, name=spec.name, description=spec.description) == spec
        # the TCS stops E2's reflector attack with zero collateral
        m = run_scenario(preset("reflector-tcs"))
        assert m.attack_delivered == 0 and m.collateral == 0.0
        assert m.legit_goodput > 0.9


class TestFluidEngine:
    def test_reflector_path(self):
        m = FluidEngine().run(preset("reflector-baseline"))
        assert m.engine == "fluid"
        assert m.attack_sent > 0
        assert 0.0 <= m.attack_survival <= 1.0

    def test_direct_path_with_ingress_kills_spoofed_flood(self):
        m = FluidEngine().run(preset("spoofed-flood-ingress"))
        assert m.attack_survival == 0.0
        assert m.collateral == 0.0

    def test_agrees_with_packet_engine_on_filtering_defenses(self):
        """The documented cross-backend comparison: every full-coverage
        filtering defense both engines express gives equal attack survival
        and collateral on both, for spoofed floods and reflector attacks."""
        arms = (DefenseSpec.of("tcs"), DefenseSpec.of("tcs-spec"),
                DefenseSpec.of("ingress"), DefenseSpec.of("rbf", fraction=1.0))
        for name in ("spoofed-flood", "reflector-baseline"):
            for defense in arms:
                spec = dataclasses.replace(preset(name), defense=defense)
                packet, fluid = PacketEngine().run(spec), FluidEngine().run(spec)
                cell = (name, defense)
                assert fluid.attack_survival == packet.attack_survival, cell
                assert fluid.collateral == packet.collateral, cell
                assert packet.attack_survival == 0.0, cell

    def test_tcs_arms_without_a_fluid_form_raise(self):
        assert "tcs-spec" in defenses.fluid_names()
        reactive = dataclasses.replace(preset("botnet-flood-pushback"),
                                       defense=DefenseSpec.of("tcs"))
        with pytest.raises(SpecError, match="packet engine"):
            FluidEngine().run(reactive)
        stateful = dataclasses.replace(
            preset("spoofed-flood"), defense=DefenseSpec.of(
                "tcs-spec", rules=[{"action": "rate-limit", "rate_bps": 1e6}]))
        with pytest.raises(SpecError, match="rate-limit"):
            FluidEngine().run(stateful)

    def test_fluid_decisions_draw_no_packet_ids(self):
        addr = IPv4Address.parse("10.0.0.1")
        before = Packet.udp(addr, addr).uid
        FluidEngine().run(preset("reflector-tcs"))
        assert Packet.udp(addr, addr).uid == before + 1

    def test_rejects_fault_specs(self):
        with pytest.raises(SpecError, match="fault"):
            FluidEngine().run(preset("reflector-under-faults"))

    def test_rejects_packet_only_defenses(self):
        with pytest.raises(SpecError, match="fluid"):
            FluidEngine().run(preset("botnet-flood-pushback"))


class TestRunScenario:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="engine"):
            run_scenario(preset("spoofed-flood"), engine="abacus")

    def test_dispatches_by_name(self):
        spec = preset("spoofed-flood-ingress")
        assert run_scenario(spec, engine="packet").engine == "packet"
        assert run_scenario(spec, engine="fluid").engine == "fluid"
