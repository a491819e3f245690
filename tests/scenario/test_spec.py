"""ScenarioSpec value-object behavior: validation, derivation, JSON."""

import dataclasses

import pytest

from repro.scenario import (
    AttackSpec,
    DefenseSpec,
    FaultSpec,
    PRESETS,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    preset,
    preset_names,
)


class TestTopologySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(kind="donut")

    def test_seed_offset_changes_the_graph(self):
        spec = TopologySpec(kind="powerlaw", n=60)
        base = spec.build(42)
        offset = dataclasses.replace(spec, seed_offset=1).build(42)
        assert set(base.graph.edges()) != set(offset.graph.edges())

    def test_offset_equals_shifted_base_seed(self):
        spec = TopologySpec(kind="powerlaw", n=60, seed_offset=7)
        assert (set(spec.build(42).graph.edges())
                == set(TopologySpec(kind="powerlaw", n=60).build(49)
                       .graph.edges()))

    @pytest.mark.parametrize("kind", ["hierarchical", "powerlaw", "internet",
                                      "line", "star", "tree"])
    def test_every_kind_builds(self, kind):
        topo = TopologySpec(kind=kind, n=20).build(42)
        assert len(topo) > 0


class TestAttackSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            AttackSpec(kind="quantum")

    def test_needs_an_agent(self):
        with pytest.raises(SpecError, match="agent"):
            AttackSpec(n_agents=0)

    def test_build_applies_the_seed_offset(self):
        attack = AttackSpec(kind="reflector", seed_offset=3)
        built = ScenarioSpec(seed=42, attack=attack).build()
        assert built.scenario.seed == 45
        assert built.scenario.attack is attack
        assert len(built.scenario.reflectors) == attack.n_reflectors

    @pytest.mark.parametrize("field, value", [
        ("attack_rate_pps", "NaN"), ("attack_rate_pps", "-1"),
        ("legit_rate_pps", "Infinity"), ("attack_packet_size", "-512"),
        ("request_size", "NaN"), ("amplification", "-Infinity"),
        ("duration", "-1"), ("attack_start", "NaN"), ("n_masters", "-1"),
        ("n_reflectors", "-2"), ("n_legit_clients", "-1"),
    ])
    def test_rejects_non_finite_or_negative_traffic(self, field, value):
        text = '{"attack": {"kind": "direct-spoofed", "%s": %s}}' % (field, value)
        with pytest.raises(SpecError, match=field):
            ScenarioSpec.from_json(text)

    def test_scaled_scales_populations(self):
        spec = AttackSpec(n_agents=8, n_reflectors=6).scaled(0.5)
        assert spec.n_agents == 4
        assert spec.n_reflectors == 3
        assert AttackSpec(n_agents=2).scaled(0.01).n_agents == 1


class TestDefenseSpec:
    def test_of_sorts_params(self):
        a = DefenseSpec.of("rbf", fraction=0.3, seedy=1)
        b = DefenseSpec.of("rbf", seedy=1, fraction=0.3)
        assert a == b
        assert a.get("fraction") == 0.3
        assert a.get("missing", "x") == "x"
        assert a.as_dict() == {"fraction": 0.3, "seedy": 1}

    def test_spec_is_hashable(self):
        assert hash(DefenseSpec.of("tcs")) == hash(DefenseSpec.of("tcs"))


class TestFaultSpec:
    def test_empty(self):
        assert FaultSpec().empty
        assert not FaultSpec(n_crashes=1).empty

    def test_plan_is_seed_deterministic(self):
        spec = FaultSpec(n_crashes=3, n_flaps=1)
        kw = dict(horizon=2.0, device_asns=[4, 5, 6],
                  links=[(0, 1), (1, 2)])
        assert (spec.plan(42, **kw).faults == spec.plan(42, **kw).faults)
        assert (spec.plan(42, **kw).faults != spec.plan(43, **kw).faults)


class TestScenarioSpec:
    def test_horizon(self):
        spec = ScenarioSpec(attack=AttackSpec(attack_start=0.1, duration=0.6),
                            settle=0.5)
        assert spec.horizon == pytest.approx(1.2)

    def test_with_seed_and_defense(self):
        spec = ScenarioSpec(seed=1)
        assert spec.with_seed(9).seed == 9
        assert spec.with_defense(DefenseSpec.of("tcs")).defense.name == "tcs"

    def test_scaled_identity_at_one(self):
        spec = ScenarioSpec()
        assert spec.scaled(1.0) is spec

    def test_json_round_trip(self):
        for name in preset_names():
            spec = preset(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_json("not json {")
        with pytest.raises(SpecError):
            ScenarioSpec.from_json("[1, 2]")
        with pytest.raises(SpecError):
            ScenarioSpec.from_json('{"nonsense_field": 1}')

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            preset("does-not-exist")

    def test_presets_are_built(self):
        assert len(PRESETS) >= 6
        for spec in PRESETS.values():
            built = spec.build()
            assert built.victim_asn in built.topology.as_numbers
