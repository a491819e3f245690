"""Smoke + shape tests for every experiment module.

Each experiment runs at a tiny scale and its table must (a) be non-empty
with the declared columns and (b) exhibit the paper's qualitative shape.
"""

import pytest

from repro.errors import ReproError
from repro.experiments.__main__ import main as run_experiments
from repro.experiments.common import (
    ExperimentConfig,
    registry,
    run_all,
    run_parallel,
)

CFG = ExperimentConfig(seed=42, scale=0.2)


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = set(registry())
        assert ids == {f"E{i}" for i in range(1, 17)}

    def test_run_all_subset(self):
        results = run_all(CFG, only=["E5"])
        assert set(results) == {"E5"}

    @pytest.mark.parametrize("runner", [run_all, run_parallel])
    def test_unknown_ids_raise(self, runner):
        # used to run nothing and return {} — a typo passed silently
        with pytest.raises(ReproError, match="unknown experiment id.*E99"):
            runner(CFG, only=["E5", "E99"])

    def test_runner_exits_2_listing_known_ids(self, capsys):
        assert run_experiments(["E99", "e2x", "--scale", "0.2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "E99, e2x" in captured.err
        assert "known: E1, E10" in captured.err


class TestE1:
    @pytest.fixture(scope="class")
    def tables(self):
        from repro.experiments import e1_reflector_anatomy

        return e1_reflector_anatomy.run(CFG)

    def test_rate_amplification_exceeds_one(self, tables):
        anatomy = tables[0]
        assert all(row[5] > 1 for row in anatomy.rows)

    def test_byte_amp_matches_configured_reply_ratio(self, tables):
        anatomy = tables[0]
        for row in anatomy.rows:
            assert row[6] == pytest.approx(row[2], rel=0.1)

    def test_traceback_depth_is_three(self, tables):
        assert all(row[7] == 3 for row in tables[0].rows)

    def test_worm_curve_monotone(self, tables):
        infected = tables[1].column("infected_hosts")
        assert infected == sorted(infected)
        assert infected[-1] == 75_000


class TestE2:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import e2_mitigation_matrix

        return e2_mitigation_matrix.run(CFG)[0]

    def _cell(self, table, attack, mitigation):
        for row in table.rows:
            if row[0] == attack and row[1] == mitigation:
                return row
        raise AssertionError(f"missing cell {attack}/{mitigation}")

    def test_matrix_complete(self, table):
        assert len(table) == 27  # 3 attacks x 9 mitigations

    def test_ingress_kills_spoofed_but_not_botnet(self, table):
        assert self._cell(table, "direct-spoofed", "ingress")[2] == 0.0
        assert self._cell(table, "reflector", "ingress")[2] == 0.0
        assert self._cell(table, "direct-unspoofed", "ingress")[2] == 1.0

    def test_tcs_wins_every_class_with_zero_collateral(self, table):
        for attack in ("direct-spoofed", "direct-unspoofed", "reflector"):
            row = self._cell(table, attack, "tcs")
            assert row[2] < 0.5
            assert row[4] == 0.0

    def test_traceback_names_reflectors(self, table):
        row = self._cell(table, "reflector", "traceback-filter")
        assert row[6] > 0  # false identifications (the reflectors)

    def test_overlays_cut_off_nonparticipants(self, table):
        for mitigation in ("sos", "i3"):
            row = self._cell(table, "reflector", mitigation)
            assert row[2] <= 0.05     # victim protected
            assert row[4] >= 0.4      # but half the clients cut off

    def test_lasthop_config_fails_under_attack(self, table):
        row = self._cell(table, "direct-spoofed", "lasthop")
        assert "FAILED" in row[7]


class TestE3:
    @pytest.fixture(scope="class")
    def table(self):
        from repro.experiments import e3_deployment_sweep

        return e3_deployment_sweep.run(CFG)[0]

    def test_monotone_decreasing_in_fraction(self, table):
        for col in ("ingress@random-stubs", "rbf@top-degree"):
            values = table.column(col)
            assert all(a >= b - 0.05 for a, b in zip(values, values[1:]))

    def test_rbf_top_degree_effective_at_20_percent(self, table):
        """The paper's [15] claim: ~20% coverage already highly effective."""
        idx = table.column("fraction").index(0.2)
        assert table.column("rbf@top-degree")[idx] < 0.1
        # while random-stub ingress at 20% is still leaky
        assert table.column("ingress@random-stubs")[idx] > 0.5

    def test_placement_matters(self, table):
        idx = table.column("fraction").index(0.2)
        assert (table.column("rbf@top-degree")[idx]
                < table.column("rbf@random")[idx])

    def test_full_deployment_is_complete(self, table):
        idx = table.column("fraction").index(1.0)
        assert table.column("ingress@random-stubs")[idx] == 0.0
        assert table.column("rbf@top-degree")[idx] == 0.0


class TestE4:
    @pytest.fixture(scope="class")
    def tables(self):
        from repro.experiments import e4_tcs_defense

        return e4_tcs_defense.run(CFG)

    def test_attack_decreases_with_deployment(self, tables):
        values = tables[0].column("attack_at_victim_frac")
        assert values[0] == 1.0 and values[-1] == 0.0
        assert all(a >= b - 0.05 for a, b in zip(values, values[1:]))

    def test_byte_hops_track_protection(self, tables):
        attack = tables[0].column("attack_at_victim_frac")
        hops = tables[0].column("byte_hops_frac")
        for a, h in zip(attack, hops):
            assert h == pytest.approx(a, abs=0.08)

    def test_zero_collateral_everywhere(self, tables):
        assert all(c == 0.0 for c in tables[0].column("collateral"))

    def test_drop_distance_zero(self, tables):
        assert all(d < 0.5 for d in tables[0].column("mean_drop_dist_hops"))

    def test_placement_ablation(self, tables):
        rows = {row[0]: row for row in tables[1].rows}
        tcs = rows["tcs@stub-borders (close to source)"]
        edge = rows["victim-edge filter (close to victim)"]
        assert tcs[1] <= 0.05 and edge[1] <= 0.05  # both protect the victim
        assert tcs[2] < 0.1                        # TCS frees the transport
        assert edge[2] > 0.9                       # edge filter does not


class TestE5:
    def test_every_attempt_blocked(self):
        from repro.experiments import e5_safety

        table = e5_safety.run(CFG)[0]
        assert len(table) == 10
        assert all(row[2] is True for row in table.rows)


class TestE6:
    @pytest.fixture(scope="class")
    def tables(self):
        from repro.experiments import e6_scalability

        return e6_scalability.run(CFG)

    def test_rules_linear_in_subscribers(self, tables):
        subs = tables[0].column("subscribers")
        rules = tables[0].column("rules_total")
        assert all(r == 2 * s for s, r in zip(subs, rules))

    def test_rules_flat_in_hosts(self, tables):
        assert len(set(tables[1].column("rules_total"))) == 1

    def test_unowned_cheaper_than_owned(self, tables):
        for row in tables[2].rows:
            assert row[2] < row[1]


class TestE7:
    def test_workflows_and_resilience(self):
        from repro.experiments import e7_control_plane

        workflow, resilience, inband = e7_control_plane.run(CFG)
        assert all(row[1] == "ok" for row in workflow.rows)
        # in-band: unflooded control plane works, heavy flood starves it
        answered = inband.column("requests_answered_%")
        assert answered[0] == 100.0
        assert answered[-1] < 50.0
        outcomes = {row[0]: row for row in resilience.rows}
        assert outcomes["TCSP reachable"][1] is True
        assert outcomes["TCSP under DDoS, no NMS fallback"][1] is False
        fallback = outcomes["TCSP under DDoS, direct NMS + peer forwarding"]
        assert fallback[1] is True
        assert fallback[2] == outcomes["TCSP reachable"][2]  # same coverage


class TestE8:
    def test_firewall_restores_survival(self):
        from repro.experiments import e8_protocol_misuse

        table = e8_protocol_misuse.run(CFG)[0]
        for row in table.rows:
            assert row[3] == 1.0        # with firewall: everything survives
            if row[1] >= 20:
                assert row[2] < 0.5     # without: most connections die


class TestE9:
    @pytest.fixture(scope="class")
    def tables(self):
        from repro.experiments import e9_traceback

        return e9_traceback.run(CFG)

    def test_reflector_attacks_identified_wrong(self, tables):
        for row in tables[0].rows:
            if row[0] == "reflector":
                assert row[5] == "wrong source: reflectors"
            else:
                assert row[5] == "true agents found"

    def test_backlog_limits_traceability(self, tables):
        backlog = tables[1]
        # young packets traceable, old ones not (within each window setting)
        by_windows: dict[int, list] = {}
        for age, windows, frac in backlog.rows:
            by_windows.setdefault(windows, []).append((age, frac))
        for windows, series in by_windows.items():
            series.sort()
            assert series[0][1] == 1.0
            assert series[-1][1] == 0.0


class TestE10:
    def test_reaction_reduces_attack_and_keeps_goodput(self):
        from repro.experiments import e10_triggers

        table = e10_triggers.run(CFG)[0]
        baseline = table.rows[0]
        assert baseline[0] == "off"
        for row in table.rows[1:]:
            assert row[1] > 0                      # triggers fired
            assert row[3] < baseline[3]            # attack reduced
            assert row[4] >= baseline[4] - 0.05    # goodput preserved


class TestE11:
    def test_delay_estimates_accurate(self):
        from repro.experiments import e11_debugging

        table = e11_debugging.run(CFG)[0]
        clean = [row for row in table.rows if row[4] == "no"]
        assert all(row[3] < 5.0 for row in clean)  # <5% error
        squeezed = [row for row in table.rows if row[4] == "yes"]
        assert squeezed and squeezed[0][5] > 0.1   # loss detected
