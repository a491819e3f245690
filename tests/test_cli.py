"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_defense_rejected(self, capsys):
        # names are checked against the defense registry when the command
        # runs; the error lists the known ones
        assert main(["defend", "--defense", "magic"]) == 2
        err = capsys.readouterr().err
        assert "unknown defense 'magic'" in err and "tcs-spec" in err

    def test_unknown_topology_rejected(self, capsys):
        assert main(["topology", "--kind", "donut"]) == 2
        err = capsys.readouterr().err
        assert "'donut'" in err and "caida" in err

    def test_unknown_attack_rejected(self, capsys):
        assert main(["attack", "--kind", "nuclear"]) == 2
        assert "reflector" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rate", "--duration", "--reflectors"])
    def test_removed_attack_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", flag, "1"])

    def test_parser_does_not_import_the_scenario_layer(self):
        import subprocess
        import sys

        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); print(sorted(m for m in sys.modules "
                "if m.startswith('repro.scenario')))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestTopologyCommand:
    def test_summary_output(self, capsys):
        assert main(["topology", "--kind", "star", "--size", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 ASes" in out
        assert "stub   : 4" in out

    def test_verbose_lists_ases(self, capsys):
        main(["topology", "--kind", "line", "--size", "3", "--verbose"])
        out = capsys.readouterr().out
        assert "AS0" in out and "AS2" in out

    @pytest.mark.parametrize("kind", ["hierarchical", "powerlaw", "internet",
                                      "tree", "caida"])
    def test_all_kinds_build(self, kind, capsys):
        assert main(["topology", "--kind", kind, "--size", "40"]) == 0

    def test_tree_size_is_the_smallest_binary_tree_that_fits(self, capsys):
        assert main(["topology", "--kind", "tree", "--size", "40"]) == 0
        assert "63 ASes" in capsys.readouterr().out


class TestAttackAndDefend:
    def test_attack_reports_the_agents_that_ran(self, capsys):
        # --agents sets the cell's agent count; --scale then scales it
        assert main(["attack", "--kind", "direct-spoofed", "--agents", "4",
                     "--scale", "0.5"]) == 0
        assert "(2 agents)" in capsys.readouterr().out

    def test_attack_reports_metrics(self, capsys):
        assert main(["attack", "--kind", "reflector", "--agents", "4",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "attack packets delivered" in out
        assert "goodput" in out

    def test_defend_tcs_zeroes_reflector(self, capsys):
        assert main(["defend", "--attack", "reflector", "--defense", "tcs",
                     "--agents", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "-> 0 (0% of undefended)" in out
        assert "collateral damage : 0%" in out

    def test_defend_none_is_identity(self, capsys):
        assert main(["defend", "--attack", "direct-unspoofed",
                     "--defense", "none", "--agents", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "100% of undefended" in out


class TestExperimentsForwarding:
    def test_unknown_id_exits_2(self, capsys):
        assert main(["experiments", "E99", "--scale", "0.2"]) == 2
        assert "unknown experiment id(s) E99" in capsys.readouterr().err

    def test_single_experiment(self, capsys):
        assert main(["experiments", "E5", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "E5: misuse attempts" in out

    def test_markdown_flag(self, capsys):
        assert main(["experiments", "E5", "--scale", "0.2", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| attempt |" in out

    def test_workers_flag_forwards_to_parallel_runner(self, capsys):
        assert main(["experiments", "E5", "--scale", "0.2", "-j", "2"]) == 0
        out = capsys.readouterr().out
        assert "E5: misuse attempts" in out


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("python -m repro ")
        # some dotted version follows the program name
        assert out.split()[-1][0].isdigit()


class TestObsCommand:
    def test_table_lists_every_layer(self, capsys):
        assert main(["obs"]) == 0
        out = capsys.readouterr().out
        for name in ("net.link.dropped_packets", "sim.events_processed",
                     "device.flow_cache_hits", "rpc.backoff_s",
                     "faults.injected", "scenario.attack_survival",
                     "service.checks", "service.admission_rejected",
                     "service.policy.swaps", "graph.packets_in",
                     "component.processed"):
            assert name in out

    def test_json_output_is_machine_readable(self, capsys):
        import json

        assert main(["obs", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in catalog}
        assert by_name["net.link.tx_packets"]["kind"] == "counter"
        assert by_name["net.link.tx_packets"]["labels"] == ["link"]
        assert by_name["rpc.backoff_s"]["kind"] == "histogram"
        assert by_name["scenario.legit_goodput"]["kind"] == "gauge"


class TestPolicyCommand:
    def test_show_dumps_ir_and_diagnostics(self, capsys):
        assert main(["policy", "show"]) == 0
        out = capsys.readouterr().out
        assert "HeaderFilter" in out and "pass->1" in out

    def test_verify_reports_ok(self, capsys):
        assert main(["policy", "verify"]) == 0
        assert "no errors" in capsys.readouterr().out

    def test_verify_prints_one_line_per_problem(self, capsys, monkeypatch):
        from repro.core import compose
        from repro.core.components import Capabilities, Component, Verdict
        from repro.core.graph import ComponentGraph

        class Grower(Component):
            capabilities = Capabilities(max_size_ratio=2.0)

            def process(self, packet, ctx):
                return Verdict.PASS

        def growers(spec, ctx):
            return ComponentGraph("amp").chain(Grower("g1"), Grower("g2"))

        monkeypatch.setattr(compose, "compile_spec", growers)
        assert main(["policy", "verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"error: component '{name}' may grow packets by factor 2.0: "
            "byte amplification is forbidden (Sec. 4.5)"
            for name in ("g1", "g2")]

    def test_spec_file_round_trip(self, capsys, tmp_path):
        import json

        spec_file = tmp_path / "svc.json"
        spec_file.write_text(json.dumps({
            "name": "svc",
            "rules": [
                {"action": "drop", "proto": "udp", "dport_not_in": [53]},
                {"action": "blacklist", "prefixes": ["203.0.113.0/24"]},
            ]}))
        assert main(["policy", "show", "--spec", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "svc@AS0" in out and "PrefixBlacklist" in out

    @pytest.mark.parametrize("rules", [
        # json accepts NaN; a NaN rate used to build an admit-all bucket
        '[{"action": "rate-limit", "rate_bps": NaN}]',
        '[{"action": "trigger", "threshold_pps": NaN}]',
        '[{"action": "rate-limit", "rate_bps": Infinity}]',
        '[{"action": "blacklist", "prefixes": ["10.0.0.0/33"]}]',
    ])
    def test_verify_rejects_bad_parameters(self, capsys, tmp_path, rules):
        spec_file = tmp_path / "svc.json"
        spec_file.write_text('{"name": "svc", "rules": %s}' % rules)
        assert main(["policy", "verify", "--spec", str(spec_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "shift" not in captured.err

    def test_bad_spec_file_is_an_error(self, capsys, tmp_path):
        import json

        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(
            {"name": "bad", "rules": [{"action": "teleport"}]}))
        assert main(["policy", "verify", "--spec", str(spec_file)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_field_is_an_error(self, capsys, tmp_path):
        spec_file = tmp_path / "svc.json"
        spec_file.write_text('{"name": "svc", "rules": '
                             '[{"action": "drop", "bogus": 1}]}')
        assert main(["policy", "show", "--spec", str(spec_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "bogus" in captured.err

    def test_bench_action_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["policy", "bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestMetricsOut:
    def test_scenario_run_exports_jsonl(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "metrics.jsonl"
        assert main(["scenario", "run", "--spec", "spoofed-flood-ingress",
                     "--scale", "0.5", "--metrics-out", str(out_file)]) == 0
        rows = [json.loads(line)
                for line in out_file.read_text().splitlines()]
        names = {row["name"] for row in rows}
        assert "net.link.tx_packets" in names
        assert "scenario.attack_survival" in names
        # the export includes the wall-clock span, flagged as a timer
        timer = next(r for r in rows if r["name"] == "scenario.run_seconds")
        assert timer["kind"] == "timer"
        assert timer["value"]["count"] == 1

    def test_export_matches_printed_metrics(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "metrics.jsonl"
        assert main(["scenario", "run", "--spec", "spoofed-flood-ingress",
                     "--scale", "0.5", "--metrics-out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        survival = next(
            json.loads(line)["value"]
            for line in out_file.read_text().splitlines()
            if json.loads(line)["name"] == "scenario.attack_survival")
        assert f"attack_survival   : {round(survival, 4)}" in printed


class TestScenarioCommand:
    def test_unknown_tcs_spec_rule_field_is_an_error(self, capsys, tmp_path):
        import json

        spec_file = tmp_path / "scenario.json"
        spec_file.write_text(json.dumps({
            "attack": {"kind": "direct-spoofed", "n_agents": 2},
            "defense": {"name": "tcs-spec", "params": {
                "rules": [{"action": "drop", "bogus": 1}]}}}))
        assert main(["scenario", "run", "--spec", str(spec_file),
                     "--engine", "packet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("packet: cannot run: ")
        assert "bogus" in captured.err


class TestServeCommand:
    def _request(self, port, tries=50):
        import http.client
        import time

        for attempt in range(tries):
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
                conn.request("GET", "/")
                response = conn.getresponse()
                body = response.read()
                conn.close()
                return response.status, body
            except OSError:
                if attempt == tries - 1:
                    raise
                time.sleep(0.05)

    def _free_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_serve_answers_and_exits_after_max_requests(self, capsys):
        import threading

        port = self._free_port()
        status = []
        thread = threading.Thread(
            target=lambda: status.append(main(
                ["serve", "--port", str(port), "--max-requests", "2"])))
        thread.start()
        try:
            # 127.0.0.1 is unowned by the protected subscriber -> direct pass
            assert self._request(port) == (200, b"ok\n")
            assert self._request(port) == (200, b"ok\n")
        finally:
            thread.join(timeout=10)
        assert status == [0]
        out = capsys.readouterr().out
        assert f"http://127.0.0.1:{port}/" in out
        assert "served 2 checks: 2 passed, 0 dropped" in out

    def test_admission_bucket_turns_away_excess_requests(self, capsys):
        import threading

        port = self._free_port()
        status = []
        thread = threading.Thread(
            target=lambda: status.append(main(
                ["serve", "--port", str(port), "--max-requests", "2",
                 "--admit-rate", "0.001", "--admit-burst", "1"])))
        thread.start()
        try:
            assert self._request(port)[0] == 200
            code, body = self._request(port)
        finally:
            thread.join(timeout=10)
        assert status == [0]
        assert code == 429
        assert body == b"blocked by traffic control service\n"
        assert "1 admission-rejected" in capsys.readouterr().out

    def test_build_serve_app_blocks_blacklisted_sources(self):
        from repro.cli import _build_serve_app

        facade, _controller, app = _build_serve_app(
            "10.0.0.0/24", ["203.0.113.0/24"], None)
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        body = b"".join(app({"REMOTE_ADDR": "203.0.113.5"}, start_response))
        assert captured["status"] == "403 Forbidden"
        assert body == b"blocked by traffic control service\n"
        assert facade._m_drop.value == 1

    def test_nan_admission_rate_is_rejected(self):
        from repro.cli import _build_serve_app
        from repro.errors import ReproError

        # used to build an always-admit bucket
        with pytest.raises(ReproError, match="invalid token bucket"):
            _build_serve_app("10.0.0.0/24", [], float("nan"))

    def test_bad_parameters_exit_2_before_serving(self, capsys):
        assert main(["serve", "--max-requests", "1",
                     "--block", "10.0.0.0/33"]) == 2
        captured = capsys.readouterr()
        assert "serving on" not in captured.out
        assert captured.err == "error: prefix length out of range: 33\n"


class TestScenarioCommand:
    def test_list_prints_the_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "reflector-tcs" in out
        assert "spoofed-flood-ingress" in out
        assert "defense=tcs" in out

    def test_run_preset_on_packet_engine(self, capsys):
        assert main(["scenario", "run", "--spec", "spoofed-flood-ingress",
                     "--engine", "packet"]) == 0
        out = capsys.readouterr().out
        assert "packet engine" in out
        assert "attack_survival" in out

    def test_run_spec_file(self, capsys, tmp_path):
        from repro.scenario import preset

        path = tmp_path / "spec.json"
        path.write_text(preset("spoofed-flood-ingress").to_json())
        assert main(["scenario", "run", "--spec", str(path)]) == 0
        assert "attack_survival" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        assert main(["scenario", "run", "--spec", "spoofed-flood-ingress",
                     "--seed", "7"]) == 0
        assert "seed=7" in capsys.readouterr().out

    def test_unknown_spec_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "--spec", "no-such-spec"]) == 2
        assert "neither a preset" in capsys.readouterr().err

    def test_fluid_engine_rejects_packet_only_spec(self, capsys):
        assert main(["scenario", "run", "--spec", "reflector-under-faults",
                     "--engine", "fluid"]) == 1
        assert "cannot run" in capsys.readouterr().err
