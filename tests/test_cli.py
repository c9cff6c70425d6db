"""Command line interface: subcommands, JSON output, exit codes."""

import json

from click.testing import CliRunner

from multiprox.cli import main


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tiny_exp3(tmp_path, name="cfg.json", **extra):
    payload = {"experiment": "exp3", "seed": 7, "n": 4, "d": 4, "mu": 1.0,
               "l_max": 3.0, "k_values": [2], "replicates": 2, "iterations": 25}
    payload.update(extra)
    return write_config(tmp_path, payload, name=name)


class TestRun:
    def test_runs_and_prints_summary_json(self, tmp_path):
        result = CliRunner().invoke(main, ["run", "--config", tiny_exp3(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["experiment"] == "exp3"
        assert payload["summary"]["k_values"] == [2]
        assert payload["arms"]["k-2"]["k"] == 2
        assert payload["files"] == []

    def test_out_override_writes_files(self, tmp_path):
        out = tmp_path / "results"
        result = CliRunner().invoke(
            main, ["run", "--config", tiny_exp3(tmp_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert len(payload["files"]) == 3
        assert (out / "exp3-k-2.csv").exists()

    def test_seed_override_matches_baked_in_seed(self, tmp_path):
        overridden = CliRunner().invoke(
            main, ["run", "--config", tiny_exp3(tmp_path), "--seed", "9"]
        )
        baked = CliRunner().invoke(
            main, ["run", "--config", tiny_exp3(tmp_path, seed=9, name="cfg2.json")]
        )
        assert overridden.exit_code == 0 and baked.exit_code == 0
        assert overridden.output == baked.output

    def test_hypothesis_failure_exits_2(self, tmp_path):
        # offset at or below 5 violates the decreasing-stepsize hypotheses
        cfg = write_config(tmp_path, {
            "experiment": "exp2", "d": 8, "grid": [0.5], "replicates": 1,
            "iterations": 10, "a_offset": 3.0,
        })
        result = CliRunner().invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 2
        assert "rejected:" in result.output

    def test_config_errors_exit_1(self, tmp_path):
        bad_key = write_config(tmp_path, {"experiment": "exp3", "alpha": 0.5})
        result = CliRunner().invoke(main, ["run", "--config", bad_key])
        assert result.exit_code == 1
        assert "error:" in result.output

        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        result = CliRunner().invoke(main, ["run", "--config", str(broken)])
        assert result.exit_code == 1

        result = CliRunner().invoke(
            main, ["run", "--config", str(tmp_path / "missing.json")]
        )
        assert result.exit_code == 1

        # badly typed values get the same message and exit code, no traceback
        for i, payload in enumerate([
            {"experiment": "exp3", "n": "abc"},
            {"experiment": "exp2", "replicates": 1.5},
            {"experiment": "exp2", "iterations": "5"},
            # out-of-range values, which unset-default fallbacks once hid
            {"experiment": "exp3", "n": 0, "iterations": 2, "replicates": 1},
            {"experiment": "exp2", "grid": [], "iterations": 2, "replicates": 1},
            {"experiment": "exp1", "l_max": 0.0, "iterations": 2, "replicates": 1},
            {"experiment": "exp2", "d": -3},
            {"experiment": "exp1", "alpha": 1.5},
            {"experiment": "exp1", "target": 0.0},
            {"experiment": "exp2", "grid": [1.0, -0.5]},
            {"experiment": "exp3", "mu": 0.0},
            {"experiment": "exp3", "k_values": []},
            {"experiment": "exp3", "k_values": [2, 0]},
            # keys the experiment never reads
            {"experiment": "exp2", "n": 3},
            {"experiment": "exp2", "target": 0.5},
            {"experiment": "exp3", "target": 10.0},
        ]):
            cfg = write_config(tmp_path, payload, name=f"typed-{i}.json")
            result = CliRunner().invoke(main, ["run", "--config", cfg])
            assert result.exit_code == 1, payload
            assert "error:" in result.output, payload


class TestRates:
    def test_prints_reports_for_each_arm(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "exp1", "n": 6, "d": 6,
                                      "l_max": 20.0})
        result = CliRunner().invoke(main, ["rates", "--config", cfg])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert set(payload) == {"uniform", "importance"}
        for report in payload.values():
            assert 0.0 < report["rho"] < 1.0

    def test_refuses_what_run_refuses(self, tmp_path):
        # offset at or below 5 violates the decreasing-stepsize hypotheses
        cfg = write_config(tmp_path, {"experiment": "exp2", "a_offset": 3.0, "d": 8,
                                      "iterations": 5, "replicates": 1})
        result = CliRunner().invoke(main, ["rates", "--config", cfg])
        assert result.exit_code == 2
        assert "rejected:" in result.output

    def test_federated_reports(self, tmp_path):
        result = CliRunner().invoke(main, ["rates", "--config", tiny_exp3(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["k-2"]["kind"] == "federated"
        assert payload["k-2"]["iteration_complexity"] > 0


class TestBench:
    def test_subcommand_is_registered(self):
        result = CliRunner().invoke(main, ["bench", "--help"])
        assert result.exit_code == 0
        assert "preset experiment" in result.output

    def test_rejects_unknown_experiment(self):
        result = CliRunner().invoke(main, ["bench", "exp9"])
        assert result.exit_code != 0
