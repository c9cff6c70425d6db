"""Command line interface: subcommands, JSON output, exit codes."""

import json
import math
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

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
            # gamma(-1) = 2 / (mu (a - 1)) squares past float64
            {"experiment": "exp2", "mu": 1e-300, "d": 3, "iterations": 5, "replicates": 1},
        ]):
            cfg = write_config(tmp_path, payload, name=f"typed-{i}.json")
            for command in ("run", "rates"):
                result = CliRunner().invoke(main, [command, "--config", cfg])
                assert result.exit_code == 1, (command, payload)
                assert "error:" in result.output, (command, payload)


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


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def small_configs(draw):
    experiment = draw(st.sampled_from(["exp1", "exp2", "exp3"]))
    cfg = {"experiment": experiment, "seed": draw(st.integers(0, 1000)),
           "d": draw(st.integers(1, 6)), "iterations": draw(st.integers(1, 20)),
           "replicates": draw(st.integers(1, 2))}
    if experiment == "exp1":
        cfg.update(n=draw(st.integers(1, 6)), alpha=draw(st.floats(0.01, 1.0)),
                   l_max=draw(log_uniform(1e-3, 1e6)))
    elif experiment == "exp2":
        cfg.update(mu=draw(log_uniform(1e-300, 1e2)), a_offset=draw(log_uniform(1.0, 1e4)),
                   grid=[0.5])
    else:
        cfg.update(n=draw(st.integers(1, 6)), mu=draw(log_uniform(1e-300, 1e2)),
                   l_max=draw(log_uniform(1e-3, 1e6)), k_values=[1])
    return cfg


class TestRatesAgreeWithRun:
    @settings(max_examples=60, deadline=None)
    @given(payload=small_configs())
    def test_rates_refuses_exactly_when_run_refuses(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), payload)
            results = {command: CliRunner().invoke(main, [command, "--config", cfg])
                       for command in ("run", "rates")}
        for command, result in results.items():
            # a traceback escapes as an exception other than the exit
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command, payload, result.exception)
        assert (results["run"].exit_code == 2) == (results["rates"].exit_code == 2), payload


class TestBench:
    def test_subcommand_is_registered(self):
        result = CliRunner().invoke(main, ["bench", "--help"])
        assert result.exit_code == 0
        assert "preset experiment" in result.output

    def test_rejects_unknown_experiment(self):
        result = CliRunner().invoke(main, ["bench", "exp9"])
        assert result.exit_code != 0
