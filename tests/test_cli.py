"""Command line interface: subcommands, JSON output, exit codes."""

import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprox import bench
from multiprox.bench import preset
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

        # a repeated k once ran its arm twice and kept one
        duplicate_k = {"experiment": "exp3", "n": 4, "d": 4, "k_values": [2, 2],
                       "replicates": 1, "iterations": 20}
        # numpy's own refusal of a negative seed did not name the key
        negative_seed = {"experiment": "exp3", "seed": -1, "n": 4, "d": 4,
                         "k_values": [2], "replicates": 1, "iterations": 3}

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
            duplicate_k,
            # keys the experiment never reads
            {"experiment": "exp2", "n": 3},
            {"experiment": "exp2", "target": 0.5},
            {"experiment": "exp3", "target": 10.0},
            # gamma(-1) = 2 / (mu (a - 1)) squares past float64
            {"experiment": "exp2", "mu": 1e-300, "d": 3, "iterations": 5, "replicates": 1},
            negative_seed,
        ]):
            cfg = write_config(tmp_path, payload, name=f"typed-{i}.json")
            for command in ("run", "rates"):
                result = CliRunner().invoke(main, [command, "--config", cfg])
                assert result.exit_code == 1, (command, payload)
                assert "error:" in result.output, (command, payload)
        cfg = write_config(tmp_path, duplicate_k, name="duplicate-k.json")
        assert "distinct" in CliRunner().invoke(main, ["run", "--config", cfg]).output
        cfg = write_config(tmp_path, negative_seed, name="negative-seed.json")
        for command in ("run", "rates"):
            assert "seed" in CliRunner().invoke(main, [command, "--config", cfg]).output

    @pytest.mark.parametrize("payload", [
        # d n L_h mu_h overflows, so the planned stepsize was 0 and the
        # complexity divided by it
        {"experiment": "exp3", "n": 3, "d": 3, "l_max": 1e308, "k_values": [1, 3]},
        # the same product underflows to 0
        {"experiment": "exp3", "n": 3, "d": 3, "mu": 1e-300, "l_max": 2e-300,
         "k_values": [1, 3]},
    ])
    def test_a_federated_plan_that_under_or_overflows_is_an_error(self, tmp_path, payload):
        cfg = write_config(tmp_path, {**payload, "replicates": 1, "iterations": 50})
        for command in ("run", "rates"):
            result = CliRunner().invoke(main, [command, "--config", cfg])
            assert isinstance(result.exception, SystemExit), (command, result.exception)
            assert result.exit_code == 1, (command, result.output)
            assert "error:" in result.output and "under- or overflow" in result.output

    def test_a_generated_reference_that_overflows_is_an_error(self, tmp_path):
        # -d mu W x* overflows, so u* held +-inf; `run` then died on a zero
        # stepsize and `rates` printed a report
        cfg = write_config(tmp_path, {"experiment": "exp2", "d": 3, "mu": 1e308,
                                      "grid": [0.5], "replicates": 1, "iterations": 50})
        for command in ("run", "rates"):
            result = CliRunner().invoke(main, [command, "--config", cfg])
            assert isinstance(result.exception, SystemExit), (command, result.exception)
            assert result.exit_code == 1, (command, result.output)
            assert "error:" in result.output and "under- or overflow" in result.output

    def test_a_budget_past_d_is_refused_before_any_arm_is_derived(self, tmp_path):
        # k = 1 alone has no contraction at this mu, which `rates` once
        # reported with exit 2 because it skipped the budget check
        cfg = write_config(tmp_path, {
            "experiment": "exp3", "n": 3, "d": 3, "mu": 1e-300, "l_max": 1.0,
            "k_values": [1, 4], "replicates": 1, "iterations": 50,
        })
        outputs = []
        for command in ("run", "rates"):
            result = CliRunner().invoke(main, [command, "--config", cfg])
            assert result.exit_code == 1, (command, result.output)
            outputs.append(result.output)
        assert outputs[0] == outputs[1] == "error: coordinate budget 4 outside [1, 3]\n"

    def test_a_bad_adaptive_arm_is_refused_before_the_grid_runs(self, tmp_path, monkeypatch):
        steps = []
        original = bench.step
        monkeypatch.setattr(bench, "step", lambda *args: steps.append(1) or original(*args))
        cfg = write_config(tmp_path, {"experiment": "exp2", "d": 200, "a_offset": 5.0,
                                      "replicates": 2, "iterations": 20000})
        result = CliRunner().invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "rejected: schedule offset must exceed 5" in result.output
        assert steps == []


RATES_GOLDEN = {
    "exp1-alpha005": "4343e7f89540242db155611a96a08f5a1f9e91246226f8056c840982e84a61df",
    "exp2": "fab107383041b4469e60f24e29f378596c11e32ab7666ed01045180f0d40928c",
    "exp3-L50": "00d92a689665c589f9ceb4321293b072b1a4ad4e1f87158ec9d6c026b9cd7e75",
}


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

    def test_preset_reports_are_pinned(self, tmp_path):
        # sha256 of the printed reports; any change to a certified factor or
        # its derivation moves them
        for name, digest in RATES_GOLDEN.items():
            payload = {key: value for key, value in dataclasses.asdict(preset(name)).items()
                       if value is not None}
            cfg = write_config(tmp_path, payload, name=f"{name}.json")
            result = CliRunner().invoke(main, ["rates", "--config", cfg])
            assert result.exit_code == 0, result.output
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, name

    def test_federated_reports(self, tmp_path):
        result = CliRunner().invoke(main, ["rates", "--config", tiny_exp3(tmp_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["k-2"]["kind"] == "federated"
        assert payload["k-2"]["iteration_complexity"] > 0


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def small_configs(draw, certified=False):
    # certified: only the experiments whose every arm carries a certificate
    experiment = draw(st.sampled_from(["exp1", "exp3"] if certified
                                      else ["exp1", "exp2", "exp3"]))
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
        # k = d + 1 is refused by the budget check that `run` and `rates` share
        cfg.update(n=draw(st.integers(1, 6)), mu=draw(log_uniform(1e-300, 1e2)),
                   l_max=draw(log_uniform(1e-3, 1e6)),
                   k_values=draw(st.lists(st.integers(1, cfg["d"] + 1), min_size=1,
                                          max_size=2, unique=True)))
    return cfg


class TestRatesAgreeWithRun:
    @settings(max_examples=60, deadline=None)
    @given(payload=small_configs())
    # k = 1 has no contraction at this mu and k = 4 exceeds d
    @example(payload={"experiment": "exp3", "seed": 0, "n": 3, "d": 3, "mu": 1e-300,
                      "l_max": 1.0, "k_values": [1, 4], "replicates": 1, "iterations": 5})
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

    @settings(max_examples=300, deadline=None)
    @given(payload=small_configs(certified=True))
    def test_a_certified_run_does_not_leave_the_trust_region(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), payload)
            if CliRunner().invoke(main, ["rates", "--config", cfg]).exit_code != 0:
                return
            result = CliRunner().invoke(main, ["run", "--config", cfg])
        assert "trust region" not in result.output, (payload, result.output)

    def test_a_tiny_mu_run_stays_inside_its_certificate(self, tmp_path):
        # gamma = 8.9e14 with rho = 1 - 3e-16: ||x_t - x*||^2 reaches 3.7e31,
        # past a fixed radius of 1e12, while psi_t stays below psi_0 = 4.6e32
        cfg = write_config(tmp_path, {
            "experiment": "exp3", "seed": 640, "d": 4, "n": 4, "mu": 2.1488e-31,
            "l_max": 1.0, "k_values": [1], "iterations": 15, "replicates": 2,
        })
        for command in ("rates", "run"):
            result = CliRunner().invoke(main, [command, "--config", cfg])
            assert result.exit_code == 0, (command, result.output)

    def test_exact_federated_path_refuses_a_rate_without_contraction(self, tmp_path):
        # at mu = 1e-40 the certified factor rounds to 1.0
        cfg = write_config(tmp_path, {
            "experiment": "exp3", "seed": 1, "n": 4, "d": 4, "mu": 1e-40, "l_max": 3.0,
            "k_values": [2], "replicates": 1, "iterations": 5,
        })
        for command in ("run", "rates"):
            result = CliRunner().invoke(main, [command, "--config", cfg])
            assert result.exit_code == 2, (command, result.output)
            assert "no contraction" in result.output, command


class TestBench:
    def test_subcommand_is_registered(self):
        result = CliRunner().invoke(main, ["bench", "--help"])
        assert result.exit_code == 0
        assert "preset experiment" in result.output

    def test_rejects_unknown_experiment(self):
        result = CliRunner().invoke(main, ["bench", "exp9"])
        assert result.exit_code != 0

    # each preset shrunk to a few steps; alpha and l_max stay the preset's
    TINY = {"exp1": dict(n=4, d=4, replicates=1, iterations=200),
            "exp2": dict(d=4, grid=[0.5], replicates=1, iterations=30),
            "exp3": dict(n=4, d=4, k_values=[1, 2], replicates=1, iterations=30)}

    @pytest.mark.parametrize("experiment, runs", [
        ("exp1", {"alpha-0.95": "exp1", "alpha-0.5": "exp1", "alpha-0.05": "exp1"}),
        ("exp2", {".": "exp2"}),
        ("exp3", {name: "exp3" for name in ("exp3-L50", "exp3-L500", "exp3-L5000")}),
    ])
    def test_runs_every_preset_into_its_directory(self, tmp_path, monkeypatch,
                                                  experiment, runs):
        for name, cfg in bench.PRESETS.items():
            monkeypatch.setitem(bench.PRESETS, name,
                                dataclasses.replace(cfg, **self.TINY[cfg.experiment]))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["bench", experiment, "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(
            run for run in runs if run != ".")
        summaries = {run: json.loads((out / run / f"{exp}-summary.json").read_text())
                     for run, exp in runs.items()}
        # every run is its shrunk preset: one replicate, numbered 0
        for run in runs:
            for trace in (out / run).glob("*[!g].csv"):
                rows = trace.read_text().splitlines()[1:]
                assert {row.rsplit(",", 1)[1] for row in rows} == {"0"}, trace
        if experiment == "exp1":
            assert set(payload) == {"per_alpha", "gaps", "gap_widens_monotonically"}
            assert payload["per_alpha"] == {
                run.removeprefix("alpha-"): summary for run, summary in summaries.items()}
            assert payload["gaps"] == [summary["gap"] for summary in summaries.values()]
        elif experiment == "exp2":
            assert payload == summaries["."]
            assert payload["grid"] == [0.5]
        else:
            assert payload == summaries
            assert all(summary["k_values"] == [1, 2] for summary in payload.values())
