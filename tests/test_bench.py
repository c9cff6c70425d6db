"""Harness behavior: configs, aggregation, CSV bytes, and determinism.

The determinism contract is byte-level: the same config must produce the
same CSV bytes run to run, file to file, and from one version of the code
to the next. Tests here run the experiments at toy sizes only; the
acceptance suite drives them at measurement scale.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprox import ConfigurationError
from multiprox.bench import (
    AGG_HEADER,
    AggregateRow,
    CSV_HEADER,
    EXPERIMENTS,
    PRESETS,
    ArmResult,
    RunConfig,
    TraceRow,
    _mean_stderr,
    aggregate_replicates,
    default_cadence,
    emit_aggregate_csv,
    emit_csv,
    exp2_verdict,
    floor_info,
    load_config,
    preset,
    rate_summaries,
    run_experiment,
    save_config,
)


def row(t, sq, lyap=None, env=None, cp=0, ct=0, rep=0):
    return TraceRow(t=t, sq_dist=sq, lyapunov=lyap, theory_envelope=env,
                    comm_parallel=cp, comm_total=ct, replicate=rep)


class TestAggregation:
    def test_mean_stderr(self):
        mean, se = _mean_stderr([1.0, 3.0])
        assert mean == 2.0
        assert abs(se - 1.0) <= 1e-15
        assert _mean_stderr([5.0]) == (5.0, 0.0)
        assert _mean_stderr([2.0, 2.0, 2.0]) == (2.0, 0.0)

    def test_groups_by_iteration_in_order(self):
        rows = [
            row(5, 4.0, rep=1), row(0, 2.0, rep=1),
            row(0, 4.0, rep=0), row(5, 2.0, rep=0),
        ]
        agg = aggregate_replicates(rows)
        assert [a.t for a in agg] == [0, 5]
        assert all(a.sq_dist_mean == 3.0 for a in agg)
        assert all(a.replicates == 2 for a in agg)
        assert all(abs(a.sq_dist_stderr - 1.0) <= 1e-15 for a in agg)

    def test_partial_lyapunov_column_aggregates_to_absent(self):
        agg = aggregate_replicates([row(0, 1.0, lyap=2.0, rep=0),
                                    row(0, 1.0, lyap=None, rep=1)])
        assert agg[0].lyapunov_mean is None
        assert agg[0].lyapunov_stderr is None

    def test_envelope_takes_first_available_value(self):
        agg = aggregate_replicates([row(0, 1.0, env=None, rep=0),
                                    row(0, 1.0, env=7.0, rep=1)])
        assert agg[0].theory_envelope == 7.0

    def test_early_stopped_replicates_aggregate_over_survivors(self):
        rows = [row(0, 1.0, rep=0), row(0, 1.0, rep=1), row(10, 0.5, rep=0)]
        agg = aggregate_replicates(rows)
        assert agg[1].t == 10
        assert agg[1].replicates == 1
        assert agg[1].sq_dist_stderr == 0.0


def reference_aggregate(rows):
    """Per-group loop over ``_mean_stderr``: the reduction order the bytes pin."""
    by_t = {}
    for r in rows:
        by_t.setdefault(r.t, []).append(r)
    out = []
    for t in sorted(by_t):
        group = sorted(by_t[t], key=lambda r: r.replicate)
        sq_mean, sq_se = _mean_stderr([r.sq_dist for r in group])
        lyap = [r.lyapunov for r in group]
        lyap_mean, lyap_se = ((None, None) if None in lyap else _mean_stderr(lyap))
        env = next((r.theory_envelope for r in group if r.theory_envelope is not None), None)
        cp, _ = _mean_stderr([float(r.comm_parallel) for r in group])
        ct, _ = _mean_stderr([float(r.comm_total) for r in group])
        out.append(AggregateRow(t, sq_mean, sq_se, lyap_mean, lyap_se, env, cp, ct, len(group)))
    return out


@st.composite
def replicate_rows(draw):
    """Shuffled rows of 1-20 replicates, each logging its own set of t.

    Hypothesis picks the shape; the values come from a seeded generator
    across 60 decades, so that sums of more than eight of them (where
    pairwise and sequential summation part ways) round.
    """
    ts = [sorted(draw(st.sets(st.integers(0, 12), min_size=1)))
          for _ in range(draw(st.integers(1, 20)))]
    none_share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def value(p_none=0.0):
        return None if rng.random() < p_none else float(10.0 ** rng.uniform(-30, 30))

    rows = [TraceRow(t=t, sq_dist=value(), lyapunov=value(none_share),
                     theory_envelope=value(0.5),
                     comm_parallel=int(rng.integers(10**6)),
                     comm_total=int(rng.integers(10**9)), replicate=rep)
            for rep, rep_ts in enumerate(ts) for t in rep_ts]
    return [rows[i] for i in rng.permutation(len(rows))]


@settings(max_examples=100, deadline=None)
@given(rows=replicate_rows())
def test_aggregation_equals_the_per_group_loop_exactly(rows):
    assert aggregate_replicates(rows) == reference_aggregate(rows)


FLOOR = 1e-26


def trace_arm(*traces):
    """Arm whose replicate r logs traces[r] at t = 0, 10, 20, ..."""
    rows = [row(10 * i, sq, rep=r)
            for r, trace in enumerate(traces) for i, sq in enumerate(trace)]
    return ArmResult("arm", rows, aggregate_replicates(rows), floor_info(rows, FLOOR))


class TestExp2Verdict:
    def test_floor_scan_per_replicate(self):
        info = trace_arm([1.0, 1e-9, 1e-27, 1e-25], [1.0, 1e-26, 1e-27]).info
        assert info["iterations_to_floor"] == [20, 10]
        assert info["mean_iterations_to_floor"] == 15.0
        info = trace_arm([1.0, 1e-27], [1.0, 1e-20]).info
        assert info["iterations_to_floor"] == [10, None]
        assert info["mean_iterations_to_floor"] is None

    def test_above_the_floor_compares_final_means(self):
        grid = [trace_arm([1.0, 1e-3]), trace_arm([1.0, 1e-5])]
        for adaptive_final, expected in ((1e-4, False), (1e-5, True), (1e-6, True)):
            adaptive = trace_arm([1.0, adaptive_final])
            # the comparison from before the floor rule
            assert expected == (adaptive_final <= min(1e-3, 1e-5))
            assert exp2_verdict(grid, adaptive) == (1, expected)

    def test_adaptive_first_to_the_floor_wins(self):
        # grid-00 ends lowest but reaches the floor last; grid-01 is first
        grid = [trace_arm([1.0, 1e-10, 1e-15, 1e-29]),
                trace_arm([1.0, 1e-10, 5e-27, 5e-27])]
        adaptive = trace_arm([1.0, 5e-27, 8e-27, 8e-27])
        assert exp2_verdict(grid, adaptive) == (1, True)
        # ties go to the adaptive arm: replicates at 10 and 30 average 20
        adaptive = trace_arm([1.0, 5e-27, 8e-27, 8e-27], [1.0, 1.0, 1.0, 8e-27])
        grid = [trace_arm([1.0, 1e-10, 5e-27, 5e-27], [1.0, 1e-10, 5e-27, 5e-27])]
        assert exp2_verdict(grid, adaptive) == (0, True)

    def test_adaptive_later_to_the_floor_loses(self):
        grid = [trace_arm([1.0, 1e-10, 1e-15, 1e-29]),
                trace_arm([1.0, 1e-10, 5e-27, 5e-27])]
        # lower final mean than every grid arm, but the last to the floor
        adaptive = trace_arm([1.0, 1e-10, 1e-15, 1e-30])
        assert exp2_verdict(grid, adaptive) == (1, False)

    def test_one_side_at_the_floor_compares_final_means(self):
        above = trace_arm([1.0, 1e-20])
        at_floor = trace_arm([1.0, 5e-27])
        assert exp2_verdict([above], at_floor) == (0, True)
        assert exp2_verdict([at_floor], above) == (0, False)
        # one adaptive replicate short of the floor is not at the floor
        adaptive = trace_arm([1.0, 1e-30], [1.0, 1e-25])
        grid = [trace_arm([1.0, 1e-10, 5e-27]), trace_arm([1.0, 1e-20, 1e-20])]
        assert adaptive.info["mean_iterations_to_floor"] is None
        assert exp2_verdict(grid, adaptive) == (0, False)


class TestCsvEmission:
    def test_exact_trace_bytes(self, tmp_path):
        rows = [
            row(0, 1.5),
            row(1, 0.25, lyap=0.5, env=1.0, cp=3, ct=6),
            row(2, 0.1, rep=1),
        ]
        path = tmp_path / "trace.csv"
        emit_csv(rows, path)
        expected = (
            "t,sq_dist,lyapunov,theory_envelope,comm_parallel,comm_total,replicate\n"
            "0,1.5,,,0,0,0\n"
            "1,0.25,0.5,1,3,6,0\n"
            "2,0.10000000000000001,,,0,0,1\n"
        ).encode()
        assert path.read_bytes() == expected

    def test_floats_round_trip_through_the_format(self, tmp_path):
        values = [np.pi, 1e-300, 3.0, 2.0 / 3.0]
        path = tmp_path / "trace.csv"
        emit_csv([row(i, v) for i, v in enumerate(values)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        for line, v in zip(lines[1:], values):
            assert float(line.split(",")[1]) == v

    def test_aggregate_bytes(self, tmp_path):
        agg = aggregate_replicates([row(0, 2.0, lyap=4.0, env=8.0, cp=1, ct=2)])
        path = tmp_path / "agg.csv"
        emit_aggregate_csv(agg, path)
        expected = (AGG_HEADER + "\n" + "0,2,0,4,0,8,1,2,1\n").encode()
        assert path.read_bytes() == expected


class TestRunConfig:
    def test_dict_round_trip(self):
        cfg = RunConfig(experiment="exp1", seed=3, alpha=0.5, replicates=2)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_keys_from_other_experiments(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"experiment": "exp1", "mu": 1.0})
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"experiment": "exp3", "alpha": 0.5})

    def test_rejects_missing_or_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"seed": 1})
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict({"experiment": "exp9"})
        with pytest.raises(ConfigurationError):
            RunConfig(experiment="exp1", scale="huge")
        with pytest.raises(ConfigurationError):
            RunConfig(experiment="exp1", replicates=0)

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(experiment="exp3", k_values=[1, 2], mu=0.5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_bad_config_files(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(broken)
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_config(listy)

    def test_presets(self):
        assert sorted(PRESETS) == [
            "exp1-alpha005", "exp1-alpha05", "exp1-alpha095",
            "exp2", "exp3-L50", "exp3-L500", "exp3-L5000",
        ]
        for name in PRESETS:
            assert preset(name).experiment in EXPERIMENTS
        with pytest.raises(ConfigurationError):
            preset("exp4")

    def test_default_cadence(self):
        assert default_cadence(0)
        assert default_cadence(1000)
        assert not default_cadence(1001)
        assert default_cadence(1010)


def tiny_exp3_config(out=None):
    return RunConfig(experiment="exp3", seed=7, n=4, d=4, mu=1.0, l_max=3.0,
                     k_values=[2], replicates=2, iterations=30, out=out)


# (config, sha256 of every output file) of one tiny run per experiment
GOLDEN = [
    (RunConfig(experiment="exp1", seed=1, n=6, d=6, l_max=20.0, replicates=2,
               iterations=3000, target=1e-3), {
        "exp1-importance-agg.csv":
            "6cc1c4f0226a1ffcbf7d49bf6b34c8133e7fd559576f1ce6510dd51048912fd4",
        "exp1-importance.csv":
            "839450f3313632e2977e59ae7f3b2669032baa1111c4ebcda9d0857766a23d2b",
        "exp1-summary.json":
            "536cd167b06447ad86ab261f7bc2ce171510da9759be04b68686a65c09077f30",
        "exp1-uniform-agg.csv":
            "3ced4dc959692968fbd715f5b8326d78da17295a92956bd51bcb9face211b5c9",
        "exp1-uniform.csv":
            "26aee7f6f47ee317b408157097504541938017329d53b52526f51913b267c4c4",
    }),
    (RunConfig(experiment="exp2", seed=2, d=8, grid=[0.5, 0.25], replicates=2,
               iterations=200), {
        "exp2-adaptive-agg.csv":
            "b98cbe0af6e149496b4f1816a14531044afaba79d4809e1a606e28686c84ed9f",
        "exp2-adaptive.csv":
            "9347837207c143269e65e4921b2ed9f6bb80241f486ab1e1fdfb8976583a9e3f",
        "exp2-grid-00-agg.csv":
            "b7243e39d9dc4fbb4584cc5ca5da9d8ef4021ed3f5ca697394b44238ad4c73a0",
        "exp2-grid-00.csv":
            "b88501581de65fa505dd5d324de6aa14555bf54c14db6949679455ec88b561cc",
        "exp2-grid-01-agg.csv":
            "f4acf38e810a1d58453c6c54cfa57e3ebcca75009dcbc74ef20b61ba402655c0",
        "exp2-grid-01.csv":
            "d6c5196891af3764be388fc43981db34f1683308f7ab4b46352fc5b2e6d2ca02",
        "exp2-summary.json":
            "3b3b436d09150ed71db763298a5f93382c6e64b4dc42d82a58d4bd681ebe9f3d",
    }),
    (RunConfig(experiment="exp3", seed=7, n=4, d=4, mu=1.0, l_max=3.0, k_values=[1, 4],
               replicates=2, iterations=30), {
        "exp3-k-1-agg.csv":
            "cafaf9379cdcb71a413aed6e7985059d783f2e9ae09626307079b5e4be1b89fc",
        "exp3-k-1.csv":
            "df79fbfdefa46d76fb0b95ed41df61d31598ca56307f66f65fde3f55db406a5d",
        "exp3-k-4-agg.csv":
            "20d59c61a929fb784d808e50e628b4ac4f9601d0ced4a1881ca46b4d6d1ed09f",
        "exp3-k-4.csv":
            "a792ea84f690047bdf26f58c76c74e247041b6fa24fd895c342d96fd2c6a90c7",
        "exp3-summary.json":
            "1368a1199898fc81da89208585df9a5b4287c823846c8d4c3a9bc10e6e52b9ed",
    }),
]


class TestExperimentRuns:
    def test_exp3_files_are_byte_identical_across_runs(self, tmp_path):
        contents = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = run_experiment(tiny_exp3_config(out=str(out)))
            names = sorted(p.name for p in out.iterdir())
            assert names == ["exp3-k-2-agg.csv", "exp3-k-2.csv", "exp3-summary.json"]
            contents.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert set(result.files) == {str(out / n) for n in names}
        assert contents[0] == contents[1]

    def test_exp3_summary_content(self):
        result = run_experiment(tiny_exp3_config())
        assert result.summary["k_values"] == [2]
        assert 0.0 < result.summary["rho"]["2"] < 1.0
        # full batch of 4 clients shipping k=2 reals for 30 rounds
        assert result.summary["uplink_total"]["2"] == 30 * 2 * 4
        arm = result.arms["k-2"]
        assert arm.rows[0].t == 0
        assert arm.info["iteration_complexity"] > 0
        envs = [r.theory_envelope for r in arm.rows]
        assert all(e is not None for e in envs)

    def test_exp1_structure_and_target_accounting(self):
        cfg = RunConfig(experiment="exp1", seed=1, n=6, d=6, l_max=20.0,
                        replicates=2, iterations=5000, target=1e-3)
        result = run_experiment(cfg)
        assert set(result.arms) == {"uniform", "importance"}
        for arm in result.arms.values():
            hits = arm.info["iterations_to_target"]
            assert len(hits) == 2
            assert all(h is not None and 0 < h <= 5000 for h in hits)
            final_rows = [r for r in arm.rows if r.sq_dist <= 1e-3]
            assert final_rows
            assert arm.info["rho"] < 1.0
        assert result.summary["gap"] is not None

    def test_exp2_structure(self):
        cfg = RunConfig(experiment="exp2", seed=2, d=8, grid=[0.5, 0.25],
                        replicates=2, iterations=200)
        result = run_experiment(cfg)
        assert set(result.arms) == {"grid-00", "grid-01", "adaptive"}
        assert result.summary["best_grid_index"] in (0, 1)
        assert isinstance(result.summary["adaptive_beats_best_grid"], bool)
        assert all(len(arm.info["iterations_to_floor"]) == 2
                   for arm in result.arms.values())
        adaptive = result.arms["adaptive"]
        assert all(r.theory_envelope is not None for r in adaptive.rows)
        # decreasing-stepsize envelope shrinks like 1/t^2
        t_env = {r.t: r.theory_envelope for r in adaptive.rows if r.replicate == 0}
        assert t_env[200] < t_env[100] < t_env[0]

    def test_output_bytes_match_the_pinned_digests(self, tmp_path):
        # sha256 of every output file of one tiny run per experiment; a
        # refactor that changes any byte of a trace, aggregate or summary
        # fails here
        for cfg, digests in GOLDEN:
            out = tmp_path / cfg.experiment
            run_experiment(dataclasses.replace(cfg, out=str(out)))
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
            assert got == digests, cfg.experiment

    def test_rate_summaries_per_experiment(self):
        exp1 = rate_summaries(RunConfig(experiment="exp1", n=6, d=6, l_max=20.0))
        assert set(exp1) == {"uniform", "importance"}
        for report in exp1.values():
            assert 0.0 < report["rho"] < 1.0
            assert report["binding"] in ("distance", "dual")
        exp2 = rate_summaries(RunConfig(experiment="exp2", d=8))
        assert isinstance(exp2["grid"], str)
        assert exp2["adaptive"]["a"] == 5.5
        exp3 = rate_summaries(tiny_exp3_config())
        assert set(exp3) == {"k-2"}
        assert exp3["k-2"]["rho"] is not None
