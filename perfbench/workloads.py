"""Workloads and the metric catalogue of the multiprox benchmark.

Every workload is a reduced config of one reference experiment family. It is
driven only through the package's public calls: ``run_experiment`` for the
full harness path, the instance generators and parameter planners for
set-up (``bench.exp1_arms`` for the exp1 family, the harness's own set-up),
and ``run`` / ``fed_run`` for the library solve.

The catalogue below is the single source of ``BENCHMARK.json``; run
``python3 perfbench/report.py`` to print every metric and rewrite it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # RunConfig keyword arguments, without seed and out
    config: dict
    # The same config shrunk for the smoke test
    tiny: dict
    # Arm of the library solve, its length and its sink cadence
    solve_arm: str
    solve_steps: int
    solve_every: int
    tiny_solve_steps: int = 40


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="singleton-hyperplane",
        why=("exp2 hyperplanes with singleton draws and an O(d) prox, so per-step "
             "Python overhead, dense-cadence Lyapunov rows and aggregation dominate"),
        config=dict(experiment="exp2", d=200, mu=1e-5, a_offset=5.5,
                    grid=[2.5, 0.625], replicates=2, iterations=4_000),
        tiny=dict(experiment="exp2", d=20, mu=1e-5, a_offset=5.5,
                  grid=[2.5, 0.625], replicates=2, iterations=300),
        solve_arm="adaptive", solve_steps=8_000, solve_every=4_000,
    ),
    Workload(
        name="importance-target",
        why=("exp1 quadratics run to a 1e-6 target, so an O(d^2) prox, weighted "
             "draws and the early-stop check dominate and set-up is real"),
        config=dict(experiment="exp1", n=100, d=100, alpha=0.05, l_max=1000.0,
                    replicates=2, target=1e-6),
        tiny=dict(experiment="exp1", n=10, d=10, alpha=0.05, l_max=1000.0,
                  replicates=2, target=1e-6),
        solve_arm="importance", solve_steps=5_000, solve_every=2_500,
    ),
    Workload(
        name="federated-fullbatch",
        why=("exp3 compressed rounds over all 100 clients, so the per-client prox "
             "loop, compress and rescale dominate and sampling does almost nothing"),
        config=dict(experiment="exp3", n=100, d=100, mu=1.0, l_max=50.0,
                    k_values=[1, 10], replicates=1, iterations=100),
        tiny=dict(experiment="exp3", n=10, d=10, mu=1.0, l_max=50.0,
                  k_values=[1, 10], replicates=1, iterations=30),
        solve_arm="k-10", solve_steps=50, solve_every=25, tiny_solve_steps=20,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def config_for(workload: Workload, tiny: bool) -> dict:
    return dict(workload.tiny if tiny else workload.config)


# ---------------------------------------------------------------------------
# Set-up and the library solve


def _instance_rng(mp, seed: int):
    # The harness spawns its instance stream from the base seed; doing the
    # same here makes the set-up instance the one run_experiment builds.
    return mp.generator(mp.seed_sequence(seed).spawn(1)[0])


def setup(mp, workload: Workload, cfg: dict, seed: int, steps: int):
    """Instance generation, parameter derivation and Lyapunov specs.

    This is exactly the work timed as ``setup_s``. It returns the library
    solve of the workload's solve arm on the same instance: a function of a
    stream seed giving (steps taken, final iterate, squared distances the
    sink saw).
    """
    from multiprox import solver as solver_mod

    exp = cfg["experiment"]
    every = workload.solve_every
    if exp == "exp2":
        instance = mp.generate_instance(
            "exp2", _instance_rng(mp, seed), d=cfg["d"], mu=cfg["mu"])
        dist = mp.UniformMinibatch(instance.n, 1)
        for gamma in cfg["grid"]:
            mp.derive_params(instance, dist, mp.Constant(gamma))
        params = mp.derive_params(instance, dist, mp.Adaptive(mu=cfg["mu"], a=cfg["a_offset"]))
        mp.make_lyapunov_spec(solver_mod.ACCEL_NONEMPTY, instance, dist, params)
        return lambda s: _solver_solve(mp, instance, params, dist, None, s, steps, every)
    if exp == "exp1":
        instance, arms = mp.bench.exp1_arms(mp.RunConfig(seed=seed, **cfg))
        for dist, arm_params in arms.values():
            mp.make_lyapunov_spec(solver_mod.LINEAR_SMOOTH, instance, dist, arm_params)
        dist, params = arms[workload.solve_arm]
        x0 = np.full(instance.d, 10.0)
        return lambda s: _solver_solve(mp, instance, params, dist, x0, s, steps, every)
    instance = mp.generate_instance(
        "exp3", _instance_rng(mp, seed), n=cfg["n"], d=cfg["d"], mu=cfg["mu"], l_max=cfg["l_max"])
    dist = mp.FullBatch(instance.n)
    feds = {}
    for k in cfg["k_values"]:
        fed = mp.derive_fed_params(instance, dist, k)
        if fed.rho is not None:
            mp.make_lyapunov_spec(solver_mod.LINEAR_SMOOTH, instance, fed.effective, fed.solver)
        feds[f"k-{k}"] = fed
    fed = feds[workload.solve_arm]
    x0 = np.full(instance.d, 10.0)
    return lambda s: _fed_solve(mp, instance, fed, dist, x0, s, steps, every)


def _solver_solve(mp, instance, params, dist, x0, seed, steps, every):
    seen: list[float] = []
    state = mp.initial_state(instance, x0=x0, track_z=params.track_z)
    state = mp.run(instance, params, dist, mp.generator(seed), steps,
                   sink=lambda t, sq, psi, dual: seen.append(sq),
                   state=state, cadence=every)
    return state.t, state.x, seen


def _fed_solve(mp, instance, fed, dist, x0, seed, steps, every):
    seen: list[float] = []
    server, _, _ = mp.fed_run(instance, fed, dist, seed, steps,
                              sink=lambda t, sq, psi, comm: seen.append(sq),
                              x0=x0, cadence=every)
    return server.t, server.x, seen


# ---------------------------------------------------------------------------
# Metric catalogue


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def manifest(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END: tuple[Metric, ...] = (
    # Times and rates are medians over the calls of one run, each call timed
    # in reference seconds (ref_s) by run.Clock: wall time rescaled to a
    # machine on which its calibration kernel takes Clock.NOMINAL_S. So the
    # rates are per reference second, and setup_s, whose unit stays a plain
    # s, is in reference seconds too. The run's detail line holds the raw
    # wall-clock medians and the kernel's own median time.
    #
    # Harness iterations (solver steps or federated rounds, summed over arms
    # and replicates) per reference second of one run_experiment call,
    # including set-up, logging, aggregation and file writes. Per step
    # rather than per call because the early-stop workload does
    # seed-dependent work.
    Metric("run_steps_per_s", "1/ref_s", "higher", 0.2),
    Metric("solve_steps_per_s", "1/ref_s", "higher", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    # share of gated calls that neither raised nor failed a check
    Metric("ok_frac", "frac", "higher", 0.01),
)

# Span names recorded by the traced run, in catalogue order.
SAMPLE_LAWS = ("uniform_minibatch", "singleton_weighted", "full_batch")
PROX_FAMILIES = ("hyperplane_ridge", "quadratic")
SPANS = (
    "bench.run_experiment",
    "problems.generate_instance",
    "solver.derive_params",
    "federated.derive_fed_params",
    "solver.step",
    *(f"sampling.sample.{law}" for law in SAMPLE_LAWS),
    *(f"problems.prox.{fam}" for fam in PROX_FAMILIES),
    "solver.lyapunov",
    "federated.fed_run",
    "federated.fed_step",
    "federated.compress",
    "federated.rescale",
    "bench.aggregate_replicates",
    "bench.emit_csv",
    "bench.emit_aggregate_csv",
)

# Per-call distributions: metric -> (span name, self time instead of duration)
DISTRIBUTIONS: dict[str, tuple[str, bool]] = {
    **{f"sampling.sample_us.{law}": (f"sampling.sample.{law}", False) for law in SAMPLE_LAWS},
    **{f"problems.prox_us.{fam}": (f"problems.prox.{fam}", False) for fam in PROX_FAMILIES},
    "solver.step_us": ("solver.step", False),
    "solver.step_self_us": ("solver.step", True),
    "solver.lyapunov_us": ("solver.lyapunov", False),
    "federated.round_us": ("federated.fed_step", False),
    "federated.round_self_us": ("federated.fed_step", True),
    "federated.compress_us": ("federated.compress", False),
    "federated.rescale_us": ("federated.rescale", False),
}

# Per-run totals: metric -> (span names, unit)
TOTALS: dict[str, tuple[tuple[str, ...], str]] = {
    "problems.generate_s": (("problems.generate_instance",), "s"),
    "solver.derive_params_ms": (("solver.derive_params",), "ms"),
    "federated.derive_fed_params_ms": (("federated.derive_fed_params",), "ms"),
    "bench.aggregate_ms": (("bench.aggregate_replicates",), "ms"),
    "bench.emit_ms": (("bench.emit_csv", "bench.emit_aggregate_csv"), "ms"),
}

COUNTS = (
    "sampling.draws",
    "sampling.empty_draws",
    "problems.prox_calls",
    "solver.steps",
    "solver.lyapunov_calls",
    "federated.rounds",
    "federated.uplink_reals",
    "bench.rows",
    "bench.csv_bytes",
)


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for name in DISTRIBUTIONS:
        out += [Metric(name, "us", "lower"), Metric(f"{name}.tail", "us", "lower"),
                Metric(f"{name}.tail_pct", "%", "higher"), Metric(f"{name}.n", "count", "lower")]
    out += [Metric(name, unit, "lower") for name, (_, unit) in TOTALS.items()]
    out += [Metric(name, "count", "lower") for name in COUNTS]
    out += [
        Metric("trace.run_s", "s", "lower"),
        Metric("trace.untraced_run_s", "s", "lower"),
        Metric("trace.overhead_s", "s", "lower"),
        Metric("trace.accounted_frac", "frac", "higher"),
    ]
    out += [Metric(f"trace.self_ms.{span}", "ms", "lower") for span in SPANS]
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()

RUN_SECONDS = 35


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }
