"""Experiment harness: configs, presets, runs, aggregation, CSV emission.

Three experiment families are wired in:

* ``exp1``: smooth split quadratics, uniform singleton sampling against
  importance-weighted singleton sampling, measured by iterations to reach a
  target squared distance.
* ``exp2``: consistent hyperplanes with a small ridge; a stepsize grid for
  the single-index proximal baseline against the decreasing-stepsize
  schedule with its certified envelope. The verdict is a race to the
  float64 floor ``(FLOOR_ULPS * eps)^2 * max(1, ||x*||^2)``: when the
  adaptive arm and some grid arm get every replicate there, the arm with
  the fewer mean iterations wins, and ``best_grid_index`` is the grid arm
  that got there first; otherwise the final replicate-mean squared
  distances are compared.
* ``exp3``: strongly convex quadratics solved by the compressed federated
  variant across a grid of coordinate budgets k, with communication ledgers.

One pipeline runs them all. ``run_experiment`` resolves the config once,
filling every unset field from the experiment's defaults (``--scale paper``
changes exp2's only); ``instance_for`` builds the instance; each family
sets up every arm in its arm builder before any arm runs, and ``_arm`` turns
an arm's per-replicate traces into rows, the certified envelope and the aggregate.

Determinism contract: the instance stream is spawned from the base seed,
replicate r uses the plain seed ``base_seed + r``, replicates run and
aggregate in replicate order, and CSV bytes depend only on the config.
Aggregation reduces all iterations of one replicate count in one array
call but keeps numpy's pairwise summation order within each iteration's
group, the order of one 1-D reduction per group; the aggregate bytes rely
on it.
"""

from __future__ import annotations

import json
import numbers
import os
from copy import copy
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .federated import FedParams, FedRng, derive_fed_params, fed_run
from .problems import ProblemInstance, generate_instance
from .rates import rate_report, uniform_minibatch_plan
from .rng import generator, spawn
from .sampling import FullBatch, SamplingDistribution, SingletonWeighted, UniformMinibatch
from .solver import (
    ACCEL_NONEMPTY,
    LINEAR_SMOOTH,
    Adaptive,
    Constant,
    LyapunovSpec,
    SolverParams,
    _drive,
    _is_real,
    certify_radius,
    derive_params,
    importance_plan,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    rate_inputs_from,
    sq_dist,
    step,
)

EXPERIMENTS = ("exp1", "exp2", "exp3")
SCALES = ("small", "paper")

CSV_HEADER = "t,sq_dist,lyapunov,theory_envelope,comm_parallel,comm_total,replicate"


def default_cadence(t: int) -> bool:
    """Log every iteration up to 1000, every tenth beyond."""
    return t <= 1000 or t % 10 == 0


# ---------------------------------------------------------------------------
# Configuration


# An experiment accepts these keys and those of its ``_DEFAULTS`` row.
_COMMON_KEYS = {"experiment", "scale", "seed", "replicates", "iterations", "out", "d"}


_INT_KEYS = ("seed", "replicates", "iterations", "n", "d")
_REAL_KEYS = ("target", "alpha", "l_max", "mu", "a_offset")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_list_of(value, check) -> bool:
    return isinstance(value, (list, tuple)) and all(check(v) for v in value)


@dataclass(frozen=True)
class RunConfig:
    """One experiment run. Unset fields resolve to per-experiment defaults."""

    experiment: str
    scale: str = "small"
    seed: int = 0
    replicates: int | None = None
    iterations: int | None = None
    target: float | None = None
    out: str | None = None
    n: int | None = None
    d: int | None = None
    alpha: float | None = None
    l_max: float | None = None
    mu: float | None = None
    a_offset: float | None = None
    grid: list[float] | None = None
    k_values: list[int] | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {self.experiment!r}")
        if self.scale not in SCALES:
            raise ConfigurationError(f"unknown scale {self.scale!r}")
        for names, check, what in (
            (_INT_KEYS, _is_int, "an integer"),
            (_REAL_KEYS, _is_real, "a finite number"),
            (("grid",), lambda v: _is_list_of(v, _is_real), "a list of finite numbers"),
            (("k_values",), lambda v: _is_list_of(v, _is_int), "a list of integers"),
            (("out",), lambda v: isinstance(v, (str, os.PathLike)), "a path"),
        ):
            for name in names:
                v = getattr(self, name)
                # every key but the seed may stay unset
                if (v is not None or name == "seed") and not check(v):
                    raise ConfigurationError(f"{name} must be {what}, got {v!r}")
        for names, ok, what in (
            # numpy refuses a negative seed without naming the key
            (("seed",), lambda v: v >= 0, "nonnegative"),
            (("replicates", "iterations", "n", "d"), lambda v: v >= 1, "at least 1"),
            (("target", "l_max", "mu"), lambda v: v > 0, "positive"),
            (("alpha",), lambda v: 0 < v <= 1, "in (0, 1]"),
            (("grid",), lambda v: v and min(v) > 0, "a nonempty list of positive numbers"),
            # one arm per k: a repeat would overwrite its twin's arm
            (("k_values",), lambda v: v and min(v) >= 1 and len(set(v)) == len(v),
             "a nonempty list of distinct integers >= 1"),
        ):
            for name in names:
                v = getattr(self, name)
                if v is not None and not ok(v):
                    raise ConfigurationError(f"{name} must be {what}, got {v!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if "experiment" not in raw:
            raise ConfigurationError("config needs an 'experiment' key")
        exp = raw["experiment"]
        if exp not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {exp!r}")
        allowed = _COMMON_KEYS | set(_DEFAULTS[exp])
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {exp}: {sorted(unknown)}"
            )
        return cls(**raw)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a JSON object")
    return RunConfig.from_dict(raw)


PRESETS: dict[str, RunConfig] = {
    "exp1-alpha095": RunConfig(experiment="exp1", alpha=0.95),
    "exp1-alpha05": RunConfig(experiment="exp1", alpha=0.5),
    "exp1-alpha005": RunConfig(experiment="exp1", alpha=0.05),
    "exp2": RunConfig(experiment="exp2"),
    "exp3-L50": RunConfig(experiment="exp3", l_max=50.0),
    "exp3-L500": RunConfig(experiment="exp3", l_max=500.0),
    "exp3-L5000": RunConfig(experiment="exp3", l_max=5000.0),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        )
    return PRESETS[name]


# Every unset field resolves from its experiment's row; ``--scale paper``
# changes the exp2 defaults only. exp2 runs over n = d components and only
# exp1 stops early at a target, so ``n`` and ``target`` are in the rows of
# the experiments that read them.
_DEFAULTS = {
    "exp1": dict(n=100, d=100, alpha=0.05, l_max=1000.0, replicates=20,
                 iterations=200_000, target=1e-6),
    "exp2": dict(d=200, mu=1e-5, a_offset=5.5, grid=[10.0 * 0.5**i for i in range(12)],
                 replicates=10, iterations=100_000),
    "exp3": dict(n=100, d=100, mu=1.0, l_max=50.0, k_values=[1, 10, 25, 50], replicates=3),
}
_PAPER_DEFAULTS = {"exp2": dict(d=1000, replicates=3, iterations=300_000)}


def _resolved(cfg: RunConfig) -> RunConfig:
    """``cfg`` with every None field filled from the tables; 0 and [] count as set."""
    table = dict(_DEFAULTS[cfg.experiment])
    if cfg.scale == "paper":
        table.update(_PAPER_DEFAULTS.get(cfg.experiment, {}))
    cfg = replace(cfg, **{key: copy(value) for key, value in table.items()
                          if getattr(cfg, key) is None})
    if cfg.experiment == "exp3" and cfg.iterations is None:
        # Harder conditioning contracts slower; stretch the default horizon so
        # every budget k reaches visibly small error.
        horizon = 3000 if cfg.l_max <= 50 else (10_000 if cfg.l_max <= 500 else 30_000)
        cfg = replace(cfg, iterations=horizon)
    return cfg


# ---------------------------------------------------------------------------
# Rows and aggregation


# Traces from large runs hold millions of rows; slots keep them cheap.
@dataclass(frozen=True, slots=True)
class TraceRow:
    t: int
    sq_dist: float
    lyapunov: float | None
    theory_envelope: float | None
    comm_parallel: int
    comm_total: int
    replicate: int


@dataclass(frozen=True, slots=True)
class AggregateRow:
    t: int
    sq_dist_mean: float
    sq_dist_stderr: float
    lyapunov_mean: float | None
    lyapunov_stderr: float | None
    theory_envelope: float | None
    comm_parallel_mean: float
    comm_total_mean: float
    replicates: int


# The one-group reduction that aggregate_replicates must match bit for bit.
def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))


def aggregate_replicates(rows: list[TraceRow]) -> list[AggregateRow]:
    """Replicate means and standard errors per logged iteration.

    The standard error is the ddof-1 sample deviation over the square root
    of the replicate count, zero for a single replicate. Iterations present
    in only some replicates (early-stopped runs) aggregate over the
    replicates that reached them.

    Every group is reduced exactly as :func:`_mean_stderr` reduces it, in
    replicate order: the groups of equal size m become contiguous rows of
    length m in one C-ordered array, reduced along those rows, which runs
    numpy's pairwise summation over each row as it runs over a 1-D array.
    The aggregate CSV bytes rely on that order.
    """
    if not rows:
        return []
    t = np.array([r.t for r in rows])
    order = np.lexsort((np.array([r.replicate for r in rows]), t))
    rows = [rows[i] for i in order]
    # the reduced columns: squared distance, Lyapunov value, comm counts
    values = np.array([[r.sq_dist for r in rows],
                       [0.0 if r.lyapunov is None else r.lyapunov for r in rows],
                       [r.comm_parallel for r in rows],
                       [r.comm_total for r in rows]], dtype=np.float64)
    lyap_missing = np.array([r.lyapunov is None for r in rows])
    has_env = np.array([r.theory_envelope is not None for r in rows])

    times, starts, sizes = np.unique(t[order], return_index=True, return_counts=True)
    means, stderrs = np.empty((4, times.size)), np.zeros((2, times.size))
    lyap_absent = np.empty(times.size, dtype=bool)
    env_at = np.empty(times.size, dtype=np.intp)
    for m in np.unique(sizes).tolist():
        groups = np.flatnonzero(sizes == m)
        idx = starts[groups][:, None] + np.arange(m)
        # (4, groups, m) in C order, so each group is one contiguous row;
        # values[:, idx] alone would lay the groups out column-major
        block = np.ascontiguousarray(values[:, idx])
        means[:, groups] = block.mean(axis=2)
        if m > 1:
            stderrs[:, groups] = block[:2].std(axis=2, ddof=1) / np.sqrt(m)
        lyap_absent[groups] = lyap_missing[idx].any(axis=1)
        # the first replicate of the group that carries an envelope value
        env = has_env[idx]
        first = idx[np.arange(groups.size), env.argmax(axis=1)]
        env_at[groups] = np.where(env.any(axis=1), first, -1)

    sq_mean, lyap_mean, cp_mean, ct_mean = means.tolist()
    sq_se, lyap_se = stderrs.tolist()
    return [AggregateRow(
        t=t_g, sq_dist_mean=sq_mean[g], sq_dist_stderr=sq_se[g],
        lyapunov_mean=None if lyap_absent[g] else lyap_mean[g],
        lyapunov_stderr=None if lyap_absent[g] else lyap_se[g],
        theory_envelope=None if env_at[g] < 0 else rows[env_at[g]].theory_envelope,
        comm_parallel_mean=cp_mean[g], comm_total_mean=ct_mean[g], replicates=size,
    ) for g, (t_g, size) in enumerate(zip(times.tolist(), sizes.tolist()))]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{float(value):.17g}"


def emit_csv(rows: list[TraceRow], path) -> None:
    """Byte-deterministic trace CSV: fixed header, 17-digit floats, LF endings."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.t), _fmt(r.sq_dist), _fmt(r.lyapunov), _fmt(r.theory_envelope),
            str(r.comm_parallel), str(r.comm_total), str(r.replicate),
        ]))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())


AGG_HEADER = ("t,sq_dist_mean,sq_dist_stderr,lyapunov_mean,lyapunov_stderr,"
              "theory_envelope,comm_parallel_mean,comm_total_mean,replicates")


def emit_aggregate_csv(rows: list[AggregateRow], path) -> None:
    lines = [AGG_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.t), _fmt(r.sq_dist_mean), _fmt(r.sq_dist_stderr),
            _fmt(r.lyapunov_mean), _fmt(r.lyapunov_stderr),
            _fmt(r.theory_envelope), _fmt(r.comm_parallel_mean),
            _fmt(r.comm_total_mean), str(r.replicates),
        ]))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# Shared run machinery


@dataclass
class ArmResult:
    name: str
    rows: list[TraceRow]
    aggregate: list[AggregateRow]
    info: dict


@dataclass
class ExperimentResult:
    config: RunConfig
    arms: dict[str, ArmResult]
    summary: dict
    files: list[str] = field(default_factory=list)


def instance_for(cfg: RunConfig) -> ProblemInstance:
    """The generated instance a config runs on, drawn from its spawned seed stream."""
    cfg = _resolved(cfg)
    sizes = {
        "exp1": dict(n=cfg.n, d=cfg.d, alpha=cfg.alpha, l_max=cfg.l_max),
        "exp2": dict(d=cfg.d, mu=cfg.mu),
        "exp3": dict(n=cfg.n, d=cfg.d, mu=cfg.mu, l_max=cfg.l_max),
    }[cfg.experiment]
    (rng,) = spawn(cfg.seed, 1)
    return generate_instance(cfg.experiment, rng, **sizes)


def _arm(name: str, cfg: RunConfig, spec: LyapunovSpec | None,
         trace: Callable, info: dict) -> ArmResult:
    """Rows, envelope and aggregate of one arm over the config's replicates.

    ``trace(r, record)`` runs replicate r and calls ``record(t, sq_dist,
    lyapunov, (comm_parallel, comm_total))`` at every logged iteration. The
    envelope column is ``spec.envelope_ratio(t) * psi0``, where psi0 is the
    first Lyapunov value recorded: replicate 0 at t = 0, the start that every
    replicate shares.
    """
    rows: list[TraceRow] = []
    for r in range(cfg.replicates):

        def record(t, dist_sq, psi, comm, r=r):
            psi0 = rows[0].lyapunov if rows else psi
            rows.append(TraceRow(
                t=t, sq_dist=dist_sq, lyapunov=psi,
                theory_envelope=None if psi0 is None else spec.envelope_ratio(t) * psi0,
                comm_parallel=comm[0], comm_total=comm[1], replicate=r,
            ))

        trace(r, record)
    return ArmResult(name=name, rows=rows, aggregate=aggregate_replicates(rows), info=info)


class Arm(NamedTuple):
    """An arm before it runs: its law, parameters (``FedParams`` for exp3) and certificate."""

    dist: SamplingDistribution
    params: SolverParams | FedParams
    spec: LyapunovSpec | None


def _solver_arm(name: str, cfg: RunConfig, instance: ProblemInstance, arm: Arm,
                x0=None, target: float | None = None) -> ArmResult:
    """Replicate r steps on the plain seed ``cfg.seed + r``; stops early at ``target``.

    With a target, the info records the first iteration, logged or not, at
    which each replicate met it (None when it never did).
    """
    dist, params, spec = arm
    hits: list[int | None] = []

    def trace(r, record):
        rng = generator(cfg.seed + r)
        state = initial_state(instance, x0=x0, track_z=params.track_z)
        if spec is not None:
            certify_radius(state, instance, params, spec)
        emit = lambda: record(
            state.t, sq_dist(state, instance),
            None if spec is None else lyapunov(state, instance, params, spec), (0, 0))
        reached = None if target is None else lambda: sq_dist(state, instance) <= target
        hits.append(_drive(state, cfg.iterations,
                           lambda: step(state, instance, params, dist, rng),
                           emit, default_cadence, reached))

    info = {"law": dist.to_config(), "eta_max": float(np.max(params.eta)),
            "p_hat": params.p_hat}
    if isinstance(params.schedule, Constant):
        info["gamma"] = params.schedule.gamma
    if spec is not None and spec.rho is not None:
        info["rho"] = spec.rho
    result = _arm(name, cfg, spec, trace, info)
    if target is not None:
        info["iterations_to_target"] = hits
        info["mean_iterations_to_target"] = _mean_if_all(hits)
    return result


def _fed_rates(fed: FedParams) -> dict:
    """The certified-rate fields of a federated arm's info and of its rate summary."""
    return {"rho": fed.rho, "gamma": fed.solver.schedule.gamma,
            "p_check_empty": fed.solver.p_bar, "iteration_complexity": fed.iteration_complexity}


def _fed_arm(name: str, cfg: RunConfig, instance: ProblemInstance, arm: Arm, x0=None) -> ArmResult:
    """Compressed rounds with the arm's budget; replicate r streams from ``cfg.seed + r``."""
    dist, fed, spec = arm

    def trace(r, record):
        fed_run(instance, fed, dist, FedRng.from_seed(cfg.seed + r, instance.n),
                cfg.iterations, sink=record, x0=x0, cadence=default_cadence)

    info = {"law": dist.to_config(), "k": fed.k, **_fed_rates(fed)}
    result = _arm(name, cfg, spec, trace, info)
    info["final_uplink_total"] = max((r.comm_total for r in result.rows), default=0)
    return result


def _mean_if_all(hits: list[int | None]) -> float | None:
    """Mean of per-replicate iteration counts; None unless every replicate has one."""
    return None if None in hits else float(np.mean(hits))


def _final_mean(arm: ArmResult) -> float:
    """Replicate-mean squared distance at the arm's last logged iteration."""
    return arm.aggregate[-1].sq_dist_mean


def _write_arm_files(result: ExperimentResult, out: str | None) -> None:
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, arm in result.arms.items():
        base = f"{result.config.experiment}-{name}"
        trace_path = out_dir / f"{base}.csv"
        agg_path = out_dir / f"{base}-agg.csv"
        emit_csv(arm.rows, trace_path)
        emit_aggregate_csv(arm.aggregate, agg_path)
        result.files += [str(trace_path), str(agg_path)]
    summary_path = out_dir / f"{result.config.experiment}-summary.json"
    with open(summary_path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    result.files.append(str(summary_path))


# ---------------------------------------------------------------------------
# Experiment 1: uniform against importance sampling


def exp1_arms(cfg: RunConfig):
    """Instance plus both configured arms (law, params) for one alpha."""
    instance = instance_for(cfg)
    uniform_dist = UniformMinibatch(instance.n, 1)
    plan = uniform_minibatch_plan(
        instance.n, 1, instance.f.L, max(float(L) for L in instance.L_h), instance.f.mu
    )
    uniform_params = derive_params(instance, uniform_dist, Constant(plan.gamma))
    _, weights, gamma_imp = importance_plan(
        instance.L_h, mu_f=instance.f.mu, mu_g=instance.g.mu, L_f=instance.f.L
    )
    importance_dist = SingletonWeighted(weights)
    importance_params = derive_params(instance, importance_dist, Constant(gamma_imp))
    return instance, {
        "uniform": (uniform_dist, uniform_params),
        "importance": (importance_dist, importance_params),
    }


def _exp1_setup(cfg: RunConfig) -> tuple[ProblemInstance, dict[str, Arm]]:
    instance, laws = exp1_arms(cfg)
    spec = lambda dist, params: make_lyapunov_spec(LINEAR_SMOOTH, instance, dist, params)
    return instance, {name: Arm(*law, spec(*law)) for name, law in laws.items()}


def _run_exp1(cfg: RunConfig, instance: ProblemInstance, arms: dict[str, Arm]):
    # far common start: keeps the target depth in the rate-dominated regime
    # and the initial error comparable across alpha values
    x0 = np.full(instance.d, 10.0)
    result_arms = {name: _solver_arm(name, cfg, instance, arm, x0=x0, target=cfg.target)
                   for name, arm in arms.items()}
    uni = result_arms["uniform"].info["mean_iterations_to_target"]
    imp = result_arms["importance"].info["mean_iterations_to_target"]
    summary = {
        "alpha": cfg.alpha,
        "target": cfg.target,
        "uniform_mean_iterations": uni,
        "importance_mean_iterations": imp,
        "gap": None if (uni is None or imp is None) else uni - imp,
    }
    return result_arms, summary


def exp1_sweep(scale: str = "small", seed: int = 0, out: str | None = None) -> dict:
    """The full first experiment: one run per exp1 preset, plus the gap summary."""
    runs = {}
    for base in PRESETS.values():
        if base.experiment == "exp1":
            sub_out = None if out is None else str(Path(out) / f"alpha-{base.alpha:g}")
            runs[base.alpha] = run_experiment(replace(base, scale=scale, seed=seed, out=sub_out))
    gaps = [res.summary["gap"] for res in runs.values()]
    widening = all(
        later is not None and earlier is not None and later > earlier
        for earlier, later in zip(gaps, gaps[1:])
    )
    return {"runs": runs, "gaps": gaps, "gap_widens_monotonically": widening}


# ---------------------------------------------------------------------------
# Experiment 2: stepsize grid against the decreasing schedule


# Below this many float64 ulps of ||x*|| a trace sits at its rounding
# equilibrium, whose level depends on the arm but says nothing of its speed.
FLOOR_ULPS = 64


def float64_floor(instance: ProblemInstance) -> float:
    """Squared distance at which a run has converged to float64 resolution."""
    eps = np.finfo(np.float64).eps
    return (FLOOR_ULPS * eps) ** 2 * max(1.0, float(instance.x_star @ instance.x_star))


def floor_info(rows: list[TraceRow], floor: float) -> dict:
    """First logged iteration at or below ``floor`` per replicate, and their mean.

    The mean is None unless every replicate reached the floor.
    """
    hits: dict[int, int | None] = {}
    for r in rows:
        if hits.setdefault(r.replicate, None) is None and r.sq_dist <= floor:
            hits[r.replicate] = r.t
    per_replicate = [hits[k] for k in sorted(hits)]
    return {"iterations_to_floor": per_replicate,
            "mean_iterations_to_floor": _mean_if_all(per_replicate)}


def exp2_verdict(grid: list[ArmResult], adaptive: ArmResult) -> tuple[int, bool]:
    """Index of the best grid arm and whether the adaptive arm beats it.

    Arms carry ``mean_iterations_to_floor`` in their info. When the adaptive
    arm and at least one grid arm reached the floor in every replicate, the
    best grid arm is the first there and the adaptive arm wins on fewer or
    equal mean iterations. Otherwise the best grid arm has the lowest final
    mean squared distance and the adaptive arm wins on a lower or equal one.
    """
    adaptive_hit = adaptive.info["mean_iterations_to_floor"]
    grid_hits = {i: arm.info["mean_iterations_to_floor"] for i, arm in enumerate(grid)
                 if arm.info["mean_iterations_to_floor"] is not None}
    if adaptive_hit is not None and grid_hits:
        best = min(grid_hits, key=grid_hits.get)
        return best, adaptive_hit <= grid_hits[best]
    finals = [_final_mean(arm) for arm in grid]
    best = min(range(len(grid)), key=finals.__getitem__)
    return best, _final_mean(adaptive) <= finals[best]


def _exp2_setup(cfg: RunConfig) -> tuple[ProblemInstance, dict[str, Arm]]:
    instance = instance_for(cfg)
    dist = UniformMinibatch(instance.n, 1)
    arms = {f"grid-{i:02d}": Arm(dist, derive_params(instance, dist, Constant(gamma)), None)
            for i, gamma in enumerate(cfg.grid)}
    params = derive_params(instance, dist, Adaptive(mu=cfg.mu, a=cfg.a_offset))
    spec = make_lyapunov_spec(ACCEL_NONEMPTY, instance, dist, params)
    return instance, {**arms, "adaptive": Arm(dist, params, spec)}


def _run_exp2(cfg: RunConfig, instance: ProblemInstance, arms: dict[str, Arm]):
    """Stepsize grid against the adaptive schedule, judged by ``exp2_verdict``.

    Every arm's info records its iterations to the float64 floor of the
    instance; ``best_grid_index`` is the grid arm that reached the floor
    first when the verdict races to it, and the arm with the lowest final
    mean otherwise.
    """
    result_arms = {name: _solver_arm(name, cfg, instance, arm) for name, arm in arms.items()}
    *grid_arms, adaptive = result_arms.values()
    floor = float64_floor(instance)
    for arm in result_arms.values():
        arm.info.update(floor_info(arm.rows, floor))
    best, beats = exp2_verdict(grid_arms, adaptive)
    summary = {
        "grid": cfg.grid,
        "grid_final_sq_dist": {str(i): _final_mean(arm) for i, arm in enumerate(grid_arms)},
        "best_grid_index": best,
        "best_grid_final": _final_mean(grid_arms[best]),
        "adaptive_final": _final_mean(adaptive),
        "adaptive_beats_best_grid": beats,
    }
    return result_arms, summary


# ---------------------------------------------------------------------------
# Experiment 3: compressed federated runs over a coordinate-budget grid


def _exp3_setup(cfg: RunConfig) -> tuple[ProblemInstance, dict[str, Arm]]:
    instance = instance_for(cfg)
    for k in cfg.k_values:
        if not 1 <= k <= instance.d:
            raise ConfigurationError(f"coordinate budget {k} outside [1, {instance.d}]")
    dist = FullBatch(instance.n)
    feds = [derive_fed_params(instance, dist, k) for k in cfg.k_values]
    return instance, {f"k-{fed.k}": Arm(dist, fed, fed.spec) for fed in feds}


def _run_exp3(cfg: RunConfig, instance: ProblemInstance, arms: dict[str, Arm]):
    x0 = np.full(instance.d, 10.0)
    result_arms = {name: _fed_arm(name, cfg, instance, arm, x0=x0) for name, arm in arms.items()}
    by_k = {str(arm.info["k"]): arm for arm in result_arms.values()}
    summary = {
        "k_values": cfg.k_values,
        "final_sq_dist": {k: _final_mean(arm) for k, arm in by_k.items()},
        "rho": {k: arm.info["rho"] for k, arm in by_k.items()},
        "uplink_total": {k: arm.info["final_uplink_total"] for k, arm in by_k.items()},
    }
    return result_arms, summary


# ---------------------------------------------------------------------------
# Entry points


# Per experiment, the arm builder that makes every arm's checks, so that a refused arm
# stops a run before any arm runs and ``rate_summaries`` refuses alike, and the runner.
_EXPERIMENTS = {"exp1": (_exp1_setup, _run_exp1), "exp2": (_exp2_setup, _run_exp2),
                "exp3": (_exp3_setup, _run_exp3)}


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    """Run one configured experiment end to end; the result holds the resolved config."""
    cfg = _resolved(cfg)
    setup, runner = _EXPERIMENTS[cfg.experiment]
    arms, summary = runner(cfg, *setup(cfg))
    result = ExperimentResult(config=cfg, arms=arms, summary=summary)
    _write_arm_files(result, cfg.out)
    return result


def rate_summaries(cfg: RunConfig) -> dict[str, dict | str]:
    """Certified-rate reports for every arm of a config that has one."""
    cfg = _resolved(cfg)
    instance, arms = _EXPERIMENTS[cfg.experiment][0](cfg)
    if cfg.experiment == "exp1":
        return {name: rate_report(rate_inputs_from(instance, arm.dist, arm.params))
                for name, arm in arms.items()}
    if cfg.experiment == "exp3":
        return {name: {"kind": "federated", **_fed_rates(arm.params)}
                for name, arm in arms.items()}
    return {"grid": "no certified linear rate: components have no finite smoothness constant",
            "adaptive": {"kind": "decreasing-stepsize envelope", "mu": cfg.mu, "a": cfg.a_offset,
                         "envelope": "((a - 1) / (a + t - 1))^2 of the initial Lyapunov value"}}
