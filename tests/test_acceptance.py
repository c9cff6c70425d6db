"""End-to-end acceptance checks for the headline guarantees.

Each test exercises one numbered guarantee at its stated tolerance and
registers a single verdict line; the terminal-summary hook in conftest echoes
the collected lines after the run, so the suite always ends with a readable
checklist. Seeds are fixed; the statistical tolerances leave room for Monte
Carlo noise at those seeds, not for looser mathematics.
"""

import sys
import time

import numpy as np
import pytest

from multiprox import (
    Adaptive,
    CommLedger,
    Constant,
    FedRng,
    FullBatch,
    IndependentParticipation,
    SingletonWeighted,
    UniformMinibatch,
    conditional_expected_lyapunov,
    derive_fed_params,
    derive_params,
    fed_run,
    fed_step,
    generate_instance,
    generator,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    point_saga_step,
    rate_inputs_from,
    run,
    sq_dist,
    step,
)
from multiprox.bench import (
    RunConfig,
    exp1_sweep,
    float64_floor,
    instance_for,
    run_experiment,
)
from multiprox.rates import rho_theorem1, uniform_minibatch_plan
from multiprox.solver import ACCEL_NONEMPTY, LINEAR_SMOOTH


def _check(verdicts, num: int, passed: bool, detail: str) -> None:
    # registered lines are echoed by the terminal-summary hook, which writes
    # to the real terminal and so survives capture; the direct write below
    # is for capture-off runs, where it shows up as live progress
    tag = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d}: {tag}  {detail}"
    verdicts.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert passed, f"criterion {num}: {detail}"


def _state_at_solution(instance):
    state = initial_state(instance)
    state.x = instance.x_star.copy()
    state.u = instance.u_star.copy()
    state.u_bar = state.u.mean(axis=0)
    return state


def _five_laws(n):
    rng = generator(99)
    q = rng.uniform(1.0, 2.0, size=n)
    q /= q.sum()
    r = rng.uniform(0.4, 0.9, size=n)
    return [
        FullBatch(n),
        UniformMinibatch(n, 1),
        UniformMinibatch(n, 5),
        SingletonWeighted(q),
        IndependentParticipation(r),
    ]


def test_criterion_01_solution_is_a_fixed_point(verdicts):
    t0 = time.perf_counter()
    worst = 0.0
    runs = 0
    for kind, sizes, gamma in (
        ("exp1", dict(n=8, d=6, l_max=20.0), 0.05),
        ("exp2", dict(d=8), 1.0),
        ("exp3", dict(n=8, d=6, mu=1.0, l_max=5.0), 0.1),
    ):
        instance = generate_instance(kind, 17, **sizes)
        for dist in _five_laws(instance.n):
            params = derive_params(instance, dist, Constant(gamma))
            state = _state_at_solution(instance)
            rng = generator(5)
            for _ in range(100):
                step(state, instance, params, dist, rng)
                worst = max(worst, float(np.sqrt(sq_dist(state, instance))))
            runs += 1
    elapsed = time.perf_counter() - t0
    _check(verdicts,1, worst <= 1e-10,
           f"max drift from the solution {worst:.3e} over {runs} family/law runs, "
           f"100 steps each ({elapsed:.2f}s)")


def test_criterion_02_one_step_contraction_is_certified(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp3", 29, n=3, d=5, mu=0.7, l_max=4.0)
    dist = IndependentParticipation([0.55, 0.7, 0.85])
    params = derive_params(instance, dist, Constant(0.25))
    spec = make_lyapunov_spec(LINEAR_SMOOTH, instance, dist, params)
    rho = rho_theorem1(rate_inputs_from(instance, dist, params))
    rng = generator(41)
    worst = -np.inf
    for _ in range(50):
        state = initial_state(instance)
        state.x = instance.x_star + rng.standard_normal(instance.d)
        state.u = instance.u_star + rng.standard_normal((instance.n, instance.d))
        state.u_bar = state.u.mean(axis=0)
        psi = lyapunov(state, instance, params, spec)
        cond = conditional_expected_lyapunov(state, instance, params, dist, spec)
        worst = max(worst, cond / (rho * psi))
    elapsed = time.perf_counter() - t0
    _check(verdicts,2, worst <= 1.0 + 1e-9,
           f"max E[psi']/(rho psi) = {worst:.12f} over 50 random states ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_03_average_decay_beats_the_certified_linear_rate(verdicts):
    t0 = time.perf_counter()
    # stiff conditioning: the certified decay over the whole 2000-iteration
    # window must stay representable in float64 relative to the stored
    # reference solution, or the fit would measure the rounding floor
    instance = generate_instance("exp3", 11, n=10, d=20, mu=1.0, l_max=3000.0)
    dist = UniformMinibatch(10, 2)
    plan = uniform_minibatch_plan(
        10, 2, 0.0, float(np.max(instance.L_h)), float(np.min(instance.mu_h)))
    params = derive_params(instance, dist, Constant(plan.gamma))
    spec = make_lyapunov_spec(LINEAR_SMOOTH, instance, dist, params)
    rho = rho_theorem1(rate_inputs_from(instance, dist, params))
    seeds, T, every = 200, 2000, 100
    ts = np.arange(0, T + 1, every)
    acc = np.zeros(ts.size)

    def sink(t, sqd, psi, dual):
        acc[t // every] += psi

    for s in range(seeds):
        run(instance, params, dist, generator(3000 + s), T,
            sink=sink, lyapunov_spec=spec, cadence=every)
    slope = float(np.polyfit(ts, np.log(acc / seeds), 1)[0])
    elapsed = time.perf_counter() - t0
    _check(verdicts,3, slope <= np.log(rho) + 0.02,
           f"fitted log-slope {slope:.5f} vs certified {np.log(rho):.5f} + 0.02, "
           f"{seeds} seeds x {T} iterations ({elapsed:.1f}s)")


def test_criterion_04_singleton_runs_match_the_single_index_baseline(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp3", 7, n=5, d=8, mu=1.0, l_max=6.0)
    dist = UniformMinibatch(5, 1)
    gamma = 0.3
    params = derive_params(instance, dist, Constant(gamma))
    state = initial_state(instance)
    x_ref, u_ref = state.x.copy(), state.u.copy()
    rng = generator(77)
    replay = generator(77)
    worst = 0.0
    for _ in range(1000):
        step(state, instance, params, dist, rng)
        j = dist.sample(replay)[0]
        x_ref, u_ref = point_saga_step(x_ref, u_ref, j, gamma, instance.h)
        worst = max(worst,
                    float(np.abs(state.x - x_ref).max()),
                    float(np.abs(state.u - u_ref).max()))
    elapsed = time.perf_counter() - t0
    _check(verdicts,4, worst <= 1e-10,
           f"max deviation {worst:.3e} over 1000 shared-stream steps ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_05_decreasing_schedule_tracks_the_quadratic_envelope(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp2", 19, d=100)
    dist = UniformMinibatch(instance.n, 1)
    a = 5.5
    mu = float(np.min(instance.mu_h))
    params = derive_params(instance, dist, Adaptive(mu, a))
    spec = make_lyapunov_spec(ACCEL_NONEMPTY, instance, dist, params)
    psi0 = lyapunov(initial_state(instance), instance, params, spec)
    checkpoints = (10, 100, 1000)
    sums = dict.fromkeys(checkpoints, 0.0)

    def sink(t, sqd, psi, dual):
        if t in sums:
            sums[t] += psi

    seeds = 500
    for s in range(seeds):
        run(instance, params, dist, generator(7000 + s), max(checkpoints),
            sink=sink, lyapunov_spec=spec, cadence=lambda t: t in checkpoints)
    ratios = {t: sums[t] / seeds / (((a - 1.0) / (a + t - 1.0)) ** 2 * psi0)
              for t in checkpoints}
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"t={t}: {r:.3f}" for t, r in ratios.items())
    _check(verdicts,5, all(r <= 1.05 for r in ratios.values()),
           f"mean psi over the envelope at {detail}; bound 1.05, {seeds} seeds ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_06_importance_sampling_wins_and_the_gap_widens(verdicts):
    t0 = time.perf_counter()
    sweep = exp1_sweep(scale="small", seed=0)
    res = sweep["runs"][0.05].summary
    uni = res["uniform_mean_iterations"]
    imp = res["importance_mean_iterations"]
    strict_win = uni is not None and imp is not None and imp < uni
    ok = strict_win and bool(sweep["gap_widens_monotonically"])
    elapsed = time.perf_counter() - t0
    gaps = ", ".join("none" if g is None else f"{g:.0f}" for g in sweep["gaps"])
    arms = "unreached" if not strict_win else f"importance {imp:.0f} < uniform {uni:.0f}"
    _check(verdicts,6, ok,
           f"mean iterations to 1e-6 at alpha 0.05: {arms}; "
           f"gaps across alpha 0.95/0.5/0.05: [{gaps}] ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_07_adaptive_schedule_beats_the_stepsize_grid(verdicts):
    t0 = time.perf_counter()
    cfg = RunConfig(experiment="exp2", seed=0)
    res = run_experiment(cfg)
    s = res.summary
    elapsed = time.perf_counter() - t0
    floor = float64_floor(instance_for(cfg))
    floor_note = ""
    if s["adaptive_final"] <= floor and s["best_grid_final"] <= floor:
        # both arms fully converged; the ordering below this level is the
        # rounding equilibrium of each arm, not a convergence-speed
        # difference, so the verdict races the arms to the floor
        floor_note = f"; both at the float64 floor {floor:.2e}"

    def to_floor(name):
        mean = res.arms[name].info["mean_iterations_to_floor"]
        return "unreached" if mean is None else f"{mean:.0f}"

    best_name = f"grid-{s['best_grid_index']:02d}"
    _check(verdicts,7, bool(s["adaptive_beats_best_grid"]),
           f"mean iterations to the floor: adaptive {to_floor('adaptive')} vs best grid arm "
           f"(index {s['best_grid_index']}) {to_floor(best_name)}; finals "
           f"{s['adaptive_final']:.3e} vs {s['best_grid_final']:.3e}"
           f"{floor_note} ({elapsed:.1f}s)")


def test_criterion_08_full_support_compression_changes_nothing(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp3", 3, n=6, d=5, mu=1.0, l_max=3.0)
    dist = UniformMinibatch(6, 2)
    fed = derive_fed_params(instance, dist, instance.d)
    rngs = FedRng(omega=generator(123), server=generator(9),
                  clients=[generator(800 + i) for i in range(6)])
    server = initial_state(instance)
    ledger = CommLedger()
    state = initial_state(instance)
    rng = generator(123)
    worst = 0.0
    for _ in range(500):
        fed_step(server, instance, fed, dist, rngs, ledger)
        step(state, instance, fed.solver, dist, rng)
        worst = max(worst, float(np.abs(server.x - state.x).max()))
    worst = max(worst, float(np.abs(server.u - state.u).max()))
    elapsed = time.perf_counter() - t0
    _check(verdicts,8, worst <= 1e-12,
           f"max deviation {worst:.3e} over 500 shared-subset-stream rounds at k=d ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_09_federated_rate_and_uplink_accounting(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp3", 13, n=20, d=20, mu=1.0, l_max=50.0)
    s_batch, k = 5, 5
    dist = UniformMinibatch(instance.n, s_batch)
    fed = derive_fed_params(instance, dist, k)
    seeds, T, every = 200, 2000, 100
    ts = np.arange(0, T + 1, every)
    acc = np.zeros(ts.size)

    def sink(t, sqd, psi, comm):
        acc[t // every] += psi

    ledgers_exact = True
    for s in range(seeds):
        _, _, ledger = fed_run(instance, fed, dist, FedRng.from_seed(5000 + s, instance.n),
                               T, sink=sink, cadence=every)
        ledgers_exact = ledgers_exact and (
            ledger.rounds == T
            and ledger.uplink_total_reals == k * s_batch * T
            and ledger.uplink_parallel_reals == k * T
        )
    slope = float(np.polyfit(ts, np.log(acc / seeds), 1)[0])
    elapsed = time.perf_counter() - t0
    _check(verdicts,9, slope <= np.log(fed.rho) + 0.03 and ledgers_exact,
           f"fitted log-slope {slope:.5f} vs certified {np.log(fed.rho):.5f} + 0.03; "
           f"every ledger counts exactly {k * s_batch} uplink reals/round: {ledgers_exact} "
           f"({elapsed:.1f}s)")


def test_criterion_10_per_coordinate_thinning_matches_the_enumerated_law(verdicts):
    t0 = time.perf_counter()
    instance = generate_instance("exp3", 3, n=4, d=4, mu=1.0, l_max=3.0)
    n, d, k = instance.n, instance.d, 1
    dist = FullBatch(n)
    fed = derive_fed_params(instance, dist, k)
    p_check = (1.0 - k / d) ** n
    exact_ok = (abs(fed.solver.p_bar - p_check) <= 1e-12
                and abs(fed.effective.empty_prob() - p_check) <= 1e-12)

    # replay generators seeded like the engine's client streams; the engine
    # prefix below proves the replayed masks are the coordinates it touched
    rngs = FedRng(omega=generator(555), server=generator(556),
                  clients=[generator(700 + i) for i in range(n)])
    replay = [generator(700 + i) for i in range(n)]
    server = initial_state(instance)
    ledger = CommLedger()
    rounds, prefix = 100_000, 200
    tally = np.zeros(1 << n, dtype=np.int64)
    prefix_consistent = True
    for t in range(rounds):
        masks = [g.choice(d, size=k, replace=False) for g in replay]
        if t < prefix:
            before = server.u.copy()
            fed_step(server, instance, fed, dist, rngs, ledger)
            for i in range(n):
                changed = set(np.nonzero(server.u[i] != before[i])[0].tolist())
                if not changed <= set(masks[i].tolist()):
                    prefix_consistent = False
        pattern = 0
        for i in range(n):
            if 0 in masks[i]:
                pattern |= 1 << i
        tally[pattern] += 1

    r = k / d
    worst_sigma = 0.0
    for pattern in range(1 << n):
        m = bin(pattern).count("1")
        p = r ** m * (1.0 - r) ** (n - m)
        se = float(np.sqrt(p * (1.0 - p) / rounds))
        worst_sigma = max(worst_sigma, abs(tally[pattern] / rounds - p) / se)
    empty_freq = tally[0] / rounds
    elapsed = time.perf_counter() - t0
    _check(verdicts,10, exact_ok and prefix_consistent and worst_sigma <= 4.0,
           f"all {1 << n} coverage patterns within {worst_sigma:.2f} SE of the enumerated "
           f"law over {rounds} rounds (empty {empty_freq:.4f} vs {p_check:.4f}); "
           f"engine prefix consistent: {prefix_consistent} ({elapsed:.1f}s)")
