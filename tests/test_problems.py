"""Oracle correctness, instance construction, and the batched prox."""

import dataclasses
import multiprocessing
import threading
import time
import warnings
import weakref
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprox import problems
from multiprox.errors import ConfigurationError, HypothesisViolation
from multiprox.problems import (
    INFINITE,
    KEPT_ROWS_MAX_SHARE,
    ProblemInstance,
    QuadraticForm,
    generate_instance,
    harmonic_curvature,
    hyperplane_ridge,
    hyperplane_ridge_prox,
    inverse_total_curvature,
    is_infinite,
    orthogonal_matrix,
    quadratic_prox,
    scaled_sqnorm,
    zero_prox,
    zero_smooth,
)
from multiprox.rng import generator


def random_quadratic(rng, d):
    q = orthogonal_matrix(d, rng)
    lam = rng.uniform(0.0, 5.0, size=d)
    b = rng.standard_normal(d)
    return QuadraticForm(q, lam, b)


# ---------------------------------------------------------------------------
# Curvature arithmetic


def test_infinite_singleton_and_predicates():
    assert is_infinite(INFINITE)
    assert not is_infinite(3.0)
    import pickle

    assert pickle.loads(pickle.dumps(INFINITE)) is INFINITE


def test_harmonic_curvature_values():
    assert harmonic_curvature(2.0, 2.0) == pytest.approx(2.0)
    assert harmonic_curvature(2.0, 6.0) == pytest.approx(3.0)
    assert harmonic_curvature(2.0, INFINITE) == pytest.approx(4.0)
    assert harmonic_curvature(0.0, 5.0) == 0.0


def test_inverse_total_curvature_values():
    assert inverse_total_curvature(3.0, 1.0) == pytest.approx(0.25)
    assert inverse_total_curvature(INFINITE, 7.0) == 0.0
    with pytest.raises(HypothesisViolation):
        inverse_total_curvature(0.0, 0.0)


# ---------------------------------------------------------------------------
# Pinned prox values


def test_zero_prox_is_identity():
    v = np.array([1.0, -2.0, 3.0])
    out = zero_prox().prox(0.7, v)
    np.testing.assert_array_equal(out, v)


def test_quadratic_prox_zero_curvature_passthrough():
    d = 4
    form = QuadraticForm(np.eye(d), np.zeros(d), np.zeros(d))
    v = np.arange(1.0, 5.0)
    np.testing.assert_allclose(quadratic_prox(form, 2.0, v), v, atol=1e-15)


def test_quadratic_prox_identity_matrix_halves():
    d = 3
    form = QuadraticForm(np.eye(d), np.ones(d), np.zeros(d))
    v = np.array([2.0, -4.0, 6.0])
    np.testing.assert_allclose(quadratic_prox(form, 1.0, v), v / 2.0, atol=1e-15)


def test_scaled_sqnorm_prox_pinned():
    oracle = scaled_sqnorm(1.0)
    out = oracle.prox(1.0, np.array([2.0, 4.0]))
    np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(oracle.grad_at(np.array([3.0])), [3.0])


# ---------------------------------------------------------------------------
# Prox against independent solvers


def test_quadratic_prox_matches_dense_solve():
    rng = generator(10)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        form = random_quadratic(rng, d)
        gamma = float(rng.uniform(0.05, 3.0))
        v = rng.standard_normal(d)
        direct = np.linalg.solve(np.eye(d) + gamma * form.dense(), v + gamma * form.b)
        np.testing.assert_allclose(quadratic_prox(form, gamma, v), direct, atol=1e-12)


def test_quadratic_prox_matches_scipy_minimizer():
    from scipy.optimize import minimize

    rng = generator(11)
    d = 5
    form = random_quadratic(rng, d)
    gamma = 0.8
    v = rng.standard_normal(d)

    def objective(y):
        return 0.5 * y @ form.dense() @ y - form.b @ y + ((y - v) @ (y - v)) / (2 * gamma)

    res = minimize(objective, v, method="BFGS", options={"gtol": 1e-12})
    np.testing.assert_allclose(quadratic_prox(form, gamma, v), res.x, atol=1e-6)


def test_hyperplane_prox_matches_scipy_minimizer():
    from scipy.optimize import LinearConstraint, minimize

    rng = generator(12)
    d = 6
    w = rng.standard_normal(d)
    offset, mu, gamma = 1.3, 0.7, 0.9
    v = rng.standard_normal(d)

    def objective(y):
        return 0.5 * mu * y @ y + ((y - v) @ (y - v)) / (2 * gamma)

    res = minimize(
        objective, v, method="SLSQP",
        constraints=[LinearConstraint(w[None, :], offset, offset)],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    ours = hyperplane_ridge_prox(w, offset, mu, gamma, v, wnorm2=float(w @ w))
    np.testing.assert_allclose(ours, res.x, atol=1e-6)
    assert w @ ours == pytest.approx(offset, abs=1e-10)


def test_hyperplane_prox_kkt_structure():
    # (1 + gamma mu) y - v must be parallel to w, with y on the hyperplane.
    rng = generator(13)
    for _ in range(25):
        d = int(rng.integers(2, 8))
        w = rng.standard_normal(d)
        offset = float(rng.standard_normal())
        mu = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(0.1, 2.0))
        v = rng.standard_normal(d)
        y = hyperplane_ridge_prox(w, offset, mu, gamma, v, wnorm2=float(w @ w))
        # the oracle binds ||w||^2 once; its prox must agree bit for bit
        assert hyperplane_ridge(w, offset, mu).prox(gamma, v).tobytes() == y.tobytes()
        assert float(w @ y) == pytest.approx(offset, abs=1e-9)
        r = (1.0 + gamma * mu) * y - v
        residual = r - (r @ w) / (w @ w) * w
        assert np.linalg.norm(residual) < 1e-9


def test_hyperplane_zero_normal_rejected():
    with pytest.raises(ConfigurationError):
        hyperplane_ridge(np.zeros(3), 0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.01, 5.0),
    quadratic=st.booleans(),
)
def test_prox_firm_nonexpansiveness(seed, gamma, quadratic):
    """||p1 - p2||^2 <= <p1 - p2, v1 - v2> for any prox operator."""
    rng = generator(seed)
    d = 5
    if quadratic:
        form = random_quadratic(rng, d)
        prox = lambda v: quadratic_prox(form, gamma, v)
    else:
        w = rng.standard_normal(d)
        mu = float(rng.uniform(0.0, 3.0))
        offset = float(rng.standard_normal())
        prox = lambda v: hyperplane_ridge_prox(w, offset, mu, gamma, v, wnorm2=float(w @ w))
    v1, v2 = rng.standard_normal(d), rng.standard_normal(d)
    p1, p2 = prox(v1), prox(v2)
    lhs = float((p1 - p2) @ (p1 - p2))
    rhs = float((p1 - p2) @ (v1 - v2))
    assert lhs <= rhs + 1e-9


# ---------------------------------------------------------------------------
# Oracle validation


def test_smooth_oracle_rejects_mu_above_L():
    from multiprox.problems import SmoothOracle

    with pytest.raises(ConfigurationError):
        SmoothOracle(grad=np.zeros_like, L=1.0, mu=2.0)


def test_quadratic_form_rejects_nonorthogonal_basis():
    with pytest.raises(ConfigurationError):
        QuadraticForm(np.ones((3, 3)), np.ones(3), np.zeros(3))


def test_quadratic_form_rejects_negative_eigenvalue():
    with pytest.raises(ConfigurationError):
        QuadraticForm(np.eye(3), np.array([1.0, -0.1, 2.0]), np.zeros(3))


def test_orthogonal_matrix_is_orthogonal():
    rng = generator(14)
    q = orthogonal_matrix(7, rng)
    np.testing.assert_allclose(q.T @ q, np.eye(7), atol=1e-12)


# ---------------------------------------------------------------------------
# Generated instance families


def test_exp1_structure_and_residual():
    inst = generate_instance("exp1", 21, n=10, d=10, alpha=0.5, l_max=100.0)
    assert inst.n == 10 and inst.d == 10
    ls = [float(L) for L in inst.L_h]
    assert ls[:2] == [100.0, 100.0]
    assert ls[2:] == [50.0] * 8
    assert np.all(inst.mu_h == 0.0)
    # each spectrum carries a fifth of exact zeros
    for i in range(inst.n):
        lam = inst.payload["lam"][i]
        assert int((lam == 0.0).sum()) == 2
        assert lam.max() <= ls[i] + 1e-12
    diag = inst.payload["f_diag"]
    assert np.all((diag >= 0.1) & (diag <= 10.0))
    assert inst.f.mu == pytest.approx(diag.min())
    assert inst.optimality_residual() <= 1e-8


def test_exp2_structure_and_residual():
    inst = generate_instance("exp2", 22, d=30, mu=1e-4)
    assert inst.n == inst.d == 30
    assert inst.f.L == 0.0
    w = inst.payload["w"]
    np.testing.assert_allclose(w.T @ w, np.eye(30), atol=1e-10)
    # constraints meet exactly at the reference point
    np.testing.assert_allclose(w @ inst.x_star, inst.payload["b"], atol=1e-10)
    # duals average to zero because f and g vanish
    assert np.linalg.norm(inst.u_star.mean(axis=0)) <= 1e-10
    # each dual is the ridge gradient plus a multiple of its normal
    for i in range(inst.n):
        r = inst.u_star[i] - 1e-4 * inst.x_star
        residual = r - (r @ w[i]) / (w[i] @ w[i]) * w[i]
        assert np.linalg.norm(residual) <= 1e-10
    assert inst.optimality_residual() <= 1e-8


def test_exp3_structure_and_residual():
    inst = generate_instance("exp3", 23, n=8, d=12, mu=1.0, l_max=50.0)
    assert inst.n == 8 and inst.d == 12
    for i in range(inst.n):
        lam = inst.payload["lam"][i]
        assert lam.min() >= 1.0 - 1e-12
        assert lam.max() <= 50.0 + 1e-12
        assert float(inst.L_h[i]) == 50.0
        assert inst.h[i].mu == 1.0
    assert inst.optimality_residual() <= 1e-8


def test_dual_feasibility_of_quadratic_references():
    inst = generate_instance("exp3", 24, n=6, d=9, mu=0.5, l_max=10.0)
    for i in range(inst.n):
        form = QuadraticForm(
            inst.payload["q"][i], inst.payload["lam"][i], inst.payload["b"][i]
        )
        np.testing.assert_allclose(
            inst.u_star[i], form.gradient(inst.x_star), atol=1e-10
        )


def test_generators_are_seed_deterministic():
    a = generate_instance("exp1", 77, n=10, d=10, alpha=0.05, l_max=200.0)
    b = generate_instance("exp1", 77, n=10, d=10, alpha=0.05, l_max=200.0)
    c = generate_instance("exp1", 78, n=10, d=10, alpha=0.05, l_max=200.0)
    np.testing.assert_array_equal(a.x_star, b.x_star)
    np.testing.assert_array_equal(a.payload["q"], b.payload["q"])
    assert not np.array_equal(a.x_star, c.x_star)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        generate_instance("exp9", 0)


def test_custom_instances_validate_shapes():
    with pytest.raises(ConfigurationError):
        ProblemInstance(
            f=zero_smooth(), g=zero_prox(), h=(zero_prox(),),
            x_star=np.zeros(3), u_star=np.zeros((2, 3)),
        )


@pytest.mark.parametrize("kind, params, keys", [
    ("exp1", {"n": 5, "d": 4}, {"q", "lam", "b", "f_diag"}),
    ("exp2", {"d": 6}, {"w", "b"}),
    ("exp3", {"n": 5, "d": 4}, {"q", "lam", "b", "f_diag"}),
])
def test_generated_instances_store_each_array_once(kind, params, keys):
    # n and d follow from the oracles and the reference; the payload holds
    # only the drawn arrays, and the oracles read those arrays, not copies
    inst = generate_instance(kind, 3, **params)
    assert (inst.n, inst.d) == (len(inst.h), inst.x_star.size)
    assert set(inst.payload) == keys
    bound = inst.h[-1].prox.args[0]
    if kind == "exp2":
        assert np.shares_memory(bound, inst.payload["w"])
    else:
        assert np.shares_memory(bound.Q, inst.payload["q"])
        assert np.shares_memory(bound.b, inst.payload["b"])


OVERFLOWING_REFERENCES = [
    # the mean of the linear terms overflows, so x* is NaN
    ("exp3", {"n": 3, "d": 3, "l_max": 1e308}),
    # the dual multipliers -d mu W x* overflow to +-inf
    ("exp2", {"d": 3, "mu": 1e308}),
]


@pytest.mark.parametrize("kind, params", OVERFLOWING_REFERENCES)
def test_a_reference_that_overflows_is_refused(kind, params):
    with pytest.raises(ConfigurationError, match="under- or overflows float64"):
        generate_instance(kind, 0, **params)


@pytest.mark.parametrize("kind, params", OVERFLOWING_REFERENCES)
def test_a_reference_that_overflows_emits_no_warning(kind, params):
    # the residual check is the one refusal; numpy's warnings on the way
    # would only print noise before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConfigurationError):
            generate_instance(kind, 0, **params)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# Batched prox rows


@lru_cache(maxsize=None)
def _exp3_instance(n, d):
    return generate_instance("exp3", 5, n=n, d=d, mu=1.0, l_max=20.0)


@settings(max_examples=120, deadline=None)
@given(d_blocks=st.integers(1, 30), d_rest=st.integers(0, 3), n=st.integers(1, 6),
       k_rest=st.sampled_from([1, 2, 3, None]), k_share=st.floats(0.0, 1.0),
       everyone=st.booleans(), seed=st.integers(0, 2**32 - 1))
# for each d mod 4, one k on each side of the crossover, every component drawn
@example(d_blocks=6, d_rest=0, n=3, k_rest=1, k_share=0.0, everyone=True, seed=0)
@example(d_blocks=6, d_rest=1, n=3, k_rest=2, k_share=0.0, everyone=True, seed=1)
@example(d_blocks=6, d_rest=2, n=3, k_rest=3, k_share=0.0, everyone=True, seed=2)
@example(d_blocks=6, d_rest=3, n=3, k_rest=1, k_share=0.0, everyone=True, seed=3)
@example(d_blocks=6, d_rest=0, n=3, k_rest=3, k_share=1.0, everyone=True, seed=4)
@example(d_blocks=6, d_rest=1, n=3, k_rest=1, k_share=0.5, everyone=True, seed=5)
@example(d_blocks=6, d_rest=2, n=3, k_rest=2, k_share=0.9, everyone=True, seed=6)
@example(d_blocks=6, d_rest=3, n=3, k_rest=None, k_share=0.0, everyone=True, seed=7)
def test_kept_rows_match_the_blas_row_blocking(d_blocks, d_rest, n, k_rest, k_share,
                                               everyone, seed):
    # prox_rows with kept columns reads only those rows of each eigenbasis
    # when every component is drawn; it equals the full product's gather bit
    # for bit only while the BLAS matrix-vector kernel sums a row in 4-row
    # blocks and the last d mod 4 rows alone, in an order that its place in
    # the product does not change
    d = 4 * d_blocks + d_rest
    k = d if k_rest is None else min(d, 4 * int(k_share * (d // 4)) + k_rest)
    inst = _exp3_instance(n, d)
    rng = np.random.default_rng(seed)
    members = np.arange(n) if everyone else np.flatnonzero(rng.random(n) < 0.7)
    if members.size == 0:
        members = np.arange(n)
    m = members.size
    cols = np.sort(np.array([rng.choice(d, k, replace=False) for _ in range(m)]), axis=1)
    gammas = rng.uniform(0.01, 3.0, size=m)
    V = 10.0 * rng.standard_normal((m, d))
    full = inst.prox_rows(members, gammas, V)
    kept = inst.prox_rows(members, gammas, V, inst.kept_rows(cols, [m])[0])
    assert kept.shape == (m, k)
    assert np.array_equal(kept, full[np.arange(m)[:, None], cols])
    # the plan lays out these masks in a round that draws every component
    layout = _exp3_instance(m, d).kept_rows(cols, [m])[0].layout
    if k_share == 0.0 and k_rest is not None and d >= 4 / KEPT_ROWS_MAX_SHARE:
        assert layout is not None
    if k == d:
        assert layout is None


@pytest.mark.parametrize("kind, params", [
    ("exp1", {"n": 6, "d": 7}),
    ("exp2", {"d": 9}),
    ("exp3", {"n": 6, "d": 7}),
    ("exp3", {"n": 40, "d": 40}),
])
@pytest.mark.parametrize("subset", [False, True], ids=["every", "subset"])
def test_batched_prox_equals_the_per_oracle_prox(kind, params, subset):
    inst = generate_instance(kind, 9, **params)
    rng = np.random.default_rng(1)
    members = np.flatnonzero(rng.random(inst.n) < 0.5) if subset else np.arange(inst.n)
    gammas = rng.uniform(0.01, 3.0, size=members.size)
    V = 10.0 * rng.standard_normal((members.size, inst.d))
    expected = np.stack([inst.h[i].prox(g, v) for i, g, v in zip(members, gammas, V)])
    assert np.array_equal(inst.prox_rows(members, gammas, V), expected)


def test_the_kept_stepsize_arrays_follow_the_stepsizes():
    # prox_rows keeps the stepsize arrays of a call that draws every
    # component; a call with other stepsizes, or the same in another order,
    # builds them afresh
    inst = generate_instance("exp3", 9, n=5, d=6)
    rng = np.random.default_rng(3)
    members = np.arange(inst.n)
    V = 10.0 * rng.standard_normal((inst.n, inst.d))
    first = rng.uniform(0.01, 3.0, size=inst.n)
    for gammas in (first, first, 2.0 * first, first[::-1], first):
        expected = np.stack([inst.h[i].prox(g, v) for i, g, v in zip(members, gammas, V)])
        assert np.array_equal(inst.prox_rows(members, gammas, V), expected)


def test_an_instance_without_stacked_arrays_calls_its_oracles():
    inst = generate_instance("exp3", 9, n=4, d=5)
    calls = []

    def recorded(oracle):
        def prox(gamma, v):
            calls.append(gamma)
            return oracle.prox(gamma, v)
        return dataclasses.replace(oracle, prox=prox)

    hand_built = ProblemInstance(f=inst.f, g=inst.g, h=tuple(recorded(o) for o in inst.h),
                                 x_star=inst.x_star, u_star=inst.u_star)
    assert hand_built.payload == {}
    members = np.array([0, 2, 3])
    gammas = np.array([0.5, 1.0, 2.0])
    V = np.random.default_rng(2).standard_normal((3, 5))
    rows = hand_built.prox_rows(members, gammas, V)
    assert calls == [0.5, 1.0, 2.0]
    assert np.array_equal(rows, inst.prox_rows(members, gammas, V))


def test_kept_row_layout_pads_the_blocks_and_keeps_the_tail_whole():
    # d = 22: rows 0-19 form the product's 4-row blocks, 20 and 21 its tail
    cols = np.array([[3, 7, 21], [0, 20, 21]])
    rows, where = _exp3_instance(2, 22).kept_rows(cols, [2])[0].layout
    assert rows.tolist() == [[3, 7, 21, 21, 20, 21], [0, 20, 21, 21, 20, 21]]
    # each kept value's place in the gathered product: tail rows from the tail
    assert where.tolist() == [[0, 1, 5], [0, 4, 5]]
    # past the crossover, the full product is taken
    assert _exp3_instance(1, 22).kept_rows(np.arange(12)[None, :], [1])[0].layout is None


@pytest.mark.parametrize("gamma", [0.0, -1.0])
@pytest.mark.parametrize("prox", [
    lambda gamma: generate_instance("exp3", 9, n=3, d=4).prox_rows(
        np.arange(3), np.array([1.0, gamma, 1.0]), np.zeros((3, 4))),
    lambda gamma: quadratic_prox(random_quadratic(np.random.default_rng(0), 3), gamma,
                                 np.zeros(3)),
    lambda gamma: hyperplane_ridge_prox(np.ones(3), 1.0, 0.5, gamma, np.zeros(3), wnorm2=3.0),
], ids=["prox_rows", "quadratic_prox", "hyperplane_ridge_prox"])
def test_a_nonpositive_stepsize_is_refused(prox, gamma):
    with pytest.raises(ConfigurationError, match="prox needs gamma > 0"):
        prox(gamma)


# ---------------------------------------------------------------------------
# Split rounds: a helper thread solves the upper half of a large stacked prox

SPLIT_D = 100
# the smallest odd member count whose eigenbases at SPLIT_D pass the threshold
SPLIT_M = problems._SPLIT_MIN_BYTES // (8 * SPLIT_D ** 2) + 1
SPLIT_M += 1 - SPLIT_M % 2


@pytest.fixture
def two_cpus(monkeypatch):
    # the helper runs wherever two CPUs may be used; grant them on any host
    monkeypatch.setattr(problems.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _split_round(kind, seed=0):
    """A round past the split threshold at SPLIT_D: the instance, its members,
    stepsizes, points and kept rows (None for the whole prox)."""
    n = SPLIT_M + 4 if kind == "subset" else SPLIT_M
    inst = _exp3_instance(n, SPLIT_D)
    rng = np.random.default_rng(seed)
    members = np.sort(rng.choice(n, SPLIT_M, replace=False)) if kind == "subset" \
        else np.arange(SPLIT_M)
    k = {"whole": 1, "layout": 10, "no layout": 30, "subset": 10}[kind]
    cols = np.sort(np.array([rng.choice(SPLIT_D, k, replace=False) for _ in members]),
                   axis=1).astype(np.int32)
    kept = None if kind == "whole" else inst.kept_rows(cols, [members.size])[0]
    gammas = rng.uniform(0.01, 3.0, size=members.size)
    V = 10.0 * rng.standard_normal((members.size, SPLIT_D))
    return inst, members, gammas, V, kept


@pytest.mark.parametrize("kind", ["whole", "layout", "no layout", "subset"])
def test_a_split_round_equals_the_oracle_loop_and_the_inline_round(kind, two_cpus,
                                                                   monkeypatch):
    inst, members, gammas, V, kept = _split_round(kind)
    assert SPLIT_M % 2 == 1 and SPLIT_M * 8 * SPLIT_D ** 2 > problems._SPLIT_MIN_BYTES
    assert (kept is not None and kept.layout is not None) == (kind == "layout")
    loop = np.stack([inst.h[i].prox(g, v) for i, g, v in zip(members, gammas, V)])
    if kept is not None:
        loop = loop[np.arange(members.size)[:, None], kept.cols]
    real, helped = problems._split_helper, []
    monkeypatch.setattr(problems, "_split_helper", lambda: helped.append(1) or real())
    split = inst.prox_rows(members, gammas, V, kept)
    assert helped
    monkeypatch.setattr(problems, "_split_helper", lambda: None)
    inline = inst.prox_rows(members, gammas, V, kept)
    assert np.array_equal(split, loop)
    assert np.array_equal(split, inline)


def test_a_round_below_the_threshold_stays_inline(two_cpus, monkeypatch):
    # criterion 9's federated runs at n = d = 20 never start the helper
    inst = _exp3_instance(20, 20)
    helped = []
    monkeypatch.setattr(problems, "_split_helper", lambda: helped.append(1))
    inst.prox_rows(np.arange(20), np.full(20, 0.5), np.ones((20, 20)))
    assert not helped


def _forked_split_round(conn, args):
    # in a child forked after the parent used its helper
    inherited = problems._helper
    rows = args[0].prox_rows(*args[1:])
    conn.send((inherited is None, problems._helper is not None, rows))


def test_a_forked_child_runs_a_split_round(two_cpus):
    args = _split_round("layout")
    expected = args[0].prox_rows(*args[1:])
    assert problems._helper is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_forked_split_round, args=(send, args))
    child.start()
    try:
        assert receive.poll(60), "the forked child's split round hung"
        dropped, remade, rows = receive.recv()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert dropped and remade
    assert np.array_equal(rows, expected)


def test_an_error_in_the_helpers_half_reaches_the_caller(two_cpus, monkeypatch):
    inst, members, gammas, V, kept = _split_round("layout")
    expected = inst.prox_rows(members, gammas, V, kept)
    upper = SPLIT_M - (SPLIT_M + 1) // 2
    error, raised_in = RuntimeError("injected"), []
    matmul = np.matmul

    def faulty(a, *rest, **kwargs):
        if len(a) == (SPLIT_M + 1) // 2:
            # the caller's half waits, so the helper surely takes its own
            time.sleep(0.05)
        elif len(a) == upper:
            raised_in.append(threading.current_thread())
            raise error
        return matmul(a, *rest, **kwargs)

    monkeypatch.setattr(problems.np, "matmul", faulty)
    with pytest.raises(RuntimeError) as caught:
        inst.prox_rows(members, gammas, V, kept)
    assert caught.value is error
    assert raised_in and raised_in[0] is not threading.main_thread()
    monkeypatch.setattr(problems.np, "matmul", matmul)
    assert np.array_equal(inst.prox_rows(members, gammas, V, kept), expected)


def test_a_busy_helper_leaves_its_half_to_the_caller(two_cpus):
    inst, members, gammas, V, kept = _split_round("layout")
    expected = inst.prox_rows(members, gammas, V, kept)
    release = threading.Event()
    blocker = problems._split_helper().submit(release.wait, 60)
    try:
        # the round's upper half queues behind the blocker and is cancelled
        rows = inst.prox_rows(members, gammas, V, kept)
        assert not blocker.done()
        assert np.array_equal(rows, expected)
        # the cancelled handoff, still queued, keeps none of the round's arrays
        freed = weakref.ref(rows)
        del rows
        assert freed() is None
    finally:
        release.set()
    assert blocker.result() is True


def test_one_allowed_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(problems.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(problems, "_helper", None)
    inst, members, gammas, V, kept = _split_round("layout")
    threads = threading.active_count()
    rows = inst.prox_rows(members, gammas, V, kept)
    assert problems._helper is None
    assert threading.active_count() == threads
    loop = np.stack([inst.h[i].prox(g, v) for i, g, v in zip(members, gammas, V)])
    assert np.array_equal(rows, loop[np.arange(SPLIT_M)[:, None], kept.cols])
