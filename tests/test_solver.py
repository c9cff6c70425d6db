"""Solver behavior: fixed points, stream conventions, certified contractions.

The contraction tests lean on conditional_expected_lyapunov, which enumerates
the sampling law's support exactly, so the one-step inequalities are checked
without Monte-Carlo noise. The classical special cases (single-index proximal
steps, skip-style updates, the full-batch three-operator iteration) are
reimplemented independently here and compared against the solver step by step
on shared random streams.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprox import (
    INFINITE,
    Adaptive,
    ConfigurationError,
    Constant,
    ExplicitSupport,
    FullBatch,
    HypothesisViolation,
    IndependentParticipation,
    NumericalDivergence,
    ProblemInstance,
    ProxOracle,
    SingletonWeighted,
    SmoothOracle,
    SolverParams,
    SolverState,
    UniformMinibatch,
    Unsupported,
    conditional_expected_lyapunov,
    derive_params,
    dual_error,
    generate_instance,
    generator,
    importance_plan,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    point_saga_step,
    rate_inputs_from,
    run,
    scaled_sqnorm,
    sq_dist,
    step,
    zero_prox,
    zero_smooth,
)
from multiprox.problems import QuadraticForm, harmonic_curvature, orthogonal_matrix
from multiprox.rates import VERY_LARGE_GAMMA, rho_n1_simple_g, transfer_cap
from multiprox.solver import (
    ACCEL_NO_CURVATURE,
    ACCEL_NONEMPTY,
    CERTIFIED_RADIUS_K,
    LINEAR_SINGLE,
    LINEAR_SMOOTH,
    SIMILARITY,
    TRUST_RADIUS,
    _check_trust_region,
    _dual_sq,
    _forward,
    certify_radius,
    clone_state,
    gamma_at,
)


# ---------------------------------------------------------------------------
# Fixtures


def quad_instance(seed, n, d, lam_range=(0.5, 4.0), zero_eigs=0, f_range=None,
                  mu_g=0.0, delta=None):
    """Random spectral quadratics with optional diagonal f and sqnorm g.

    ``zero_eigs`` forces that many zero eigenvalues into every component, which
    drops the exact strong-convexity constant of each h_i to zero while f or g
    keeps the aggregate strongly convex.
    """
    rng = generator(seed)
    forms = []
    for _ in range(n):
        q = orthogonal_matrix(d, rng)
        lam = rng.uniform(lam_range[0], lam_range[1], size=d)
        lam[:zero_eigs] = 0.0
        b = rng.uniform(-1.0, 1.0, size=d)
        forms.append(QuadraticForm(q, lam, b))
    f_diag = None if f_range is None else rng.uniform(f_range[0], f_range[1], size=d)
    lhs = sum(f.dense() for f in forms) / n + mu_g * np.eye(d)
    if f_diag is not None:
        lhs = lhs + np.diag(f_diag)
    x_star = np.linalg.solve(lhs, sum(f.b for f in forms) / n)
    u_star = np.stack([f.gradient(x_star) for f in forms])
    smooth = zero_smooth()
    if f_diag is not None:
        smooth = SmoothOracle(
            grad=lambda v, c=f_diag: c * v, L=float(f_diag.max()), mu=float(f_diag.min())
        )
    g = scaled_sqnorm(mu_g) if mu_g > 0 else zero_prox()
    instance = ProblemInstance(
        f=smooth, g=g, h=tuple(f.as_oracle() for f in forms),
        x_star=x_star, u_star=u_star, delta=delta,
    )
    assert instance.optimality_residual() <= 1e-8
    return instance


def shifted_sqnorm_component(mu, center):
    """mu/2 ||x - center||^2, declared with an infinite smoothness constant."""

    def prox(gamma, v):
        return (v + gamma * mu * center) / (1.0 + gamma * mu)

    return ProxOracle(prox=prox, mu=mu, L=INFINITE,
                      grad_at=lambda x: mu * (x - center))


def strong_single_instance(mu_h=2.0, mu_g=1.0, d=3):
    center = np.arange(1.0, d + 1.0)
    x_star = mu_h * center / (mu_g + mu_h)
    u_star = (mu_h * (x_star - center))[None, :]
    return ProblemInstance(
        f=zero_smooth(), g=scaled_sqnorm(mu_g),
        h=(shifted_sqnorm_component(mu_h, center),),
        x_star=x_star, u_star=u_star,
    )


def single_empty_law(p_empty):
    return ExplicitSupport(1, [((), p_empty), ((0,), 1.0 - p_empty)])


def state_at_solution(instance, track_z=False):
    z = np.tile(instance.x_star, (instance.n, 1)) if track_z else None
    return SolverState(t=0, x=instance.x_star.copy(), u=instance.u_star.copy(),
                       u_bar=instance.u_star.mean(axis=0), z=z)


def random_state(rng, instance, spread=1.0, consistent=False, t=0):
    """Random state; ``consistent`` anchors every dual at a gradient."""
    x = instance.x_star + spread * rng.standard_normal(instance.d)
    if consistent:
        z = instance.x_star + spread * rng.standard_normal((instance.n, instance.d))
        u = np.stack([instance.h[i].grad_at(z[i]) for i in range(instance.n)])
    else:
        z = None
        u = instance.u_star + spread * rng.standard_normal((instance.n, instance.d))
    return SolverState(t=t, x=x, u=u, u_bar=u.mean(axis=0), z=z)


def proxskip_fixture():
    """n=1, g=0, components without strong convexity, always-accept coin."""
    inst = quad_instance(13, n=1, d=4, lam_range=(0.0, 6.0), zero_eigs=1,
                         f_range=(0.5, 1.5))
    law = single_empty_law(0.3)
    params = derive_params(inst, law, Constant(0.5), p_hat=1.0)
    return inst, law, params


# ---------------------------------------------------------------------------
# Schedules


class TestSchedules:
    def test_constant_rejects_nonpositive_stepsize(self):
        with pytest.raises(ConfigurationError):
            Constant(0.0)
        with pytest.raises(ConfigurationError):
            Constant(-0.1)

    def test_adaptive_rejects_small_offset(self):
        # the envelope certificate needs a > 5
        with pytest.raises(HypothesisViolation):
            Adaptive(1.0, 5.0)
        with pytest.raises(ConfigurationError):
            Adaptive(0.0, 6.0)

    @pytest.mark.parametrize("build", [
        lambda: Constant(float("nan")),
        # the planner's stepsize when L_f = max L_h = 0
        lambda: Constant(VERY_LARGE_GAMMA),
        lambda: Adaptive(mu=float("nan"), a=6.0),
        lambda: Adaptive(mu=1.0, a=float("nan")),
    ], ids=["constant-nan", "constant-very-large", "adaptive-mu-nan", "adaptive-a-nan"])
    def test_schedules_refuse_what_is_not_a_real_number(self, build):
        with pytest.raises(ConfigurationError, match="finite real number"):
            build()

    def test_adaptive_stepsize_values(self):
        sched = Adaptive(2.0, 6.0)
        assert gamma_at(sched, -1) == 2.0 / (2.0 * 5.0)
        assert gamma_at(sched, 0) == 2.0 / (2.0 * 6.0)
        assert gamma_at(sched, 4) == 0.1
        with pytest.raises(ConfigurationError):
            gamma_at(sched, -2)

    def test_constant_schedule_ignores_time(self):
        assert gamma_at(Constant(0.3), -1) == 0.3
        assert gamma_at(Constant(0.3), 10**6) == 0.3


class TestSolverParamsValidation:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ConfigurationError):
            SolverParams(np.array([1.0, 0.0]), 1.0, 0.0, 0.0, Constant(0.1))

    def test_rejects_acceptance_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            SolverParams(np.array([1.0]), 1.5, 0.0, 0.0, Constant(0.1))

    def test_rejects_negative_derived_constants(self):
        with pytest.raises(ConfigurationError):
            SolverParams(np.array([1.0]), 1.0, -0.1, 0.0, Constant(0.1))


# ---------------------------------------------------------------------------
# Initial state


class TestInitialState:
    def test_duals_start_at_gradients_when_available(self):
        inst = generate_instance("exp3", 4, n=3, d=5, mu=0.5, l_max=6.0)
        x0 = generator(1).standard_normal(5)
        state = initial_state(inst, x0=x0)
        for i in range(3):
            assert np.allclose(state.u[i], inst.h[i].grad_at(x0), atol=1e-14)
        assert np.allclose(state.u_bar, state.u.mean(axis=0), atol=1e-14)

    def test_duals_start_at_zero_without_gradient_access(self):
        inst = generate_instance("exp2", 4, d=6)
        state = initial_state(inst)
        assert not state.u.any()

    def test_anchor_tracking_needs_gradients(self):
        inst = generate_instance("exp2", 4, d=6)
        with pytest.raises(ConfigurationError):
            initial_state(inst, track_z=True)

    def test_anchor_tracking_starts_consistent(self):
        inst = generate_instance("exp3", 4, n=3, d=4, mu=0.5, l_max=6.0)
        x0 = generator(2).standard_normal(4)
        state = initial_state(inst, x0=x0, track_z=True)
        assert np.array_equal(state.z, np.tile(x0, (3, 1)))
        for i in range(3):
            assert np.allclose(state.u[i], inst.h[i].grad_at(state.z[i]), atol=1e-14)

    def test_rejects_mismatched_initial_point(self):
        inst = generate_instance("exp3", 4, n=3, d=4, mu=0.5, l_max=6.0)
        with pytest.raises(ConfigurationError):
            initial_state(inst, x0=np.zeros(5))


# ---------------------------------------------------------------------------
# Parameter derivation


class TestDeriveParams:
    def test_uniform_minibatch_gives_unit_weights(self):
        inst = generate_instance("exp3", 2, n=4, d=4, mu=0.5, l_max=6.0)
        params = derive_params(inst, UniformMinibatch(4, 2), Constant(0.05))
        assert np.allclose(params.eta, 1.0, atol=1e-12)
        assert params.p_bar == 0.0
        cap = harmonic_curvature(0.5, 6.0)
        assert abs(params.mu_hat_h - cap) <= 1e-12
        assert abs(params.p_hat - 1.0 / (1.0 + 0.05 * cap)) <= 1e-12

    def test_single_component_skip_weight(self):
        # p_empty = 0.3 with an always-accept coin inflates the weight to 1/0.7
        inst = quad_instance(7, n=1, d=4, lam_range=(0.0, 5.0), zero_eigs=1,
                             f_range=(0.5, 1.5))
        params = derive_params(inst, single_empty_law(0.3), Constant(0.4), p_hat=1.0)
        assert abs(params.eta[0] - 1.0 / 0.7) <= 1e-12
        assert params.p_hat == 1.0
        assert abs(params.p_bar - 0.3) <= 1e-12
        assert params.mu_hat_h == 0.0

    def test_default_acceptance_decouples_the_weights(self):
        law = ExplicitSupport(2, [((), 0.25), ((0,), 0.375), ((1,), 0.375)])
        inst = quad_instance(9, n=2, d=3)
        params = derive_params(inst, law, Constant(0.1))
        # survival mass p_bar = p_empty, so the weight formula collapses to
        # 1/(n p~ (1 - p_empty)) = 1/(2 * 0.5 * 0.75)
        assert np.allclose(params.eta, 4.0 / 3.0, atol=1e-12)
        assert abs(params.p_bar - 0.25) <= 1e-15
        assert abs(params.p_hat - 1.0 / (1.0 + 0.1 * params.mu_hat_h)) <= 1e-15

    def test_explicit_acceptance_resolved_jointly(self):
        law = ExplicitSupport(2, [((), 0.3), ((0,), 0.35), ((1,), 0.35)])
        inst = quad_instance(9, n=2, d=3)
        gamma = 0.1
        canonical = derive_params(inst, law, Constant(gamma))
        accept = 0.5 * canonical.p_hat
        params = derive_params(inst, law, Constant(gamma), p_hat=accept)
        assert abs(params.p_bar - 0.3 * accept * (1.0 + gamma * params.mu_hat_h)) <= 1e-12
        expected_eta = (1.0 - 0.3 + params.p_bar) / (2 * 0.5 * (1.0 - 0.3))
        assert np.allclose(params.eta, expected_eta, atol=1e-12)

    def test_explicit_acceptance_above_bound_rejected(self):
        inst = generate_instance("exp3", 2, n=4, d=4, mu=0.5, l_max=6.0)
        with pytest.raises(HypothesisViolation):
            derive_params(inst, UniformMinibatch(4, 2), Constant(0.05), p_hat=1.0)

    def test_explicit_acceptance_transfer_is_the_cap_of_its_weights(self):
        # mu_hat and the weights come out of one linear equation, so the
        # returned transfer is the cap of the returned weights to rounding
        rng = generator(31)
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(1, 5))
            subsets = [()] + [(i,) for i in range(n)] + [
                tuple(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                for _ in range(2)
            ]
            law = ExplicitSupport(n, list(zip(subsets, rng.dirichlet(np.ones(len(subsets))))))
            lo = float(rng.uniform(0.05, 2.0))
            inst = quad_instance(int(rng.integers(2**31)), n=n, d=3,
                                 lam_range=(lo, lo * float(rng.uniform(1.5, 100.0))))
            gamma = float(10.0 ** rng.uniform(-3.0, 0.0))
            canonical = derive_params(inst, law, Constant(gamma))
            accept = float(rng.uniform(0.0, 1.0)) * canonical.p_hat
            params = derive_params(inst, law, Constant(gamma), p_hat=accept)
            cap = transfer_cap(params.eta, inst.mu_h, inst.L_h)
            assert abs(params.mu_hat_h - cap) <= 4.0 * eps * params.mu_hat_h

    def test_explicit_acceptance_without_a_finite_transfer_rejected(self):
        # p_empty p_hat gamma mu_cap >= 1: the coupled transfer has no solution
        inst = generate_instance("exp3", 2, n=1, d=3, mu=0.5, l_max=6.0)
        law = ExplicitSupport(1, [((), 0.9), ((0,), 0.1)])
        with pytest.raises(HypothesisViolation, match="no curvature transfer"):
            derive_params(inst, law, Constant(1.0), p_hat=1.0)

    def test_law_size_must_match(self):
        inst = generate_instance("exp3", 2, n=4, d=4, mu=0.5, l_max=6.0)
        with pytest.raises(ConfigurationError):
            derive_params(inst, UniformMinibatch(3, 2), Constant(0.05))

    def test_stepsize_bound_from_f(self):
        inst = quad_instance(5, n=2, d=3, f_range=(1.0, 2.0))
        bad = 2.0 / inst.f.L
        with pytest.raises(HypothesisViolation):
            derive_params(inst, UniformMinibatch(2, 1), Constant(bad))
        derive_params(inst, UniformMinibatch(2, 1), Constant(0.9 * bad))

    def test_adaptive_with_empties_and_curvature_unsupported(self):
        inst = generate_instance("exp3", 2, n=3, d=4, mu=0.5, l_max=6.0)
        law = IndependentParticipation([0.5, 0.6, 0.7])
        with pytest.raises(Unsupported):
            derive_params(inst, law, Adaptive(0.5, 6.0))

    def test_adaptive_curvature_must_match_certificate(self):
        inst = generate_instance("exp3", 2, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        # eta = 1/(n p~) = 1, transfer 2 eta mu = 1, certified mu = 1/2
        with pytest.raises(HypothesisViolation):
            derive_params(inst, law, Adaptive(0.7, 6.0))
        params = derive_params(inst, law, Adaptive(0.5, 6.0))
        assert np.allclose(params.eta, 1.0)
        assert abs(params.mu_hat_h - 1.0) <= 1e-12
        assert params.p_hat == 1.0 and params.p_bar == 0.0

    def test_adaptive_curvature_transfer_skips_harmonic_factor(self):
        # with L = 6 the harmonic transfer would be 2*0.5*6/6.5, not 1
        inst = generate_instance("exp3", 2, n=3, d=4, mu=0.5, l_max=6.0)
        params = derive_params(inst, UniformMinibatch(3, 1), Adaptive(0.5, 6.0))
        assert abs(params.mu_hat_h - 2.0 * 0.5) <= 1e-12

    def test_adaptive_initial_stepsize_capped_by_f(self):
        base = quad_instance(13, n=1, d=3, lam_range=(0.0, 4.0), zero_eigs=1,
                             f_range=(0.5, 1.0))
        stiff = dataclasses.replace(
            base, f=SmoothOracle(grad=np.copy, L=50.0, mu=1.0)
        )
        law = single_empty_law(0.3)
        with pytest.raises(HypothesisViolation):
            derive_params(stiff, law, Adaptive(1.0, 5.5))
        params = derive_params(stiff, law, Adaptive(1.0, 60.0))
        assert abs(params.eta[0] - 1.0 / 0.7) <= 1e-12
        assert params.mu_hat_h == 0.0
        assert params.p_hat == 1.0
        assert abs(params.p_bar - 0.3) <= 1e-15

    def test_adaptive_requires_always_accepting(self):
        inst = generate_instance("exp3", 2, n=3, d=4, mu=0.5, l_max=6.0)
        with pytest.raises(HypothesisViolation):
            derive_params(inst, UniformMinibatch(3, 1), Adaptive(0.5, 6.0), p_hat=0.5)

    def test_adaptive_needs_a_strong_source(self):
        inst = quad_instance(13, n=2, d=3, lam_range=(0.0, 4.0), zero_eigs=1)
        with pytest.raises(HypothesisViolation):
            derive_params(inst, UniformMinibatch(2, 1), Adaptive(1.0, 6.0))


# ---------------------------------------------------------------------------
# Fixed points and step-level invariants


FIXED_POINT_LAWS = [
    UniformMinibatch(5, 2),
    FullBatch(5),
    SingletonWeighted([0.1, 0.15, 0.2, 0.25, 0.3]),
    IndependentParticipation([0.4, 0.5, 0.6, 0.7, 0.8]),
    ExplicitSupport(5, [((), 0.25), ((0, 1, 2, 3, 4), 0.25), ((0, 2), 0.25),
                        ((1, 3, 4), 0.25)]),
]


class TestStep:
    @pytest.mark.parametrize("law", FIXED_POINT_LAWS, ids=lambda l: type(l).__name__)
    def test_solution_is_a_fixed_point(self, law):
        inst = generate_instance("exp3", 6, n=5, d=6, mu=0.5, l_max=6.0)
        params = derive_params(inst, law, Constant(0.8))
        state = state_at_solution(inst)
        rng = generator(3)
        for _ in range(100):
            step(state, inst, params, law, rng)
        assert math.sqrt(sq_dist(state, inst)) <= 1e-10
        assert dual_error(state, inst) <= 1e-10

    def test_step_mutates_in_place(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.1))
        state = initial_state(inst)
        assert step(state, inst, params, law, generator(0)) is state
        assert state.t == 1

    def test_average_cache_and_anchor_identity(self):
        inst = generate_instance("exp3", 11, n=4, d=5, mu=0.5, l_max=6.0)
        law = UniformMinibatch(4, 2)
        params = derive_params(inst, law, Constant(0.05), track_z=True)
        state = initial_state(inst, x0=generator(8).standard_normal(5), track_z=True)
        rng = generator(3)
        for _ in range(200):
            step(state, inst, params, law, rng)
            assert np.abs(state.u_bar - state.u.mean(axis=0)).max() <= 1e-12
            for i in range(inst.n):
                assert np.abs(state.u[i] - inst.h[i].grad_at(state.z[i])).max() <= 1e-10

    def test_empty_round_coin_is_always_drawn(self):
        # documented stream order: subset draw, then one uniform on empty
        # rounds even when the acceptance coin is deterministic
        inst = quad_instance(5, n=2, d=3, lam_range=(0.0, 4.0), zero_eigs=1)
        law = ExplicitSupport(2, [((), 0.9), ((0, 1), 0.1)])
        params = derive_params(inst, law, Constant(0.3), p_hat=1.0)
        seed = next(s for s in range(100) if not law.sample(generator(s)))
        rng_step, rng_ref = generator(seed), generator(seed)
        step(random_state(generator(1), inst), inst, params, law, rng_step)
        law.sample(rng_ref)
        rng_ref.random()
        assert np.array_equal(rng_step.random(8), rng_ref.random(8))

    def test_nonempty_round_consumes_only_the_subset_draw(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.1))
        rng_step, rng_ref = generator(4), generator(4)
        step(initial_state(inst), inst, params, law, rng_step)
        law.sample(rng_ref)
        assert np.array_equal(rng_step.random(8), rng_ref.random(8))

    def test_divergence_reports_the_iteration(self):
        inst = ProblemInstance(
            f=SmoothOracle(grad=lambda v: v, L=1.0, mu=1.0), g=zero_prox(),
            h=(zero_prox(),),
            x_star=np.zeros(2), u_star=np.zeros((1, 2)),
        )
        params = SolverParams(np.ones(1), 1.0, 0.0, 0.0, Constant(3.0))
        state = SolverState(0, np.full(2, 1e9), np.zeros((1, 2)), np.zeros(2))
        # x doubles every step from 1e9 sqrt(2); the trust region is 1e12
        with pytest.raises(NumericalDivergence) as exc:
            run(inst, params, FullBatch(1), generator(0), 100, state=state)
        assert exc.value.iteration == 10

    def test_a_certificate_widens_the_trust_region_and_nan_still_fails(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        # a start past the fixed radius, which the certificate covers
        state = initial_state(inst, x0=np.full(4, 1e13))
        psi0 = lyapunov(state, inst, params, spec)
        certify_radius(state, inst, params, spec)
        assert spec.x_weight >= 1.0
        assert state.radius == (math.sqrt(float(inst.x_star @ inst.x_star))
                                + math.sqrt(CERTIFIED_RADIUS_K * psi0))
        assert clone_state(state).radius == state.radius > TRUST_RADIUS
        step(state, inst, params, law, generator(0))
        state.x[0] = np.nan
        with pytest.raises(NumericalDivergence):
            _check_trust_region(state)
        # a certificate never narrows the fixed radius
        near = initial_state(inst)
        certify_radius(near, inst, params, spec)
        assert near.radius == TRUST_RADIUS


class TestForwardPoint:
    """The forward point skips the zero f and identity g, and only those."""

    @staticmethod
    def linear_instance(d=4, mu_g=1.0, mu_h=2.0):
        # f(x) = c'x has L = 0 and a constant nonzero gradient
        c = np.linspace(1.0, 2.0, d)
        center = np.arange(1.0, d + 1.0)
        x_star = (mu_h * center - c) / (mu_g + mu_h)
        return ProblemInstance(
            f=SmoothOracle(grad=lambda x: c, L=0.0, mu=0.0), g=scaled_sqnorm(mu_g),
            h=(shifted_sqnorm_component(mu_h, center),),
            x_star=x_star, u_star=(mu_h * (x_star - center))[None, :],
        )

    @pytest.mark.parametrize("kind", ["exp2", "exp3", "linear"])
    def test_equals_the_full_formula(self, kind):
        if kind == "linear":
            inst = self.linear_instance()
        else:
            inst = generate_instance(kind, 4, **({"d": 6} if kind == "exp2" else
                                                 {"n": 3, "d": 6, "l_max": 6.0}))
            # generated families take both shortcuts
            assert inst.f.grad is np.zeros_like and inst.g == zero_prox()
        rng = generator(5)
        for gamma in (0.01, 0.5, 2.0):
            x, u_bar = rng.standard_normal((2, inst.d))
            full = inst.g.prox(gamma, x - gamma * (inst.f.grad(x) + u_bar))
            assert np.array_equal(_forward(inst, gamma, x, u_bar), full)

    def test_linear_f_still_moves_the_point(self):
        inst = self.linear_instance()
        origin = np.zeros(inst.d)
        moved = _forward(inst, 0.5, origin, origin)
        assert np.array_equal(moved, -0.5 * inst.f.grad(origin) / 1.5)
        assert np.all(moved < 0)


# ---------------------------------------------------------------------------
# Reference reductions


class TestReductions:
    def test_point_saga_step_fixes_the_solution(self):
        inst = generate_instance("exp3", 6, n=4, d=4, mu=0.5, l_max=6.0)
        x_next, u_next = point_saga_step(
            inst.x_star, inst.u_star.copy(), 2, 0.3, inst.h
        )
        assert np.abs(x_next - inst.x_star).max() <= 1e-12
        assert np.abs(u_next - inst.u_star).max() <= 1e-12

    def test_single_index_step_equivalence(self):
        inst = generate_instance("exp3", 7, n=5, d=4, mu=0.5, l_max=6.0)
        law = SingletonWeighted([0.2] * 5)
        params = derive_params(inst, law, Constant(0.3))
        assert np.allclose(params.eta, 1.0, atol=1e-14)
        state = random_state(generator(9), inst)
        rng_a, rng_b = generator(42), generator(42)
        j = law.sample(rng_b)[0]
        x_ref, u_ref = point_saga_step(state.x.copy(), state.u.copy(), j, 0.3, inst.h)
        step(state, inst, params, law, rng_a)
        assert np.abs(state.x - x_ref).max() <= 1e-12
        assert np.abs(state.u - u_ref).max() <= 1e-12

    def test_single_index_long_horizon_equivalence(self):
        inst = generate_instance("exp3", 7, n=5, d=4, mu=0.5, l_max=6.0)
        law = SingletonWeighted([0.2] * 5)
        params = derive_params(inst, law, Constant(0.3))
        state = random_state(generator(10), inst)
        x, u = state.x.copy(), state.u.copy()
        rng_a, rng_b = generator(77), generator(77)
        for _ in range(1000):
            j = law.sample(rng_b)[0]
            x, u = point_saga_step(x, u, j, 0.3, inst.h)
            step(state, inst, params, law, rng_a)
        assert np.abs(state.x - x).max() <= 1e-10
        assert np.abs(state.u - u).max() <= 1e-10

    def test_full_batch_matches_three_operator_reference(self):
        inst = quad_instance(17, n=3, d=4, f_range=(0.5, 1.5), mu_g=0.7)
        law = FullBatch(3)
        gamma = 0.4
        params = derive_params(inst, law, Constant(gamma))
        assert np.allclose(params.eta, 1.0, atol=1e-14)
        state = random_state(generator(11), inst)
        x, u = state.x.copy(), state.u.copy()
        rng = generator(0)
        for _ in range(50):
            xhat = inst.g.prox(gamma, x - gamma * (inst.f.grad(x) + u.mean(axis=0)))
            y = np.stack([inst.h[i].prox(gamma, xhat + gamma * u[i]) for i in range(3)])
            u = u + (xhat - y) / gamma
            x = y.mean(axis=0)
            step(state, inst, params, law, rng)
            assert np.abs(state.x - x).max() <= 1e-12
            assert np.abs(state.u - u).max() <= 1e-12

    def test_skip_style_reference_and_rate(self):
        inst, law, params = proxskip_fixture()
        gamma, eta1 = 0.5, float(params.eta[0])
        state = random_state(generator(12), inst)
        x, u1 = state.x.copy(), state.u[0].copy()
        rng_a, rng_b = generator(99), generator(99)
        for _ in range(500):
            xhat = x - gamma * (inst.f.grad(x) + u1)
            if not law.sample(rng_b):
                rng_b.random()
                x = xhat
            else:
                ge = gamma * eta1
                y = inst.h[0].prox(ge, xhat + ge * u1)
                u1 = u1 + (xhat - y) / ge
                x = y
            step(state, inst, params, law, rng_a)
        assert np.abs(state.x - x).max() <= 1e-10
        assert np.abs(state.u[0] - u1).max() <= 1e-10
        spec = make_lyapunov_spec(LINEAR_SINGLE, inst, law, params)
        assert spec.rho == rho_n1_simple_g(rate_inputs_from(inst, law, params))
        assert 0.0 < spec.rho < 1.0


# ---------------------------------------------------------------------------
# Lyapunov evaluation


class TestLyapunov:
    def test_zero_at_the_solution(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        assert lyapunov(state_at_solution(inst), inst, params, spec) == 0.0

        single = strong_single_instance()
        law1 = single_empty_law(0.5)
        params1 = derive_params(single, law1, Constant(0.25))
        spec1 = make_lyapunov_spec(LINEAR_SINGLE, single, law1, params1)
        assert lyapunov(state_at_solution(single), single, params1, spec1) == 0.0

        sim = dataclasses.replace(
            generate_instance("exp3", 8, n=3, d=4, mu=1.0, l_max=4.0), delta=4.0
        )
        law_s = UniformMinibatch(3, 1)
        params_s = derive_params(sim, law_s, Constant(0.05), track_z=True)
        spec_s = make_lyapunov_spec(SIMILARITY, sim, law_s, params_s)
        assert lyapunov(state_at_solution(sim, track_z=True), sim, params_s, spec_s) == 0.0

    def test_matches_naive_recomputation(self):
        inst = generate_instance("exp3", 9, n=3, d=4, mu=0.5, l_max=6.0)
        law = ExplicitSupport(3, [((), 0.3), ((0, 1), 0.3), ((1, 2), 0.2), ((0,), 0.2)])
        gamma = 0.1
        canonical = derive_params(inst, law, Constant(gamma))
        params = derive_params(inst, law, Constant(gamma), p_hat=0.4 * canonical.p_hat)
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        p = law.inclusion_probs()
        p_empty = law.empty_prob()
        growth = 1.0 - p_empty + params.p_bar
        rng = generator(14)
        for _ in range(10):
            state = random_state(rng, inst, spread=2.0)
            dx = state.x - inst.x_star
            expected = (1.0 + gamma * params.mu_hat_h) * float(dx @ dx)
            for i in range(inst.n):
                du = state.u[i] - inst.u_star[i]
                weight = (gamma**2 * params.eta[i]
                          + 2.0 * gamma / (inst.L_h[i] + float(inst.mu_h[i])))
                expected += (growth / inst.n) * weight / p[i] * float(du @ du)
            got = lyapunov(state, inst, params, spec)
            assert abs(got - expected) <= 1e-12 * max(1.0, expected)

    def test_no_curvature_adaptive_unit_value(self):
        inst = quad_instance(21, n=2, d=3, lam_range=(0.0, 3.0), zero_eigs=1,
                             f_range=(1.0, 1.3))
        law = UniformMinibatch(2, 1)
        params = derive_params(inst, law, Adaptive(inst.f.mu, 5.5))
        spec = make_lyapunov_spec(ACCEL_NO_CURVATURE, inst, law, params)
        state = state_at_solution(inst)
        state.t = 7
        state.x = inst.x_star + np.eye(inst.d)[0]
        assert lyapunov(state, inst, params, spec) == 1.0

    def test_nonempty_adaptive_offset_value(self):
        inst = generate_instance("exp3", 2, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Adaptive(0.5, 6.0))
        spec = make_lyapunov_spec(ACCEL_NONEMPTY, inst, law, params)
        state = state_at_solution(inst)
        state.t = 3
        state.x = inst.x_star + np.eye(inst.d)[0]
        expected = 1.0 + gamma_at(params.schedule, 2) * params.mu_hat_h
        assert abs(lyapunov(state, inst, params, spec) - expected) <= 1e-15

    def test_single_component_dual_weight(self):
        single = strong_single_instance(mu_h=2.0, mu_g=1.0, d=3)
        law = single_empty_law(0.5)
        gamma = 0.25
        params = derive_params(single, law, Constant(gamma))
        assert abs(params.eta[0] - 2.0) <= 1e-12
        assert abs(params.mu_hat_h - 8.0) <= 1e-12
        assert abs(params.p_hat - 1.0 / 3.0) <= 1e-12
        spec = make_lyapunov_spec(LINEAR_SINGLE, single, law, params)
        # distance term 0.5*(2/3) + 1/(1.25*3) = 0.6; dual term, infinite
        # smoothness branch, 1 - 0.25/1.25 = 0.8
        assert abs(spec.rho - 0.8) <= 1e-12
        state = state_at_solution(single)
        state.u = single.u_star + 1.0
        state.u_bar = state.u.mean(axis=0)
        # infinite smoothness drops the 2 gamma eta / (L + mu) part
        expected = gamma**2 * 2.0**2 * single.d
        assert abs(lyapunov(state, single, params, spec) - expected) <= 1e-12

    def test_similarity_needs_anchors_in_the_state(self):
        sim = dataclasses.replace(
            generate_instance("exp3", 8, n=3, d=4, mu=1.0, l_max=4.0), delta=4.0
        )
        law = UniformMinibatch(3, 1)
        params = derive_params(sim, law, Constant(0.05), track_z=True)
        spec = make_lyapunov_spec(SIMILARITY, sim, law, params)
        with pytest.raises(HypothesisViolation):
            lyapunov(random_state(generator(1), sim), sim, params, spec)


class TestLyapunovSpecGates:
    def setup_method(self):
        self.inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        self.law = UniformMinibatch(3, 1)
        self.constant = derive_params(self.inst, self.law, Constant(0.1))
        self.adaptive = derive_params(self.inst, self.law, Adaptive(0.5, 6.0))

    def test_unknown_variant(self):
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec("nope", self.inst, self.law, self.constant)

    def test_schedule_type_must_match_variant(self):
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(ACCEL_NONEMPTY, self.inst, self.law, self.constant)
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(LINEAR_SMOOTH, self.inst, self.law, self.adaptive)

    def test_nonempty_variant_rejects_empty_rounds(self):
        law = IndependentParticipation([0.5, 0.6, 0.7])
        inst = quad_instance(3, n=3, d=3, lam_range=(0.0, 3.0), zero_eigs=1,
                             f_range=(1.0, 1.2))
        params = derive_params(inst, law, Adaptive(inst.f.mu, 6.0))
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(ACCEL_NONEMPTY, inst, law, params)

    def test_no_curvature_variant_rejects_strong_components(self):
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(ACCEL_NO_CURVATURE, self.inst, self.law, self.adaptive)

    def test_single_variant_needs_one_component(self):
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(LINEAR_SINGLE, self.inst, self.law, self.constant)

    def test_similarity_needs_delta_and_tracking(self):
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(SIMILARITY, self.inst, self.law, self.constant)
        sim = dataclasses.replace(self.inst, delta=6.0)
        untracked = derive_params(sim, self.law, Constant(0.1))
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(SIMILARITY, sim, self.law, untracked)

    def test_smooth_variant_needs_finite_components(self):
        single = strong_single_instance()
        law = single_empty_law(0.5)
        params = derive_params(single, law, Constant(0.25))
        with pytest.raises(HypothesisViolation):
            make_lyapunov_spec(LINEAR_SMOOTH, single, law, params)

    def test_rate_inputs_reject_adaptive_schedules(self):
        with pytest.raises(HypothesisViolation):
            rate_inputs_from(self.inst, self.law, self.adaptive)


# ---------------------------------------------------------------------------
# The dual-distance cache


def fresh(state):
    """The same iterates in a new state, whose first evaluation builds from scratch."""
    return SolverState(t=state.t, x=state.x.copy(), u=state.u.copy(),
                       u_bar=state.u_bar.copy(),
                       z=None if state.z is None else state.z.copy())


def scratch_dual_error(state, inst):
    return float(np.sqrt(((state.u - inst.u_star) ** 2).sum(axis=1).max()))


@functools.cache
def cache_case(name):
    """(instance, law, params, spec) of one family, law and Lyapunov variant.

    With n >= 8, one moved row is refreshed by row and many rebuild all.
    """
    if name == "exp1-singleton-weighted":
        inst = generate_instance("exp1", 3, n=24, d=5, alpha=0.5, l_max=40.0)
        _, weights, gamma = importance_plan(inst.L_h, mu_f=inst.f.mu, mu_g=inst.g.mu,
                                            L_f=inst.f.L)
        law, schedule, variant = SingletonWeighted(weights), Constant(gamma), LINEAR_SMOOTH
    elif name == "exp2-uniform-1-adaptive":
        inst = generate_instance("exp2", 4, d=24, mu=0.1)
        law, schedule, variant = UniformMinibatch(24, 1), Adaptive(0.1, 5.5), ACCEL_NONEMPTY
    elif name == "exp3-uniform-2":
        inst = generate_instance("exp3", 5, n=24, d=5, mu=0.5, l_max=6.0)
        law, schedule, variant = UniformMinibatch(24, 2), Constant(0.05), LINEAR_SMOOTH
    elif name == "exp3-independent-with-empties":
        # n = 8 keeps its 2^8-subset support cheap to enumerate
        inst = generate_instance("exp3", 5, n=8, d=5, mu=0.5, l_max=6.0)
        law = IndependentParticipation(np.full(8, 0.2))
        schedule, variant = Constant(0.05), LINEAR_SMOOTH
    else:
        inst = strong_single_instance()
        law, schedule, variant = single_empty_law(0.5), Constant(0.25), LINEAR_SINGLE
    params = derive_params(inst, law, schedule)
    return inst, law, params, make_lyapunov_spec(variant, inst, law, params)


CACHE_CASES = ["exp1-singleton-weighted", "exp2-uniform-1-adaptive", "exp3-uniform-2",
               "exp3-independent-with-empties", "single-with-empties"]


class TestDualDistanceCache:
    """Evaluations through the per-row cache equal a from-scratch rebuild under ==."""

    @pytest.mark.parametrize("case", CACHE_CASES)
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           chunks=st.lists(st.tuples(st.integers(0, 8), st.booleans(), st.booleans()),
                           min_size=1, max_size=6))
    def test_equals_a_rebuild_after_any_steps(self, case, seed, chunks):
        inst, law, params, spec = cache_case(case)
        rng = generator(seed)
        state = initial_state(inst, x0=inst.x_star + rng.standard_normal(inst.d))
        for steps, rebind, dual_first in chunks:
            for _ in range(steps):
                step(state, inst, params, law, rng)
            if rebind:
                state.u = state.u + rng.standard_normal(state.u.shape)
                state.u_bar = state.u.mean(axis=0)
            if dual_first:
                assert dual_error(state, inst) == scratch_dual_error(state, inst)
            assert (lyapunov(state, inst, params, spec)
                    == lyapunov(fresh(state), inst, params, spec))
            assert dual_error(state, inst) == scratch_dual_error(state, inst)

    def test_one_state_against_two_instances(self):
        law = UniformMinibatch(24, 1)
        pairs = []
        for seed in (5, 6):
            inst = generate_instance("exp3", seed, n=24, d=5, mu=0.5, l_max=6.0)
            params = derive_params(inst, law, Constant(0.05))
            pairs.append((inst, params, make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)))
        (a, params_a, _), _ = pairs
        rng = generator(7)
        state = initial_state(a, x0=rng.standard_normal(a.d))
        for _ in range(30):
            step(state, a, params_a, law, rng)
            for inst, params, spec in pairs:
                assert (lyapunov(state, inst, params, spec)
                        == lyapunov(fresh(state), inst, params, spec))
                assert dual_error(state, inst) == scratch_dual_error(state, inst)

    @pytest.mark.parametrize("case", CACHE_CASES)
    def test_clones_carry_the_cache_into_the_expectation(self, case):
        inst, law, params, spec = cache_case(case)
        rng = generator(8)
        state = initial_state(inst, x0=inst.x_star + rng.standard_normal(inst.d))
        for steps in (0, 1, 3, 2):
            lyapunov(state, inst, params, spec)
            # rows moved after the evaluation are pending when the state is cloned
            for _ in range(steps):
                step(state, inst, params, law, rng)
            clone = clone_state(state)
            assert (lyapunov(clone, inst, params, spec)
                    == lyapunov(fresh(state), inst, params, spec))
            assert (conditional_expected_lyapunov(state, inst, params, law, spec)
                    == conditional_expected_lyapunov(fresh(state), inst, params, law, spec))
            # the branches left the state's own cache alone
            assert (lyapunov(state, inst, params, spec)
                    == lyapunov(fresh(state), inst, params, spec))

    def test_column_major_duals_sum_as_a_rebuild(self):
        # rows longer than numpy's 8-way unrolled block sum in another order
        # when u - u* comes out column-major, so it is never refreshed by row
        inst = generate_instance("exp3", 9, n=16, d=40, mu=0.5, l_max=6.0)
        inst = dataclasses.replace(inst, u_star=np.asfortranarray(inst.u_star))
        law = UniformMinibatch(16, 1)
        params = derive_params(inst, law, Constant(0.05))
        rng = generator(9)
        state = initial_state(inst, x0=rng.standard_normal(inst.d))
        state.u = np.asfortranarray(state.u + rng.standard_normal(state.u.shape))
        for _ in range(20):
            step(state, inst, params, law, rng)
            du = state.u - inst.u_star
            assert np.array_equal(_dual_sq(state, inst), np.square(du, out=du).sum(axis=1))
            assert dual_error(state, inst) == scratch_dual_error(state, inst)


# ---------------------------------------------------------------------------
# Conditional contraction


def check_contraction(inst, law, params, spec, seed, n_states, consistent=False,
                      spread=2.0):
    assert spec.rho is not None and 0.0 < spec.rho < 1.0
    rng = generator(seed)
    for _ in range(n_states):
        state = random_state(rng, inst, spread=spread, consistent=consistent)
        psi = lyapunov(state, inst, params, spec)
        cond = conditional_expected_lyapunov(state, inst, params, law, spec)
        assert cond <= spec.rho * psi * (1.0 + 1e-9)


class TestConditionalContraction:
    def test_uniform_minibatch(self):
        inst = generate_instance("exp3", 23, n=3, d=5, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.05))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        check_contraction(inst, law, params, spec, seed=1, n_states=50)

    def test_independent_participation_with_empty_rounds(self):
        inst = generate_instance("exp3", 24, n=4, d=4, mu=0.5, l_max=6.0)
        law = IndependentParticipation([0.9, 0.6, 0.7, 0.8])
        params = derive_params(inst, law, Constant(0.08))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        check_contraction(inst, law, params, spec, seed=2, n_states=50)

    def test_explicit_acceptance_below_canonical(self):
        inst = generate_instance("exp3", 25, n=2, d=3, mu=0.5, l_max=6.0)
        law = ExplicitSupport(2, [((), 0.3), ((0,), 0.3), ((1,), 0.2), ((0, 1), 0.2)])
        canonical = derive_params(inst, law, Constant(0.1))
        params = derive_params(inst, law, Constant(0.1), p_hat=0.5 * canonical.p_hat)
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        check_contraction(inst, law, params, spec, seed=3, n_states=40)

    def test_smooth_components_without_strong_convexity(self):
        inst = generate_instance("exp1", 26, n=4, d=6, l_max=8.0)
        law = SingletonWeighted([0.1, 0.2, 0.3, 0.4])
        params = derive_params(inst, law, Constant(0.05))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        check_contraction(inst, law, params, spec, seed=4, n_states=40)

    def test_single_component_finite_smoothness(self):
        inst = quad_instance(27, n=1, d=4, lam_range=(1.0, 5.0), mu_g=1.0)
        law = single_empty_law(0.4)
        params = derive_params(inst, law, Constant(0.3))
        assert 0.0 < params.p_hat < 1.0
        spec = make_lyapunov_spec(LINEAR_SINGLE, inst, law, params)
        check_contraction(inst, law, params, spec, seed=5, n_states=40)

    def test_single_component_infinite_smoothness(self):
        inst = strong_single_instance(mu_h=2.0, mu_g=1.0, d=3)
        law = single_empty_law(0.5)
        params = derive_params(inst, law, Constant(0.25))
        spec = make_lyapunov_spec(LINEAR_SINGLE, inst, law, params)
        check_contraction(inst, law, params, spec, seed=6, n_states=40)

    def test_skip_style_regime(self):
        inst, law, params = proxskip_fixture()
        spec = make_lyapunov_spec(LINEAR_SINGLE, inst, law, params)
        check_contraction(inst, law, params, spec, seed=7, n_states=40)

    def test_similarity_regime(self):
        # delta = L_h is always a valid dissimilarity bound for L_h-smooth
        # components, so the certified contraction must hold with it
        inst = dataclasses.replace(
            generate_instance("exp3", 28, n=3, d=4, mu=1.0, l_max=4.0), delta=4.0
        )
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.05), track_z=True)
        spec = make_lyapunov_spec(SIMILARITY, inst, law, params)
        check_contraction(inst, law, params, spec, seed=8, n_states=30, consistent=True)

    @pytest.mark.parametrize("t", [0, 4, 37])
    def test_nonempty_adaptive_one_step_ratio(self, t):
        inst = generate_instance("exp3", 29, n=3, d=4, mu=1.0, l_max=4.0)
        law = UniformMinibatch(3, 1)
        sched = Adaptive(1.0, 6.0)
        params = derive_params(inst, law, sched)
        spec = make_lyapunov_spec(ACCEL_NONEMPTY, inst, law, params)
        ratio = (gamma_at(sched, t) / gamma_at(sched, t - 1)) ** 2
        rng = generator(30 + t)
        for _ in range(12):
            state = random_state(rng, inst, spread=2.0, t=t)
            psi = lyapunov(state, inst, params, spec)
            cond = conditional_expected_lyapunov(state, inst, params, law, spec)
            assert cond <= ratio * psi * (1.0 + 1e-9)

    @pytest.mark.parametrize("t", [0, 9])
    def test_no_curvature_adaptive_one_step_ratio(self, t):
        inst = quad_instance(31, n=3, d=3, lam_range=(0.0, 3.0), zero_eigs=1,
                             f_range=(1.0, 1.3))
        law = IndependentParticipation([0.6, 0.7, 0.8])
        sched = Adaptive(inst.f.mu, 5.5)
        params = derive_params(inst, law, sched)
        spec = make_lyapunov_spec(ACCEL_NO_CURVATURE, inst, law, params)
        ratio = (gamma_at(sched, t) / gamma_at(sched, t - 1)) ** 2
        rng = generator(40 + t)
        for _ in range(12):
            state = random_state(rng, inst, spread=2.0, t=t)
            psi = lyapunov(state, inst, params, spec)
            cond = conditional_expected_lyapunov(state, inst, params, law, spec)
            assert cond <= ratio * psi * (1.0 + 1e-9)

    def test_zero_at_the_solution(self):
        inst = generate_instance("exp3", 23, n=3, d=5, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.05))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        cond = conditional_expected_lyapunov(
            state_at_solution(inst), inst, params, law, spec
        )
        assert cond <= 1e-20

    def test_full_batch_equals_deterministic_next_value(self):
        inst = generate_instance("exp3", 32, n=3, d=4, mu=0.5, l_max=6.0)
        law = FullBatch(3)
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        state = random_state(generator(15), inst)
        cond = conditional_expected_lyapunov(state, inst, params, law, spec)
        nxt = step(clone_state(state), inst, params, law, generator(0))
        direct = lyapunov(nxt, inst, params, spec)
        assert abs(cond - direct) <= 1e-12 * max(1.0, direct)


# ---------------------------------------------------------------------------
# run(): sink cadence, determinism, decay


class TestRun:
    def collect(self, **kwargs):
        rows = []
        final = run(
            sink=lambda t, sqd, psi, du: rows.append((t, sqd, psi, du)), **kwargs
        )
        return rows, final

    def test_zero_iterations_reports_once(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1))
        rows, final = self.collect(
            instance=inst, params=params, dist=law, rng=generator(0), T=0
        )
        assert [r[0] for r in rows] == [0]
        assert rows[0][2] is None
        assert final.t == 0

    def test_integer_cadence_includes_the_last_iteration(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1))
        rows, _ = self.collect(
            instance=inst, params=params, dist=law, rng=generator(0), T=12, cadence=5
        )
        assert [r[0] for r in rows] == [0, 5, 10, 12]

    def test_a_resumed_run_reports_its_start_and_its_last_step(self):
        # the last row is at t0 + T; at t = T it was missed and never emitted
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1))
        state = run(inst, params, law, generator(0), 3)
        rows, final = self.collect(
            instance=inst, params=params, dist=law, rng=generator(1), T=5,
            state=state, cadence=100,
        )
        assert [r[0] for r in rows] == [3, 8]
        assert final.t == 8
        assert rows[-1][1] == sq_dist(final, inst)

    def test_predicate_cadence(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1))
        rows, _ = self.collect(
            instance=inst, params=params, dist=law, rng=generator(0), T=9,
            cadence=lambda t: t <= 2 or t % 4 == 0,
        )
        assert [r[0] for r in rows] == [0, 1, 2, 4, 8, 9]

    def test_negative_horizon_rejected(self):
        inst = generate_instance("exp3", 6, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1))
        with pytest.raises(ConfigurationError):
            run(inst, params, law, generator(0), -1)

    def test_same_seed_gives_identical_traces(self):
        inst = generate_instance("exp3", 12, n=4, d=5, mu=0.5, l_max=6.0)
        law = IndependentParticipation([0.5, 0.6, 0.7, 0.8])
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        rows_a, final_a = self.collect(
            instance=inst, params=params, dist=law, rng=generator(7), T=60,
            lyapunov_spec=spec,
        )
        rows_b, final_b = self.collect(
            instance=inst, params=params, dist=law, rng=generator(7), T=60,
            lyapunov_spec=spec,
        )
        assert rows_a == rows_b
        assert np.array_equal(final_a.x, final_b.x)
        assert np.array_equal(final_a.u, final_b.u)

    def test_reported_lyapunov_matches_recomputation(self):
        inst = generate_instance("exp3", 12, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 2)
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        rows, final = self.collect(
            instance=inst, params=params, dist=law, rng=generator(3), T=20,
            lyapunov_spec=spec,
        )
        assert rows[-1][0] == 20
        assert rows[-1][2] == lyapunov(final, inst, params, spec)

    def test_run_builds_tracked_state_on_demand(self):
        inst = generate_instance("exp3", 12, n=3, d=4, mu=0.5, l_max=6.0)
        law = UniformMinibatch(3, 1)
        params = derive_params(inst, law, Constant(0.1), track_z=True)
        final = run(inst, params, law, generator(2), 5)
        assert final.z is not None

    def test_mean_lyapunov_decays_at_the_certified_rate(self):
        inst = generate_instance("exp3", 31, n=4, d=6, mu=0.5, l_max=6.0)
        law = UniformMinibatch(4, 2)
        params = derive_params(inst, law, Constant(0.1))
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, law, params)
        T, seeds, every = 250, 100, 5
        totals = {}
        for s in range(seeds):
            run(inst, params, law, generator(5000 + s), T,
                sink=lambda t, sqd, psi, du: totals.__setitem__(
                    t, totals.get(t, 0.0) + psi
                ),
                lyapunov_spec=spec, cadence=every)
        ts = np.array(sorted(totals), dtype=np.float64)
        means = np.array([totals[t] / seeds for t in sorted(totals)])
        assert means.min() > 0.0
        slope = np.polyfit(ts, np.log(means), 1)[0]
        assert slope <= math.log(spec.rho) + 0.02


# ---------------------------------------------------------------------------
# Decreasing-stepsize envelope


class TestAdaptiveEnvelope:
    def test_envelope_without_component_curvature(self):
        inst = quad_instance(21, n=3, d=3, lam_range=(0.0, 3.0), zero_eigs=1,
                             f_range=(1.0, 1.3))
        law = IndependentParticipation([0.6, 0.7, 0.8])
        params = derive_params(inst, law, Adaptive(inst.f.mu, 5.5))
        spec = make_lyapunov_spec(ACCEL_NO_CURVATURE, inst, law, params)
        checkpoints = (10, 100, 1000)
        psi0 = lyapunov(initial_state(inst), inst, params, spec)
        assert psi0 > 0.0
        sums = dict.fromkeys(checkpoints, 0.0)
        seeds = 500
        for s in range(seeds):
            got = {}
            run(inst, params, law, generator(1000 + s), 1000,
                sink=lambda t, sqd, psi, du, got=got: got.__setitem__(t, psi),
                lyapunov_spec=spec, cadence=lambda t: t in checkpoints)
            for t in checkpoints:
                sums[t] += got[t]
        for t in checkpoints:
            assert sums[t] / seeds <= 1.05 * spec.envelope_ratio(t) * psi0


# ---------------------------------------------------------------------------
# Importance weights


class TestImportancePlan:
    def test_small_components_fall_back_to_uniform(self):
        b, weights, _ = importance_plan([1.0, 2.0, 3.0], mu_f=2.0, mu_g=0.0)
        assert np.array_equal(b, np.ones(3))
        assert np.allclose(weights, 1.0 / 3.0, atol=1e-15)

    def test_two_component_worked_example(self):
        b, weights, gamma = importance_plan([2.0, 8.0], mu_f=1.0, mu_g=0.0)
        assert np.allclose(b, [1.0, 2.0], atol=1e-15)
        assert np.allclose(weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
        # scale = max(sqrt(2/8), 1) = 1, split across b_sum = 3
        assert abs(gamma - 1.0 / 3.0) <= 1e-15

    def test_smooth_f_caps_the_stepsize(self):
        _, _, gamma = importance_plan([2.0, 8.0], mu_f=1.0, mu_g=0.0, L_f=10.0)
        assert abs(gamma - 0.1) <= 1e-15

    def test_rejections(self):
        with pytest.raises(HypothesisViolation):
            importance_plan([1.0, 2.0], mu_f=0.0, mu_g=0.0)
        with pytest.raises(HypothesisViolation):
            importance_plan([1.0, INFINITE], mu_f=1.0, mu_g=0.0)
        with pytest.raises(HypothesisViolation):
            importance_plan([1.0, -2.0], mu_f=1.0, mu_g=0.0)
