"""Contraction factors: pinned values, cross-formula checks, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprox.errors import ConfigurationError, HypothesisViolation
from multiprox.problems import INFINITE
from multiprox.rates import (
    RateInputs,
    VERY_LARGE_GAMMA,
    fed_plan,
    rate_report,
    rho_n1_simple_g,
    rho_similarity,
    rho_theorem1,
    similarity_terms,
    single_component_terms,
    theorem_terms,
    uniform_minibatch_plan,
)
from multiprox.rng import generator
from multiprox.sampling import UniformMinibatch, compressed_view


def canonical_inputs(rng, n=None, p_empty=None, force_finite=True):
    """Random admissible inputs with the canonical acceptance probability.

    p_bar equals p_empty by construction, which decouples eta from the
    acceptance coin and keeps every consistency check satisfiable.
    """
    n = n or int(rng.integers(1, 5))
    mu_h = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
    L_h = tuple(float(m + rng.uniform(0.5, 10.0)) for m in mu_h)
    if not force_finite:
        L_h = tuple(
            INFINITE if rng.random() < 0.3 else L for L in L_h
        )
    mu_f = float(rng.uniform(0.05, 2.0))
    L_f = mu_f + float(rng.uniform(0.0, 5.0))
    mu_g = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
    gamma = float(rng.uniform(0.05, 0.95)) * 2.0 / L_f
    if p_empty is None:
        p_empty = float(rng.uniform(0.0, 0.6)) if rng.random() < 0.5 else 0.0
    tilde = rng.dirichlet(np.ones(n))
    eta = (1.0 / (n * tilde * (1.0 - p_empty))) if p_empty else 1.0 / (n * tilde)
    from multiprox.problems import harmonic_curvature

    cap = min(float(eta[i]) * harmonic_curvature(float(mu_h[i]), L_h[i]) for i in range(n))
    mu_hat = float(rng.uniform(0.0, 1.0)) * cap
    p_hat = 1.0 / (1.0 + gamma * mu_hat)
    p = (np.full(n, 1.0 - p_empty) if n == 1
         else rng.uniform(0.2, 1.0, n))
    return RateInputs(
        gamma=gamma, p=p, eta=eta, L_h=L_h, mu_h=mu_h,
        L_f=L_f, mu_f=mu_f, mu_g=mu_g, mu_hat_h=mu_hat,
        p_empty=p_empty, p_hat=p_hat,
        p_bar=p_empty * p_hat * (1.0 + gamma * mu_hat),
    )


# ---------------------------------------------------------------------------
# Pinned values


def test_theorem_pinned_081():
    ri = RateInputs(
        gamma=0.1, p=[0.5, 0.5], eta=[1.0, 1.0], L_h=(10.0, 10.0),
        mu_h=[0.0, 0.0], L_f=1.0, mu_f=1.0,
    )
    first, second = theorem_terms(ri)
    assert first == pytest.approx(0.81, abs=1e-12)
    assert second == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)
    assert rho_theorem1(ri) == pytest.approx(0.81, abs=1e-12)


def test_theorem_first_term_vanishes_at_unit_condition():
    # gamma = 1/L_f with mu_f = L_f makes the distance edge exactly zero
    ri = RateInputs(
        gamma=1.0, p=[0.5], eta=[1.0], L_h=(4.0,), mu_h=[0.0],
        L_f=1.0, mu_f=1.0,
    )
    first, second = theorem_terms(ri)
    assert first == 0.0
    assert rho_theorem1(ri) == pytest.approx(second)
    assert second == pytest.approx(1.0 - 2.0 * 0.5 / (1.0 * 1.0 * 4.0 + 2.0))


def test_single_component_pinned_075():
    ri = RateInputs(
        gamma=0.25, p=[0.5], eta=[2.0], L_h=(INFINITE,), mu_h=[2.0],
        mu_hat_h=8.0, p_empty=0.5, p_hat=1.0 / 3.0, p_bar=0.5,
    )
    first, second = single_component_terms(ri)
    assert first == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert second == pytest.approx(0.75, abs=1e-12)
    assert rho_n1_simple_g(ri) == pytest.approx(0.75, abs=1e-12)


def test_single_component_dual_term_zero_without_skipping():
    # one component hit every iteration: the dual is exact after one step
    ri = RateInputs(
        gamma=1.0, p=[1.0], eta=[1.0], L_h=(INFINITE,), mu_h=[0.5],
        mu_hat_h=1.0, p_empty=0.0, p_hat=0.5, p_bar=0.0,
    )
    _, second = single_component_terms(ri)
    assert second == 0.0


def test_report_binding_labels():
    ri = RateInputs(
        gamma=0.1, p=[0.5, 0.5], eta=[1.0, 1.0], L_h=(10.0, 10.0),
        mu_h=[0.0, 0.0], L_f=1.0, mu_f=1.0,
    )
    report = rate_report(ri)
    assert report["kind"] == "theorem"
    assert report["binding"] == "distance"
    assert report["rho"] == pytest.approx(0.81, abs=1e-12)
    assert set(report["terms"]) == {"distance", "dual"}


# ---------------------------------------------------------------------------
# Corollary consistency


def test_skipping_corollary_display_matches_single_component_formula():
    """mu_h = 0, acceptance certain: compare with the displayed closed form."""
    rng = generator(41)
    for _ in range(50):
        p_empty = float(rng.uniform(0.0, 0.8))
        mu_f = float(rng.uniform(0.1, 2.0))
        L_f = mu_f + float(rng.uniform(0.0, 4.0))
        mu_g = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        gamma = float(rng.uniform(0.05, 0.95)) * 2.0 / L_f
        finite = rng.random() < 0.5
        L = float(rng.uniform(0.5, 20.0)) if finite else INFINITE
        ri = RateInputs(
            gamma=gamma, p=[1.0 - p_empty], eta=[1.0 / (1.0 - p_empty)],
            L_h=(L,), mu_h=[0.0], L_f=L_f, mu_f=mu_f, mu_g=mu_g,
            mu_hat_h=0.0, p_empty=p_empty, p_hat=1.0, p_bar=p_empty,
        )
        keep = 1.0 - p_empty
        shrink = 1.0 + gamma * mu_g
        edge = max(1.0 - gamma * mu_f, gamma * L_f - 1.0)
        if finite:
            displayed_dual = 1.0 - keep**2 * (2.0 * shrink + gamma * L) / (
                (gamma * L + 2.0 * keep) * shrink
            )
        else:
            displayed_dual = 1.0 - keep**2 / shrink
        displayed = max(edge**2 / shrink, displayed_dual)
        assert rho_n1_simple_g(ri) == pytest.approx(displayed, abs=1e-12)
        if finite:
            # the general bound covers the same inputs, only less tightly
            assert rho_theorem1(ri) >= rho_n1_simple_g(ri) - 1e-12


def test_single_component_no_tighter_than_theorem():
    rng = generator(42)
    done = 0
    while done < 100:
        ri = canonical_inputs(rng, n=1)
        first_s, second_s = single_component_terms(ri)
        first_t, second_t = theorem_terms(ri)
        assert first_s == pytest.approx(first_t, abs=1e-12)
        assert max(first_s, second_s) <= max(first_t, second_t) + 1e-12
        done += 1


# ---------------------------------------------------------------------------
# Hypothesis checking


def test_theorem_rejects_infinite_smoothness():
    ri = RateInputs(gamma=0.1, p=[0.5], eta=[1.0], L_h=(INFINITE,),
                    mu_h=[1.0], mu_f=1.0, L_f=1.0)
    with pytest.raises(HypothesisViolation):
        theorem_terms(ri)


def test_no_strong_source_rejected():
    ri = RateInputs(gamma=0.1, p=[0.5], eta=[1.0], L_h=(5.0,), mu_h=[0.0])
    with pytest.raises(HypothesisViolation, match="strong convexity"):
        rho_theorem1(ri)


def test_stepsize_beyond_smoothness_rejected():
    ri = RateInputs(gamma=2.1, p=[0.5], eta=[1.0], L_h=(5.0,), mu_h=[1.0],
                    L_f=1.0, mu_f=1.0, mu_hat_h=1.0, p_hat=1.0 / 1.21)
    with pytest.raises(HypothesisViolation, match="2/L_f"):
        rho_theorem1(ri)


def test_transfer_cap_enforced():
    # cap is eta * 2 mu L / (L + mu) = 1 * 2*1*3/4 = 1.5
    ri = RateInputs(gamma=0.1, p=[1.0], eta=[1.0], L_h=(3.0,), mu_h=[1.0],
                    mu_hat_h=2.0, p_hat=1.0 / 1.2, mu_f=1.0, L_f=1.0)
    with pytest.raises(HypothesisViolation, match="cap"):
        rho_theorem1(ri)


def test_acceptance_probability_bound_enforced():
    ri = RateInputs(gamma=1.0, p=[1.0], eta=[1.0], L_h=(3.0,), mu_h=[1.0],
                    mu_hat_h=1.5, p_hat=0.9, p_bar=0.0)
    with pytest.raises(HypothesisViolation, match="exceeds"):
        rho_theorem1(ri)


def test_inconsistent_p_bar_rejected():
    ri = RateInputs(gamma=0.5, p=[0.5], eta=[2.0], L_h=(3.0,), mu_h=[1.0],
                    mu_f=1.0, L_f=1.0, mu_hat_h=0.0, p_empty=0.5,
                    p_hat=0.5, p_bar=0.4)
    with pytest.raises(HypothesisViolation, match="p_bar"):
        rho_theorem1(ri)


def test_mismatched_component_lengths_rejected():
    with pytest.raises(HypothesisViolation):
        RateInputs(gamma=0.1, p=[0.5, 0.5], eta=[1.0], L_h=(2.0,), mu_h=[0.0])


def test_single_component_requires_pinned_relaxation_weight():
    ri = RateInputs(gamma=0.25, p=[0.5], eta=[1.7], L_h=(INFINITE,), mu_h=[2.0],
                    mu_hat_h=0.0, p_empty=0.5, p_hat=1.0, p_bar=0.5)
    with pytest.raises(HypothesisViolation, match="relaxation"):
        single_component_terms(ri)


# ---------------------------------------------------------------------------
# Properties over random admissible inputs


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_certified_factors_lie_in_unit_interval(seed):
    ri = canonical_inputs(generator(seed))
    try:
        rho = rho_theorem1(ri)
    except HypothesisViolation as exc:
        assert "no contraction" in str(exc)
        return
    assert 0.0 < rho < 1.0


def test_theorem_monotone_in_inclusion_probabilities():
    rng = generator(43)
    for _ in range(100):
        ri = canonical_inputs(rng)
        i = int(rng.integers(ri.size))
        p_up = ri.p.copy()
        p_up[i] = min(1.0, p_up[i] + float(rng.uniform(0.05, 0.5)))
        bumped = RateInputs(
            gamma=ri.gamma, p=p_up, eta=ri.eta, L_h=ri.L_h, mu_h=ri.mu_h,
            L_f=ri.L_f, mu_f=ri.mu_f, mu_g=ri.mu_g, mu_hat_h=ri.mu_hat_h,
            p_empty=ri.p_empty, p_hat=ri.p_hat, p_bar=ri.p_bar,
        )
        assert max(*theorem_terms(bumped)) <= max(*theorem_terms(ri)) + 1e-12


def test_theorem_monotone_in_mu_hat():
    from multiprox.problems import harmonic_curvature

    rng = generator(44)
    for _ in range(100):
        base = canonical_inputs(rng)
        cap = min(
            float(base.eta[i]) * harmonic_curvature(float(base.mu_h[i]), base.L_h[i])
            for i in range(base.size)
        )
        if cap <= 0:
            continue
        p_hat = 1.0 / (1.0 + base.gamma * cap)

        def with_mu_hat(mu_hat):
            return RateInputs(
                gamma=base.gamma, p=base.p, eta=base.eta, L_h=base.L_h,
                mu_h=base.mu_h, L_f=base.L_f, mu_f=base.mu_f, mu_g=base.mu_g,
                mu_hat_h=mu_hat, p_empty=base.p_empty, p_hat=p_hat,
                p_bar=base.p_empty * p_hat * (1.0 + base.gamma * mu_hat),
            )

        low, high = with_mu_hat(0.3 * cap), with_mu_hat(0.6 * cap)
        assert max(*theorem_terms(high)) <= max(*theorem_terms(low)) + 1e-12


def test_finite_branch_converges_to_infinite_branch():
    ri_inf = RateInputs(
        gamma=0.25, p=[0.5], eta=[2.0], L_h=(INFINITE,), mu_h=[2.0],
        mu_hat_h=8.0, p_empty=0.5, p_hat=1.0 / 3.0, p_bar=0.5,
    )
    ri_fin = RateInputs(
        gamma=0.25, p=[0.5], eta=[2.0], L_h=(1e12,), mu_h=[2.0],
        mu_hat_h=8.0, p_empty=0.5, p_hat=1.0 / 3.0, p_bar=0.5,
    )
    assert rho_n1_simple_g(ri_fin) == pytest.approx(rho_n1_simple_g(ri_inf), rel=1e-6)


# ---------------------------------------------------------------------------
# Similarity bound


def similarity_inputs(gamma, p_s, delta, mu_h, L, mu_f=0.0, L_f=0.0, n=4):
    return RateInputs(
        gamma=gamma, p=np.full(n, p_s), eta=np.ones(n), L_h=(L,) * n,
        mu_h=np.full(n, mu_h), L_f=L_f, mu_f=mu_f, delta=delta,
    )


def test_similarity_dual_term_pinned_at_zero_dissimilarity():
    ri = similarity_inputs(gamma=0.5, p_s=0.3, delta=0.0, mu_h=1.0, L=INFINITE)
    first, second = similarity_terms(ri)
    assert second == pytest.approx(1.0 - 0.3, abs=1e-12)
    # f vanishes, so the distance shrink comes only from the component curvature
    assert first == pytest.approx(2.0 / (2.0 + 0.5 * 2.0), abs=1e-12)


def test_similarity_requires_known_dissimilarity():
    ri = RateInputs(gamma=0.5, p=[0.3], eta=[1.0], L_h=(INFINITE,), mu_h=[1.0])
    with pytest.raises(HypothesisViolation, match="dissimilarity"):
        similarity_terms(ri)


def test_similarity_rejects_heterogeneous_components():
    ri = RateInputs(
        gamma=0.5, p=[0.3, 0.3], eta=[1.0, 1.0], L_h=(5.0, 6.0),
        mu_h=[1.0, 1.0], delta=1.0,
    )
    with pytest.raises(HypothesisViolation, match="identical"):
        similarity_terms(ri)


def test_similarity_rejects_dissimilarity_above_smoothness():
    ri = similarity_inputs(gamma=0.5, p_s=0.3, delta=7.0, mu_h=1.0, L=5.0)
    with pytest.raises(HypothesisViolation):
        similarity_terms(ri)


def test_similarity_factor_in_unit_interval_over_random_inputs():
    rng = generator(45)
    for _ in range(1000):
        mu_h = float(rng.uniform(0.05, 2.0))
        finite = rng.random() < 0.5
        L = mu_h + float(rng.uniform(0.1, 10.0)) if finite else INFINITE
        cap = L if finite else 3.0
        delta = float(rng.uniform(0.0, cap))
        mu_f = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0
        L_f = mu_f + float(rng.uniform(0.0, 3.0)) if mu_f else 0.0
        gamma = (float(rng.uniform(0.05, 0.95)) * 2.0 / L_f if L_f
                 else float(rng.uniform(0.05, 2.0)))
        p_s = float(rng.uniform(0.05, 0.95))
        ri = similarity_inputs(gamma=gamma, p_s=p_s, delta=delta, mu_h=mu_h,
                               L=L, mu_f=mu_f, L_f=L_f)
        rho = rho_similarity(ri)
        assert 0.0 < rho < 1.0


def test_similarity_finite_branch_converges_to_infinite_branch():
    fin = similarity_inputs(gamma=0.5, p_s=0.3, delta=2.0, mu_h=1.0, L=1e12)
    inf = similarity_inputs(gamma=0.5, p_s=0.3, delta=2.0, mu_h=1.0, L=INFINITE)
    assert rho_similarity(fin) == pytest.approx(rho_similarity(inf), rel=1e-6)


# ---------------------------------------------------------------------------
# Stepsize plans


def test_uniform_minibatch_plan_pinned():
    plan = uniform_minibatch_plan(n=4, s=2, L_f=0.0, max_L_h=8.0, mu_total=0.5)
    assert plan.gamma == pytest.approx(np.sqrt(2.0 / (4.0 * 8.0 * 0.5)))
    assert plan.complexity == pytest.approx(np.sqrt(4.0 * 8.0 / (2.0 * 0.5)) + 2.0)


def test_uniform_minibatch_plan_caps_at_smooth_stepsize():
    plan = uniform_minibatch_plan(n=4, s=4, L_f=10.0, max_L_h=0.01, mu_total=1.0)
    assert plan.gamma == pytest.approx(0.1)


def test_uniform_minibatch_plan_sentinel_when_unconstrained():
    plan = uniform_minibatch_plan(n=4, s=2, L_f=0.0, max_L_h=0.0, mu_total=1.0)
    assert plan.gamma is VERY_LARGE_GAMMA
    assert plan.complexity == pytest.approx(2.0)
    assert repr(VERY_LARGE_GAMMA) == "VERY_LARGE_GAMMA"


def test_fed_plan_full_coverage_matches_uniform_plan():
    L, mu = 7.0, 0.4
    fed = fed_plan(n=5, d=9, k=9, s=5, L_h=L, mu_h=mu)
    uni = uniform_minibatch_plan(n=5, s=5, L_f=0.0, max_L_h=L, mu_total=mu)
    assert fed.gamma == pytest.approx(uni.gamma, abs=1e-12)


def test_fed_plan_uses_the_compressed_view_empty_probability():
    n, d, k, s, L, mu = 4, 10, 2, 3, 5.0, 1.0
    plan = fed_plan(n=n, d=d, k=k, s=s, L_h=L, mu_h=mu)
    p_check = compressed_view(UniformMinibatch(n, s), k, d).empty_prob()
    assert p_check == (1.0 - 0.2) ** 3
    active = 1.0 - p_check
    assert plan.gamma == pytest.approx(np.sqrt(k * s * active / (d * n * L * mu)))
    assert plan.complexity == pytest.approx(
        1.0 / (plan.gamma * mu) + 1.0 / active + d * n / (k * s)
        + d * n * plan.gamma * L / (k * s * active)
    )


def test_plan_hypothesis_failures():
    with pytest.raises(HypothesisViolation):
        uniform_minibatch_plan(n=4, s=2, L_f=0.0, max_L_h=8.0, mu_total=0.0)
    with pytest.raises(HypothesisViolation):
        uniform_minibatch_plan(n=4, s=2, L_f=0.0, max_L_h=INFINITE, mu_total=1.0)
    with pytest.raises(HypothesisViolation):
        fed_plan(n=4, d=10, k=0, s=3, L_h=5.0, mu_h=1.0)
    with pytest.raises(HypothesisViolation):
        fed_plan(n=4, d=10, k=2, s=3, L_h=5.0, mu_h=0.0)


@pytest.mark.parametrize("L, mu, gamma", [
    (1e308, 1.0, None),   # d n L mu overflows: the planned stepsize is 0
    (2e-300, 1e-300, None),  # d n L mu underflows to 0
    (1e-10, 1e-300, 1e-30),  # a given stepsize whose gamma mu underflows
    (1e300, 1.0, 1e10),   # a given stepsize whose gamma L term overflows
])
def test_fed_plan_refuses_terms_that_under_or_overflow(L, mu, gamma):
    with pytest.raises(ConfigurationError, match="under- or overflow"):
        fed_plan(n=3, d=3, k=1, s=3, L_h=L, mu_h=mu, gamma=gamma)
