"""Subset laws: exact enumeration, closed forms, exchangeable shortcuts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprox.errors import ConfigurationError, UnsupportedExact
from multiprox.rng import generator
from multiprox.sampling import (
    ExplicitSupport,
    FullBatch,
    IndependentParticipation,
    SamplingDistribution,
    SingletonWeighted,
    ThinnedView,
    UniformMinibatch,
    _tilde_from_support,
    compressed_view,
)

SMALL_LAWS = [
    UniformMinibatch(6, 2),
    UniformMinibatch(5, 5),
    FullBatch(4),
    SingletonWeighted([0.1, 0.2, 0.3, 0.4]),
    IndependentParticipation([0.3, 0.9, 0.5]),
    ExplicitSupport(3, [((0,), 0.2), ((1, 2), 0.5), ((), 0.3)]),
    ThinnedView(UniformMinibatch(4, 3), 0.5),
]


def support_tilde(dist: SamplingDistribution) -> np.ndarray:
    """Independent recomputation of the conditional mean weights."""
    support = dist.enumerate_support()
    p_empty = sum(p for m, p in support if not m)
    tilde = np.zeros(dist.n)
    for members, prob in support:
        for i in members:
            tilde[i] += prob / len(members)
    return tilde / (1.0 - p_empty)


# ---------------------------------------------------------------------------
# Enumeration against closed forms


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_enumeration_probabilities_sum_to_one(dist):
    support = dist.enumerate_support()
    assert abs(sum(p for _, p in support) - 1.0) <= 1e-12
    assert all(p >= 0 for _, p in support)
    members = [m for m, _ in support]
    assert members == sorted(members)
    assert len(set(members)) == len(members)


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_tilde_probs_match_support_recomputation(dist):
    np.testing.assert_allclose(dist.tilde_probs(), support_tilde(dist), atol=1e-12)


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_tilde_probs_sum_to_one(dist):
    assert dist.tilde_probs().sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_empty_prob_matches_enumeration(dist):
    enumerated = sum(p for m, p in dist.enumerate_support() if not m)
    assert dist.empty_prob() == pytest.approx(enumerated, abs=1e-12)


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_inclusion_probs_match_enumeration(dist):
    p = np.zeros(dist.n)
    for members, prob in dist.enumerate_support():
        for i in members:
            p[i] += prob
    np.testing.assert_allclose(dist.inclusion_probs(), p, atol=1e-12)


def test_uniform_minibatch_closed_forms():
    dist = UniformMinibatch(6, 2)
    np.testing.assert_allclose(dist.inclusion_probs(), np.full(6, 2 / 6))
    np.testing.assert_allclose(dist.tilde_probs(), np.full(6, 1 / 6), atol=1e-15)
    assert dist.empty_prob() == 0.0
    assert len(dist.enumerate_support()) == 15


def test_singleton_tilde_equals_weights():
    q = [0.1, 0.2, 0.3, 0.4]
    np.testing.assert_allclose(SingletonWeighted(q).tilde_probs(), q, atol=1e-15)


def test_independent_participation_half_half():
    dist = IndependentParticipation([0.5, 0.5])
    support = dist.enumerate_support()
    assert [m for m, _ in support] == [(), (0,), (0, 1), (1,)]
    for _, prob in support:
        assert prob == pytest.approx(0.25, abs=1e-15)
    assert dist.empty_prob() == pytest.approx(0.25)
    np.testing.assert_allclose(dist.tilde_probs(), [0.5, 0.5], atol=1e-12)


def test_independent_participation_sure_member():
    dist = IndependentParticipation([1.0, 0.5])
    support = dist.enumerate_support()
    assert [m for m, _ in support] == [(0,), (0, 1)]
    assert dist.empty_prob() == 0.0


# ---------------------------------------------------------------------------
# The weighting identity behind the conditional mean


@pytest.mark.parametrize("dist", SMALL_LAWS, ids=lambda d: d.law + str(d.n))
def test_conditional_mean_identity(dist):
    """E[mean over the drawn subset] = (1 - p_empty) sum_i tilde_p_i v_i."""
    rng = generator(99)
    tilde = dist.tilde_probs()
    p_empty = dist.empty_prob()
    for _ in range(50):
        v = rng.standard_normal(dist.n)
        expected = sum(
            prob * np.mean([v[i] for i in members])
            for members, prob in dist.enumerate_support()
            if members
        )
        assert expected == pytest.approx((1 - p_empty) * float(tilde @ v), abs=1e-12)


# ---------------------------------------------------------------------------
# Sampling behavior


def test_uniform_minibatch_draws_sorted_distinct():
    dist = UniformMinibatch(7, 3)
    rng = generator(1)
    for _ in range(200):
        s = dist.sample(rng)
        assert len(s) == 3
        assert list(s) == sorted(set(s))


def test_full_batch_is_deterministic_and_consumes_no_randomness():
    dist = FullBatch(5)
    rng1, rng2 = generator(3), generator(3)
    assert dist.sample(rng1) == tuple(range(5))
    # the stream is untouched, so both generators stay aligned
    np.testing.assert_array_equal(rng1.random(4), rng2.random(4))


def test_sampling_is_seed_deterministic():
    for dist in SMALL_LAWS:
        draws_a = [dist.sample(generator(17)) for _ in range(1)]
        a = [dist.sample(generator(17)) for _ in range(10)]
        b = [dist.sample(generator(17)) for _ in range(10)]
        assert a == b
        assert draws_a[0] == a[0]


def test_singleton_frequencies_track_weights():
    q = np.array([0.15, 0.25, 0.6])
    dist = SingletonWeighted(q)
    rng = generator(5)
    counts = np.zeros(3)
    draws = 20000
    for _ in range(draws):
        counts[dist.sample(rng)[0]] += 1
    np.testing.assert_allclose(counts / draws, q, atol=0.02)


@pytest.mark.parametrize("seed", range(30))
def test_singleton_draws_replay_rng_choice(seed):
    """Draw for draw, and stream position after, the same as rng.choice(n, p=q)."""
    law_rng = generator(1000 + seed)
    n = int(law_rng.integers(1, 60))
    q = law_rng.random(n) ** 3 + 1e-9
    dist = SingletonWeighted(q / q.sum())
    ours, theirs = generator(seed), generator(seed)
    for _ in range(2000):
        assert dist.sample(ours) == (int(theirs.choice(n, p=dist.q)),)
    assert ours.random() == theirs.random()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), picks=st.lists(st.integers(0, 63), min_size=1, max_size=12),
       weights=st.lists(st.sampled_from([0.0, 1e-6, 0.3, 1.0, 7.5]), min_size=14, max_size=14),
       seed=st.integers(0, 2**32 - 1))
# fourteen subsets, most of them with probability zero
@example(n=4, picks=list(range(1, 13)), weights=[0.0] * 14, seed=0)
def test_explicit_draws_replay_rng_choice(n, picks, weights, seed):
    """Draw for draw, and stream position after, the same as
    rng.choice(len(support), p=probs) over the law's sorted support."""
    # bit masks of the index set: 0 is the empty set, and the full set keeps
    # the law proper
    subsets = {tuple(i for i in range(n) if bits >> i & 1) for bits in (2**n - 1, 0, *picks)}
    raw = [(members, weights[j] + (len(members) == n)) for j, members in enumerate(subsets)]
    total = sum(w for _, w in raw)
    dist = ExplicitSupport(n, [(members, w / total) for members, w in raw])
    probs = np.array([prob for _, prob in dist.support])
    ours, theirs = generator(seed), generator(seed)
    for _ in range(300):
        assert dist.sample(ours) == dist.support[int(theirs.choice(len(probs), p=probs))][0]
    assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)


def test_thinned_view_flattens_nesting():
    inner = ThinnedView(UniformMinibatch(4, 2), 0.5)
    outer = ThinnedView(inner, 0.5)
    assert outer.base is inner.base
    assert outer.keep_ratio == pytest.approx(0.25)


def test_thinned_full_batch_empty_prob():
    # two components, each kept with probability 1/2
    dist = ThinnedView(FullBatch(2), 0.5)
    assert dist.empty_prob() == pytest.approx(0.25)
    np.testing.assert_allclose(dist.inclusion_probs(), [0.5, 0.5])


def test_compressed_view_cases():
    base = UniformMinibatch(4, 2)
    assert compressed_view(base, 3, 3) is base
    thin = compressed_view(base, 1, 4)
    assert isinstance(thin, ThinnedView)
    assert thin.keep_ratio == pytest.approx(0.25)
    ind = compressed_view(IndependentParticipation([0.8, 0.4]), 1, 2)
    assert isinstance(ind, IndependentParticipation)
    np.testing.assert_allclose(ind.r, [0.4, 0.2])
    with pytest.raises(ConfigurationError):
        compressed_view(base, 0, 4)


# ---------------------------------------------------------------------------
# Enumeration limit and exchangeable shortcut


def test_enumeration_cap_raises():
    r = np.linspace(0.2, 0.9, 30)
    dist = IndependentParticipation(r)
    with pytest.raises(UnsupportedExact):
        dist.enumerate_support()
    with pytest.raises(UnsupportedExact):
        dist.tilde_probs()


def test_exchangeable_shortcut_beats_enumeration_cap():
    # exchangeable laws have the closed form even above the enumeration limit
    dist = UniformMinibatch(40, 3)
    np.testing.assert_allclose(dist.tilde_probs(), np.full(40, 1 / 40), atol=1e-15)
    ind = IndependentParticipation(np.full(30, 0.4))
    np.testing.assert_allclose(ind.tilde_probs(), np.full(30, 1 / 30), atol=1e-15)


def test_thinned_weighted_singletons_keep_q_above_the_enumeration_cap():
    q = np.linspace(1.0, 2.0, 30)
    q /= q.sum()
    thin = compressed_view(SingletonWeighted(q), 3, 10)
    assert isinstance(thin, ThinnedView)
    assert np.array_equal(thin.tilde_probs(), q)


@pytest.mark.parametrize("dist", [
    IndependentParticipation([0.5, 0.500004, 0.5]),
    # q itself is the closed form, and a thinning keeps it
    ThinnedView(SingletonWeighted([1 / 3, 1 / 3 + 2e-6, 1 / 3 - 2e-6]), 0.5),
], ids=lambda d: d.law)
def test_near_uniform_laws_skip_the_exchangeable_shortcut(dist):
    # a relative tolerance would call weights some 1e-6 apart identical
    exact = _tilde_from_support(dist.n, dist.enumerate_support())
    assert not np.allclose(exact, 1 / dist.n, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(dist.tilde_probs(), exact, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Validation


def test_uncovered_index_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        ExplicitSupport(3, [((0, 1), 1.0)])


def test_explicit_support_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        ExplicitSupport(2, [((0,), 0.6), ((1,), 0.6)])
    with pytest.raises(ConfigurationError):
        ExplicitSupport(2, [((0,), -0.5), ((1,), 1.5)])
    with pytest.raises(ConfigurationError):
        ExplicitSupport(2, [((0, 0), 1.0)])
    with pytest.raises(ConfigurationError):
        ExplicitSupport(2, [((5,), 1.0)])


def test_explicit_support_rejects_almost_surely_empty():
    with pytest.raises(ConfigurationError):
        ExplicitSupport(1, [((), 1.0)])


def test_explicit_support_merges_duplicates():
    dist = ExplicitSupport(2, [((0,), 0.3), ((0,), 0.2), ((1,), 0.5)])
    assert dist.enumerate_support() == [((0,), 0.5), ((1,), 0.5)]


def test_law_constructor_validation():
    with pytest.raises(ConfigurationError):
        UniformMinibatch(4, 0)
    with pytest.raises(ConfigurationError):
        UniformMinibatch(4, 5)
    with pytest.raises(ConfigurationError):
        SingletonWeighted([0.5, 0.6])
    with pytest.raises(ConfigurationError):
        IndependentParticipation([0.5, 1.2])
    with pytest.raises(ConfigurationError):
        ThinnedView(FullBatch(2), 0.0)


# ---------------------------------------------------------------------------
# Randomized structural property


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 10_000),
    ratio=st.floats(0.2, 1.0),
)
def test_thinned_independent_agree_on_effective_law(n, seed, ratio):
    """Thinning independent participation is again independent participation."""
    rng = generator(seed)
    r = rng.uniform(0.2, 1.0, size=n)
    thinned = ThinnedView(IndependentParticipation(r), ratio)
    direct = IndependentParticipation(np.clip(ratio * r, 1e-12, 1.0))
    np.testing.assert_allclose(
        support_tilde(thinned), support_tilde(direct), atol=1e-10
    )
    assert thinned.empty_prob() == pytest.approx(direct.empty_prob(), abs=1e-12)
