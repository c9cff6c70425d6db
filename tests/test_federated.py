"""Federated rounds: compression, reconstruction, and the thinning reduction.

The reduction argument is checked twice over. First, the exact conditional
mean of one federated round (enumerating subsets, per-client coordinate
masks, and server coins) is compared against the exact conditional mean of
the uncompressed iteration under the effective thinned law; these agree as a
pure identity. Second, Monte-Carlo one-round averages of fed_step itself are
compared against that enumeration, which exercises the real stream plumbing.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiprox import (
    Adaptive,
    CommLedger,
    ConfigurationError,
    Constant,
    ExplicitSupport,
    FedParams,
    FedRng,
    FullBatch,
    HypothesisViolation,
    IndependentParticipation,
    NumericalDivergence,
    ProblemInstance,
    SingletonWeighted,
    SmoothOracle,
    SolverParams,
    SolverState,
    UniformMinibatch,
    compress,
    derive_fed_params,
    derive_params,
    dual_error,
    fed_run,
    fed_step,
    generate_instance,
    generator,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    rescale,
    step,
    zero_prox,
)
from multiprox import problems
from multiprox.federated import BLOCK_ROUNDS, _REPLAY_MAX_K, _floyd_masks
from multiprox.problems import _kept_row_layout
from multiprox.rates import fed_plan, rho_theorem1, RateInputs
from multiprox.sampling import compressed_view
from multiprox.solver import LINEAR_SMOOTH


def fed_rngs(omega_seed, server_seed, client_seeds):
    return FedRng(
        omega=generator(omega_seed),
        server=generator(server_seed),
        clients=[generator(s) for s in client_seeds],
    )


def small_exact_instance(seed=3, n=4, d=4, mu=1.0, l_max=3.0):
    return generate_instance("exp3", seed, n=n, d=d, mu=mu, l_max=l_max)


# ---------------------------------------------------------------------------
# Compression


def choice_masks(rngs, d, k, counts):
    """The reference: one sorted Generator.choice call per mask, client by client."""
    return np.array([np.sort(rng.choice(d, size=k, replace=False))
                     for rng, count in zip(rngs, counts)
                     for _ in range(count)]).reshape(sum(counts), k)


def _replay_cases():
    for d in [*range(1, 65), 100, 127, 1000, 4097, 9999, 10_000]:
        for k in sorted({1, 2, d // 2, d} & set(range(1, d + 1))):
            yield d, k
    # on either side of the replay's last k
    for d in (100, 1000):
        yield d, _REPLAY_MAX_K
        yield d, _REPLAY_MAX_K + 1
    # huge ranges, where Lemire rejections redraw values
    yield 2**31 + 12_345, 3
    yield 10**6, 7


class TestCompress:
    def test_masks_are_sorted_unique_rows_of_size_k(self):
        masks = compress([generator(0)], 4, 2, [50])
        assert masks.shape == (50, 2)
        # strictly increasing rows: sorted, and no coordinate twice
        assert np.all(masks[:, 1:] > masks[:, :-1])
        assert masks.min() >= 0 and masks.max() < 4

    def test_each_coordinate_kept_with_ratio_k_over_d(self):
        draws = 100_000
        masks = compress([generator(1)], 4, 2, [draws])
        freq = np.bincount(masks.ravel(), minlength=4) / draws
        # 4 sigma for a Bernoulli(1/2) mean over 1e5 draws is about 0.0063
        assert np.abs(freq - 0.5).max() <= 0.01

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            compress([generator(0)], 4, 0, [1])
        with pytest.raises(ConfigurationError):
            compress([generator(0)], 4, 5, [1])

    @pytest.mark.parametrize("masks", [compress, _floyd_masks])
    def test_masks_and_stream_equal_successive_choice_calls(self, masks):
        # the replay is checked alone too, past the k where compress leaves
        # it; at d = 20 000, k = 1 000 choice shuffles a tail instead, which
        # only compress, through choice itself, handles
        cases = list(_replay_cases())
        if masks is compress:
            cases.append((20_000, 1_000))
        for d, k in cases:
            # unequal counts, one of them a single mask
            counts = [3, 1, 2 * k + 1] if k <= _REPLAY_MAX_K + 1 else [3, 1]
            ours = [generator(d + k + j) for j in range(len(counts))]
            ref = [generator(d + k + j) for j in range(len(counts))]
            for g, h in zip(ours, ref):
                # start from a generator that holds a buffered half-word
                g.integers(2)
                h.integers(2)
            got = masks(ours, d, k, np.array(counts))
            assert np.array_equal(got, choice_masks(ref, d, k, counts)), (d, k)
            for g, h in zip(ours, ref):
                assert repr(g.bit_generator.state) == repr(h.bit_generator.state), (d, k)


def coverage(cols, d, rng):
    """A round's coverage as its block draws it: messages per coordinate, then
    one server uniform per uncovered coordinate."""
    counts = np.bincount(cols, minlength=d)
    return counts, rng.random(int((counts == 0).sum()))


class TestRescale:
    def test_covered_and_open_coordinates(self):
        x_hat = np.array([1.0, 2.0, 3.0])
        x_prev = np.array([-1.0, -2.0, -3.0])
        cols = np.array([0, 1, 1])
        values = np.array([0.5, 4.0, 6.0])
        keep = rescale(cols, values, x_hat, x_prev, 1.0, *coverage(cols, 3, generator(0)))
        assert abs(keep[0] - 1.5) <= 1e-15
        assert abs(keep[1] - (2.0 + 5.0)) <= 1e-15
        assert keep[2] == 3.0
        drop = rescale(cols, values, x_hat, x_prev, 0.0, *coverage(cols, 3, generator(0)))
        assert drop[2] == -3.0

    def test_no_messages_with_certain_acceptance_gives_forward_point(self):
        x_hat = np.array([1.0, 2.0])
        none = np.zeros(0, dtype=np.intp)
        out = rescale(none, np.zeros(0), x_hat, np.zeros(2), 1.0, *coverage(none, 2, generator(0)))
        assert np.array_equal(out, x_hat)

    def test_open_coins_drawn_in_one_block_of_increasing_coordinates(self):
        x_hat = np.ones(5)
        x_prev = np.zeros(5)
        seed = 9
        none = np.zeros(0, dtype=np.intp)
        out = rescale(none, np.zeros(0), x_hat, x_prev, 0.5, *coverage(none, 5, generator(seed)))
        coins = generator(seed).random(5)
        assert np.array_equal(out, np.where(coins < 0.5, x_hat, x_prev))


# ---------------------------------------------------------------------------
# Parameter derivation


class TestDeriveFedParams:
    def test_both_paths_refuse_a_stepsize_without_a_finite_inverse(self):
        inst = small_exact_instance()
        # UniformMinibatch takes the theorem-exact path, FullBatch the generic one
        for dist in (UniformMinibatch(4, 2), FullBatch(4)):
            with pytest.raises(ConfigurationError, match="too small"):
                derive_fed_params(inst, dist, 2, gamma=1e-320)

    def test_exact_path_closed_forms(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        for k in (1, 2, 4):
            fed = derive_fed_params(inst, dist, k)
            p_check = (1.0 - k / 4.0) ** 2
            active = 1.0 - p_check
            gamma = np.sqrt(k * 2 * active / (4 * 4 * 3.0 * 1.0))
            assert abs(fed.effective.empty_prob() - p_check) <= 1e-15
            assert abs(fed.solver.schedule.gamma - gamma) <= 1e-15
            assert np.allclose(fed.solver.eta, 1.0 / active, atol=1e-15)
            mu_hat = 2.0 * 1.0 * 3.0 / (active * 4.0)
            assert abs(fed.solver.mu_hat_h - mu_hat) <= 1e-14
            assert abs(fed.solver.p_hat - 1.0 / (1.0 + gamma * mu_hat)) <= 1e-14
            assert abs(fed.solver.p_bar - p_check) <= 1e-15
            complexity = (1.0 / (gamma * 1.0) + 1.0 / active
                          + 4 * 4 / (k * 2) + 4 * 4 * gamma * 3.0 / (k * 2 * active))
            assert abs(fed.iteration_complexity - complexity) <= 1e-10

    def test_exact_rate_agrees_with_general_formula_on_effective_inputs(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        for k in (1, 3):
            fed = derive_fed_params(inst, dist, k)
            eff = compressed_view(dist, k, 4)
            p_check = eff.empty_prob()
            # rebuild every rate input from the stated closed forms alone
            ri = RateInputs(
                gamma=fed.solver.schedule.gamma,
                p=eff.inclusion_probs(),
                eta=np.full(4, 1.0 / (1.0 - p_check)),
                L_h=tuple(inst.L_h),
                mu_h=inst.mu_h,
                L_f=0.0, mu_f=0.0, mu_g=0.0,
                mu_hat_h=2.0 * 1.0 * 3.0 / ((1.0 - p_check) * 4.0),
                p_empty=p_check,
                p_hat=1.0 / (1.0 + fed.solver.schedule.gamma * fed.solver.mu_hat_h),
                p_bar=p_check,
            )
            assert abs(fed.rho - rho_theorem1(ri)) <= 1e-12
            assert 0.0 < fed.rho < 1.0

    def test_planned_stepsize_matches_the_rates_module(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        for k, s in ((1, 2), (2, 3), (4, 4)):
            fed = derive_fed_params(inst, UniformMinibatch(4, s), k)
            plan = fed_plan(4, 4, k, s, 3.0, 1.0)
            assert abs(fed.solver.schedule.gamma - plan.gamma) <= 1e-15

    def test_generic_path_delegates_to_the_effective_law(self):
        inst = small_exact_instance(n=3, d=5, mu=0.5, l_max=6.0)
        dist = SingletonWeighted([0.2, 0.3, 0.5])
        fed = derive_fed_params(inst, dist, 2, gamma=0.05)
        eff = compressed_view(dist, 2, 5)
        reference = derive_params(inst, eff, Constant(0.05))
        assert np.allclose(fed.solver.eta, reference.eta, atol=1e-15)
        assert fed.solver.p_hat == reference.p_hat
        assert fed.solver.p_bar == reference.p_bar
        assert fed.solver.mu_hat_h == reference.mu_hat_h
        assert fed.solver.p_bar == eff.empty_prob()
        assert fed.iteration_complexity is None
        assert fed.rho is not None and 0.0 < fed.rho < 1.0

    def test_generic_path_requires_an_explicit_stepsize(self):
        inst = small_exact_instance(n=3, d=5, mu=0.5, l_max=6.0)
        with pytest.raises(HypothesisViolation):
            derive_fed_params(inst, SingletonWeighted([0.2, 0.3, 0.5]), 2)

    def test_a_weighted_singleton_law_past_the_enumeration_cap_derives(self):
        # the thinned law's tilde probabilities are q in closed form, so 30
        # clients need no support enumeration
        inst = generate_instance("exp3", 3, n=30, d=10, mu=1.0, l_max=5.0)
        q = np.linspace(1.0, 2.0, 30)
        q /= q.sum()
        dist = SingletonWeighted(q)
        fed = derive_fed_params(inst, dist, 3, gamma=0.05)
        assert np.array_equal(fed.effective.tilde_probs(), q)
        assert fed.rho is not None and 0.0 < fed.rho < 1.0
        state, _, _ = fed_run(inst, fed, dist, 4, 20)
        assert state.t == 20 and np.all(np.isfinite(state.x))

    def test_uncertifiable_rate_is_reported_as_absent(self):
        inst = generate_instance("exp2", 5, d=4)
        fed = derive_fed_params(inst, UniformMinibatch(4, 2), 2, gamma=0.05)
        assert fed.spec is None and fed.rho is None

    def test_a_component_without_curvature_leaves_the_spec_out(self):
        # h = 0 has L = mu = 0, where the dual weight 1/(L + mu) is undefined
        inst = ProblemInstance(
            f=SmoothOracle(grad=lambda v: v, L=1.0, mu=1.0), g=zero_prox(),
            h=(zero_prox(),),
            x_star=np.zeros(2), u_star=np.zeros((1, 2)),
        )
        fed = derive_fed_params(inst, FullBatch(1), 2, gamma=0.5)
        assert fed.spec is None and fed.rho is None

    @pytest.mark.parametrize("path", ["exact", "generic"])
    def test_the_spec_is_the_linear_rate_certificate_of_the_effective_law(self, path):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        if path == "exact":
            dist, fed = UniformMinibatch(4, 2), derive_fed_params(inst, UniformMinibatch(4, 2), 3)
        else:
            dist = SingletonWeighted([0.1, 0.2, 0.3, 0.4])
            fed = derive_fed_params(inst, dist, 3, gamma=0.05)
        ref = make_lyapunov_spec(LINEAR_SMOOTH, inst, compressed_view(dist, 3, 4), fed.solver)
        spec = fed.spec
        assert fed.rho is spec.rho and spec.rho == ref.rho
        assert (spec.variant, spec.x_weight, spec.z_weight) == (
            ref.variant, ref.x_weight, ref.z_weight)
        assert np.array_equal(spec.u_weights, ref.u_weights)
        for t in (0, 1, 17):
            assert spec.envelope_ratio(t) == ref.envelope_ratio(t)

    def test_rejects_bad_k(self):
        inst = small_exact_instance()
        with pytest.raises(ConfigurationError):
            derive_fed_params(inst, UniformMinibatch(4, 2), 0)
        with pytest.raises(ConfigurationError):
            derive_fed_params(inst, UniformMinibatch(4, 2), 5)


# ---------------------------------------------------------------------------
# Round mechanics


class TestFedStep:
    def test_full_compression_window_equals_solver_step(self):
        # k = d ships every coordinate, so the round must reproduce the
        # uncompressed iteration exactly when the subset streams agree
        inst = small_exact_instance(n=6, d=5, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(6, 2)
        fed = derive_fed_params(inst, dist, 5)
        assert fed.solver.p_bar == 0.0
        x0 = generator(40).standard_normal(5)
        server = initial_state(inst, x0=x0)
        ledger = CommLedger()
        rngs = fed_rngs(123, 7, range(1000, 1006))
        state = initial_state(inst, x0=x0)
        solo = generator(123)
        for _ in range(300):
            fed_step(server, inst, fed, dist, rngs, ledger)
            step(state, inst, fed.solver, dist, solo)
            assert np.abs(server.x - state.x).max() <= 1e-12
            assert np.abs(server.u_bar - state.u_bar).max() <= 1e-12
            for i in range(6):
                assert np.abs(server.u[i] - state.u[i]).max() <= 1e-12

    def test_solution_is_a_fixed_point(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        server = initial_state(inst, x0=inst.x_star)
        assert np.abs(server.u - inst.u_star).max() <= 1e-12
        ledger = CommLedger()
        rngs = FedRng.from_seed(11, 4)
        for _ in range(100):
            fed_step(server, inst, fed, dist, rngs, ledger)
        assert np.linalg.norm(server.x - inst.x_star) <= 1e-10
        assert np.abs(server.u - inst.u_star).max() <= 1e-10

    def test_average_cache_tracks_client_duals(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        server = initial_state(inst, x0=generator(41).standard_normal(4))
        ledger = CommLedger()
        rngs = FedRng.from_seed(12, 4)
        for _ in range(200):
            fed_step(server, inst, fed, dist, rngs, ledger)
            mean = server.u.mean(axis=0)
            assert np.abs(server.u_bar - mean).max() <= 1e-12

    def test_dual_updates_touch_only_the_masked_coordinates(self):
        inst = small_exact_instance(n=2, d=4, mu=1.0, l_max=3.0)
        dist = FullBatch(2)
        fed = derive_fed_params(inst, dist, 1, gamma=0.1)
        server = initial_state(inst, x0=generator(42).standard_normal(4))
        before = server.u.copy()
        rngs = fed_rngs(0, 1, [50, 51])
        fed_step(server, inst, fed, dist, rngs, CommLedger())
        for i, seed in enumerate((50, 51)):
            kept = np.sort(generator(seed).choice(4, size=1, replace=False))
            changed = np.flatnonzero(np.abs(server.u[i] - before[i]) > 0)
            assert np.array_equal(changed, kept)

    def test_kept_coordinates_move_by_the_unscaled_correction(self):
        inst = small_exact_instance(n=2, d=4, mu=1.0, l_max=3.0)
        dist = FullBatch(2)
        fed = derive_fed_params(inst, dist, 2, gamma=0.1)
        rng = generator(43)
        x, u = rng.standard_normal(4), rng.standard_normal((2, 4))
        server = SolverState(t=0, x=x.copy(), u=u.copy(), u_bar=u.mean(axis=0))
        fed_step(server, inst, fed, dist, fed_rngs(0, 1, [52, 53]), CommLedger())
        gamma = fed.solver.schedule.gamma
        xhat = inst.g.prox(gamma, x - gamma * (inst.f.grad(x) + u.mean(axis=0)))
        for i, seed in enumerate((52, 53)):
            ge = gamma * float(fed.solver.eta[i])
            y = inst.h[i].prox(ge, xhat + ge * u[i])
            kept = np.sort(generator(seed).choice(4, size=2, replace=False))
            # the kept values ship as they are, no 1/probability factor
            expected = u[i].copy()
            expected[kept] -= (y[kept] - xhat[kept]) / ge
            assert np.array_equal(server.u[i], expected)

    def test_client_generators_must_match_the_components(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        for clients in ([2, 3], range(2, 9)):
            with pytest.raises(ConfigurationError):
                fed_run(inst, fed, dist, fed_rngs(0, 1, clients), 5)
            with pytest.raises(ConfigurationError):
                fed_step(initial_state(inst), inst, fed, dist, fed_rngs(0, 1, clients),
                         CommLedger())

    @pytest.mark.parametrize("law", [UniformMinibatch(9, 2), FullBatch(4)],
                             ids=["wider", "narrower"])
    def test_a_law_over_another_client_count_is_refused(self, law):
        # a wider law would draw clients that do not exist, a narrower one
        # would never draw the last of them
        inst = small_exact_instance(n=6, d=5)
        fed = derive_fed_params(inst, UniformMinibatch(6, 2), 2)
        with pytest.raises(ConfigurationError, match="law over"):
            fed_run(inst, fed, law, 3, 20)
        with pytest.raises(ConfigurationError, match="law over"):
            fed_step(initial_state(inst), inst, fed, law, FedRng.from_seed(3, 6),
                     CommLedger())

    def test_rounds_drawn_for_another_k_are_refused(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        rngs = FedRng.from_seed(3, 4)
        rngs.draw_ahead(dist, 1, inst, 3)
        with pytest.raises(ConfigurationError):
            fed_step(initial_state(inst), inst, fed, dist, rngs, CommLedger())

    def test_ledger_counts_every_participant(self):
        inst = small_exact_instance(n=4, d=5, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2, gamma=0.05)
        _, _, ledger = fed_run(inst, fed, dist, 21, 30)
        assert ledger.rounds == 30
        assert ledger.uplink_parallel_reals == 30 * 2
        assert ledger.uplink_total_reals == 30 * 2 * 2

    def test_ledger_skips_empty_rounds(self):
        inst = small_exact_instance(n=2, d=4, mu=1.0, l_max=3.0)
        dist = ExplicitSupport(2, [((), 0.7), ((0,), 0.15), ((0, 1), 0.15)])
        fed = derive_fed_params(inst, dist, 2, gamma=0.05)
        T = 200
        rngs = fed_rngs(60, 61, [62, 63])
        server = initial_state(inst)
        ledger = CommLedger()
        for _ in range(T):
            fed_step(server, inst, fed, dist, rngs, ledger)
        replay = generator(60)
        active_rounds = 0
        participants = 0
        for _ in range(T):
            members = dist.sample(replay)
            active_rounds += bool(members)
            participants += len(members)
        assert ledger.rounds == T
        assert ledger.uplink_parallel_reals == 2 * active_rounds
        assert ledger.uplink_total_reals == 2 * participants

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           chunks=st.lists(st.integers(0, 6), min_size=1, max_size=6))
    def test_cached_dual_distances_follow_the_rounds(self, seed, chunks):
        # compressed rounds move a few coordinates of each member's dual row;
        # with n = 16, one round's rows are refreshed by row
        inst = small_exact_instance(n=16, d=6, mu=1.0, l_max=20.0)
        dist = UniformMinibatch(16, 2)
        fed = derive_fed_params(inst, dist, 2)
        spec = make_lyapunov_spec(LINEAR_SMOOTH, inst, fed.effective, fed.solver)
        rngs = FedRng.from_seed(seed, inst.n)
        server = initial_state(inst, x0=np.full(inst.d, 3.0))
        ledger = CommLedger()
        for rounds in chunks:
            for _ in range(rounds):
                fed_step(server, inst, fed, dist, rngs, ledger)
            rebuilt = SolverState(t=server.t, x=server.x.copy(), u=server.u.copy(),
                                  u_bar=server.u_bar.copy())
            assert (lyapunov(server, inst, fed.solver, spec)
                    == lyapunov(rebuilt, inst, fed.solver, spec))
            assert dual_error(server, inst) == float(
                np.sqrt(((server.u - inst.u_star) ** 2).sum(axis=1).max()))


# ---------------------------------------------------------------------------
# The thinning reduction, exactly and empirically


def one_round_branches(instance, fed, x, u):
    """Forward-backward point and full per-client corrections at (x, u)."""
    params = fed.solver
    gamma = params.schedule.gamma
    xhat = instance.g.prox(gamma, x - gamma * (instance.f.grad(x) + u.mean(axis=0)))
    corrections = []
    for i in range(instance.n):
        ge = gamma * float(params.eta[i])
        y = instance.h[i].prox(ge, xhat + ge * u[i])
        corrections.append(y - xhat)
    return xhat, corrections


def exact_fed_mean(instance, fed, dist, x, u):
    """E[x^+ | x, u] of one federated round, enumerated coordinate-wise."""
    params = fed.solver
    xhat, corr = one_round_branches(instance, fed, x, u)
    r = fed.k / instance.d
    expected = np.zeros(instance.d)
    for members, prob in dist.enumerate_support():
        m = len(members)
        for j in range(instance.d):
            acc = 0.0
            for pattern in range(1 << m):
                covering = [members[b] for b in range(m) if pattern >> b & 1]
                w = r ** len(covering) * (1.0 - r) ** (m - len(covering))
                if covering:
                    val = xhat[j] + np.mean([corr[i][j] for i in covering])
                else:
                    val = params.p_hat * xhat[j] + (1.0 - params.p_hat) * x[j]
                acc += w * val
            expected[j] += prob * acc
    return expected


def exact_effective_mean(instance, fed, x, u):
    """E[x^+ | x, u] of the uncompressed iteration under the effective law."""
    params = fed.solver
    xhat, corr = one_round_branches(instance, fed, x, u)
    expected = np.zeros(instance.d)
    for members, prob in fed.effective.enumerate_support():
        if members:
            val = xhat + np.mean([corr[i] for i in members], axis=0)
        else:
            val = params.p_hat * xhat + (1.0 - params.p_hat) * x
        expected += prob * val
    return expected


class TestThinningReduction:
    def setup_method(self):
        self.inst = small_exact_instance(seed=8, n=3, d=3, mu=1.0, l_max=3.0)
        self.dist = UniformMinibatch(3, 2)
        self.fed = derive_fed_params(self.inst, self.dist, 1)
        rng = generator(70)
        self.x = self.inst.x_star + rng.standard_normal(3)
        self.u = self.inst.u_star + rng.standard_normal((3, 3))

    def test_enumeration_matches_the_effective_law_identity(self):
        direct = exact_fed_mean(self.inst, self.fed, self.dist, self.x, self.u)
        via_law = exact_effective_mean(self.inst, self.fed, self.x, self.u)
        assert np.abs(direct - via_law).max() <= 1e-12

    def test_fed_step_realizes_the_enumerated_mean(self):
        exact = exact_fed_mean(self.inst, self.fed, self.dist, self.x, self.u)
        u_bar = self.u.mean(axis=0)
        draws = 20_000
        samples = np.empty((draws, 3))
        for s in range(draws):
            server = SolverState(t=0, x=self.x.copy(), u=self.u.copy(), u_bar=u_bar.copy())
            fed_step(server, self.inst, self.fed, self.dist,
                     FedRng.from_seed(10_000 + s, 3), CommLedger())
            samples[s] = server.x
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - exact) <= 4.5 * stderr + 1e-12)


# ---------------------------------------------------------------------------
# fed_run


@functools.lru_cache(maxsize=None)
def _plan_instance(n, d):
    return generate_instance("exp3", 11, n=n, d=d, mu=1.0, l_max=20.0)


class _Descending(UniformMinibatch):
    """UniformMinibatch's draws with the members in decreasing order, against
    the contract of ``sample``, on which only a round of every member relies."""

    def sample(self, rng):
        return super().sample(rng)[::-1]


class TestFedRun:
    def test_zero_rounds_reports_once(self):
        inst = small_exact_instance()
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        rows = []
        fed_run(inst, fed, dist, 5, 0,
                sink=lambda t, sqd, psi, comm: rows.append((t, sqd, psi, comm)))
        assert len(rows) == 1
        assert rows[0][0] == 0
        assert rows[0][3] == (0, 0)
        assert rows[0][2] is not None

    def test_negative_round_count_rejected(self):
        inst = small_exact_instance()
        fed = derive_fed_params(inst, UniformMinibatch(4, 2), 2)
        with pytest.raises(ConfigurationError):
            fed_run(inst, fed, UniformMinibatch(4, 2), 5, -1)

    def test_cadence_and_cumulative_communication(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        rows = []
        fed_run(inst, fed, dist, 9, 20, cadence=7,
                sink=lambda t, sqd, psi, comm: rows.append((t, comm)))
        assert [t for t, _ in rows] == [0, 7, 14, 20]
        # never-empty uniform participation: 2 clients times k=2 per round
        assert [c for _, c in rows] == [(0, 0), (14, 28), (28, 56), (40, 80)]

    def test_same_seed_gives_identical_runs(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        out = []
        for _ in range(2):
            rows = []
            server, duals, ledger = fed_run(
                inst, fed, dist, 99, 80,
                sink=lambda t, sqd, psi, comm: rows.append((t, sqd, psi, comm)),
            )
            out.append((rows, server.x.copy(), duals.copy()))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][1], out[1][1])
        assert np.array_equal(out[0][2], out[1][2])

    def test_lyapunov_column_absent_without_a_certified_rate(self):
        inst = generate_instance("exp2", 5, d=4)
        fed = derive_fed_params(inst, UniformMinibatch(4, 2), 2, gamma=0.05)
        rows = []
        fed_run(inst, fed, UniformMinibatch(4, 2), 3, 5,
                sink=lambda t, sqd, psi, comm: rows.append(psi))
        assert all(p is None for p in rows)

    def test_certified_configuration_converges(self):
        inst = small_exact_instance(n=4, d=4, mu=1.0, l_max=3.0)
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        server, _, ledger = fed_run(inst, fed, dist, 77, 400)
        assert float((server.x - inst.x_star) @ (server.x - inst.x_star)) <= 1e-10
        assert ledger.rounds == 400

    def test_initial_state_shapes(self):
        inst = small_exact_instance()
        dist = UniformMinibatch(4, 2)
        fed = derive_fed_params(inst, dist, 2)
        with pytest.raises(ConfigurationError):
            fed_run(inst, fed, dist, 5, 0, x0=np.zeros(3))
        server, duals, _ = fed_run(inst, fed, dist, 5, 0)
        assert server.t == 0
        assert np.array_equal(
            server.u_bar, duals.mean(axis=0)
        )

    @pytest.mark.parametrize("law", ["full_batch", "minibatch", "independent"])
    def test_stacked_prox_equals_the_oracle_loop_bit_for_bit(self, law):
        # a generated family proxes every participant in one stacked call,
        # which at d = 20 and 23 reads only the kept rows for k <= 3 when
        # every client takes part; the same oracles, hand-built, take the
        # per-oracle loop
        n = 7
        dist, gamma = {
            "full_batch": (FullBatch(n), None),
            "minibatch": (UniformMinibatch(n, 3), None),
            "independent": (IndependentParticipation(np.linspace(0.05, 0.5, n)), 0.02),
        }[law]
        for d, ks in ((6, (1, 3, 6)), (20, (1, 2, 3, 5)), (23, (1, 2, 3, 5))):
            inst = generate_instance("exp3", 11, n=n, d=d, mu=1.0, l_max=20.0)
            hand_built = ProblemInstance(f=inst.f, g=inst.g, h=inst.h,
                                         x_star=inst.x_star, u_star=inst.u_star)
            for k in ks:
                fed = derive_fed_params(inst, dist, k, gamma=gamma)
                runs = []
                for instance in (inst, hand_built):
                    rows = []
                    state, _, ledger = fed_run(instance, fed, dist, 4, 60,
                                               x0=np.full(d, 3.0),
                                               sink=lambda *row: rows.append(row))
                    runs.append((rows, state, vars(ledger)))
                (rows, state, ledger), (loop_rows, loop_state, loop_ledger) = runs
                assert rows == loop_rows, (d, k)
                assert ledger == loop_ledger
                for name in ("x", "u", "u_bar"):
                    assert np.array_equal(getattr(state, name), getattr(loop_state, name))
                if law == "independent":
                    # some rounds drew nobody: the uplink count stood still
                    comm = [row[3] for row in rows]
                    assert any(a == b for a, b in zip(comm, comm[1:]))

    @pytest.mark.parametrize("law", ["full_batch", "minibatch", "independent"])
    def test_blocks_drawn_ahead_equal_standalone_rounds(self, law):
        n, d = 7, 6
        inst = generate_instance("exp3", 11, n=n, d=d, mu=1.0, l_max=20.0)
        dist, gamma = {
            "full_batch": (FullBatch(n), None),
            "minibatch": (UniformMinibatch(n, 3), None),
            "independent": (IndependentParticipation(np.linspace(0.05, 0.5, n)), 0.02),
        }[law]
        x0 = np.full(d, 3.0)
        for k in (1, 3, d):
            fed = derive_fed_params(inst, dist, k, gamma=gamma)
            for T in (0, 1, BLOCK_ROUNDS + 3):
                rngs = FedRng.from_seed(17, n)
                state, _, ledger = fed_run(inst, fed, dist, rngs, T, x0=x0)
                solo_rngs = FedRng.from_seed(17, n)
                solo = initial_state(inst, x0=x0)
                solo_ledger = CommLedger()
                for _ in range(T):
                    fed_step(solo, inst, fed, dist, solo_rngs, solo_ledger)
                assert state.t == solo.t == T
                for name in ("x", "u", "u_bar"):
                    assert np.array_equal(getattr(state, name), getattr(solo, name))
                assert vars(ledger) == vars(solo_ledger)
                for g, h in zip([rngs.omega, rngs.server, *rngs.clients],
                                [solo_rngs.omega, solo_rngs.server, *solo_rngs.clients]):
                    assert repr(g.bit_generator.state) == repr(h.bit_generator.state)
                if law == "independent" and T > 1:
                    # some rounds drew nobody
                    assert ledger.uplink_parallel_reals < k * T

    @pytest.mark.parametrize("law", ["full_batch", "minibatch", "independent"])
    def test_block_masks_equal_successive_choice_calls(self, law):
        # an independent reference: each client's masks, as next_round hands
        # them out, against choice calls on a fresh copy of its generator,
        # and each round's coins against a call of its own on the server's
        n, d = 7, 6
        inst = small_exact_instance(n=n, d=d)
        dist = {
            "full_batch": FullBatch(n),
            "minibatch": UniformMinibatch(n, 3),
            "independent": IndependentParticipation(np.linspace(0.05, 0.5, n)),
        }[law]
        counts_seen = []
        for k in (1, 3, d):
            for rounds in (1, 2, 5):
                rngs, ref = FedRng.from_seed(23, n), FedRng.from_seed(23, n)
                rngs.draw_ahead(dist, k, inst, rounds)
                got = [[] for _ in range(n)]
                for _ in range(rounds):
                    members, (masks, *_), counts, coins = rngs.next_round(dist, k, inst)
                    assert np.array_equal(members, np.asarray(dist.sample(ref.omega), dtype=int))
                    # the block's coins equal one server call per round
                    want_counts, want_coins = coverage(masks.ravel(), d, ref.server)
                    assert np.array_equal(counts, want_counts)
                    assert np.array_equal(coins, want_coins)
                    for i, mask in zip(members.tolist(), masks):
                        got[i].append(mask)
                for i, g in enumerate(ref.clients):
                    want = choice_masks([g], d, k, [len(got[i])])
                    assert np.array_equal(np.reshape(got[i], (-1, k)), want), (k, rounds, i)
                for g, h in zip([rngs.omega, rngs.server, *rngs.clients],
                                [ref.omega, ref.server, *ref.clients]):
                    assert repr(g.bit_generator.state) == repr(h.bit_generator.state)
                counts_seen += [(len(client_masks), k) for client_masks in got]
        # some clients drew fewer than 2k masks, and where the law allows it
        # some drew none, whose generators the block left alone
        assert any(0 < count < 2 * k for count, k in counts_seen)
        assert any(count == 0 for count, _ in counts_seen) == (law != "full_batch")

    @settings(max_examples=40, deadline=None)
    @given(law=st.sampled_from(["full_batch", "minibatch", "independent", "explicit",
                                "adaptive", "descending"]),
           d=st.sampled_from([6, 20, 23]), k_share=st.floats(0.0, 1.0),
           s=st.integers(1, 5), T=st.integers(0, BLOCK_ROUNDS + 5),
           seed=st.integers(0, 2**32 - 1))
    # k on either side of the kept-row crossover, with and without tail rows
    @example(law="full_batch", d=20, k_share=3 / 19, s=1, T=BLOCK_ROUNDS + 3, seed=0)
    @example(law="full_batch", d=20, k_share=4 / 19, s=1, T=BLOCK_ROUNDS + 3, seed=1)
    @example(law="adaptive", d=23, k_share=1 / 22, s=1, T=BLOCK_ROUNDS + 3, seed=2)
    @example(law="explicit", d=23, k_share=0.0, s=1, T=BLOCK_ROUNDS + 3, seed=3)
    @example(law="independent", d=20, k_share=0.0, s=1, T=BLOCK_ROUNDS + 3, seed=4)
    @example(law="descending", d=6, k_share=0.0, s=3, T=3, seed=5)
    def test_planned_blocks_equal_standalone_rounds(self, law, d, k_share, s, T, seed):
        # fed_run plans blocks of up to BLOCK_ROUNDS rounds; standalone
        # fed_step calls plan one round each
        n = 5
        k = 1 + int(k_share * (d - 1))
        inst = _plan_instance(n, d)
        dist = {
            "full_batch": FullBatch(n),
            "minibatch": UniformMinibatch(n, s),
            "independent": IndependentParticipation(np.linspace(0.05, 0.4, n)),
            "explicit": ExplicitSupport(n, [((), 0.4), ((0, 2), 0.3), (tuple(range(n)), 0.3)]),
            "adaptive": FullBatch(n),
            # a round of some members hands each member its own masks
            "descending": _Descending(n, min(s, n - 1)),
        }[law]
        if law == "adaptive":
            # the stepsize changes every round, and with it the prox's arrays
            fed = FedParams(solver=SolverParams(np.ones(n), 0.5, 0.0, 0.0, Adaptive(1.0, 6.0)),
                            k=k, effective=compressed_view(dist, k, d), spec=None)
        else:
            fed = derive_fed_params(inst, dist, k,
                                    gamma=0.02 if law in ("independent", "explicit") else None)
        x0 = np.full(d, 3.0)
        rngs = FedRng.from_seed(seed, n)
        state, _, ledger = fed_run(inst, fed, dist, rngs, T, x0=x0)
        solo_rngs = FedRng.from_seed(seed, n)
        solo = initial_state(inst, x0=x0)
        solo_ledger = CommLedger()
        for _ in range(T):
            fed_step(solo, inst, fed, dist, solo_rngs, solo_ledger)
        assert state.t == solo.t == T
        for name in ("x", "u", "u_bar"):
            assert np.array_equal(getattr(state, name), getattr(solo, name))
        assert vars(ledger) == vars(solo_ledger)
        for g, h in zip([rngs.omega, rngs.server, *rngs.clients],
                        [solo_rngs.omega, solo_rngs.server, *solo_rngs.clients]):
            assert repr(g.bit_generator.state) == repr(h.bit_generator.state)

    @settings(max_examples=25, deadline=None)
    @given(law=st.sampled_from(["full_batch", "minibatch"]), d=st.sampled_from([20, 23]),
           k_share=st.floats(0.0, 1.0), T=st.integers(BLOCK_ROUNDS + 1, BLOCK_ROUNDS + 5),
           seed=st.integers(0, 2**32 - 1))
    # k on either side of the kept-row share (1 of d = 20 laid out, 12 of 23 not), in
    # rounds of every and of some clients
    @example(law="full_batch", d=20, k_share=0.0, T=BLOCK_ROUNDS + 3, seed=0)
    @example(law="full_batch", d=23, k_share=0.5, T=BLOCK_ROUNDS + 3, seed=1)
    @example(law="minibatch", d=20, k_share=0.0, T=BLOCK_ROUNDS + 3, seed=2)
    def test_split_rounds_equal_inline_rounds(self, law, d, k_share, T, seed):
        # a split threshold of zero splits every round of two or more clients
        n = 7
        k = 1 + int(k_share * (d - 1))
        inst = _plan_instance(n, d)
        dist = FullBatch(n) if law == "full_batch" else UniformMinibatch(n, 4)
        fed = derive_fed_params(inst, dist, k)
        runs = []
        with mock.patch.object(problems.os, "sched_getaffinity", lambda pid: {0, 1},
                               create=True):
            for threshold in (0, float("inf")):
                with mock.patch.object(problems, "_SPLIT_MIN_BYTES", threshold):
                    rngs, rows = FedRng.from_seed(seed, n), []
                    state, _, ledger = fed_run(inst, fed, dist, rngs, T, x0=np.full(d, 3.0),
                                               sink=lambda *row: rows.append(row))
                    runs.append((state, vars(ledger), rows, rngs))
        (state, ledger, rows, rngs), (inline, inline_ledger, inline_rows, inline_rngs) = runs
        assert problems._helper is not None
        assert state.t == inline.t == T
        for name in ("x", "u", "u_bar"):
            assert np.array_equal(getattr(state, name), getattr(inline, name))
        assert ledger == inline_ledger
        assert rows == inline_rows
        for g, h in zip([rngs.omega, rngs.server, *rngs.clients],
                        [inline_rngs.omega, inline_rngs.server, *inline_rngs.clients]):
            assert repr(g.bit_generator.state) == repr(h.bit_generator.state)

    def test_a_mixed_block_lays_out_its_full_rounds(self):
        # the block's plan decides every layout: a round of every client gets
        # its own masks' layout whatever the other rounds draw, any other none
        n, d, k = 5, 20, 3
        inst = _plan_instance(n, d)
        dist = ExplicitSupport(n, [((), 0.4), ((0, 2), 0.3), (tuple(range(n)), 0.3)])
        rngs = FedRng.from_seed(29, n)
        sizes = []
        for rounds in (40, 1, 1, 1, 1, 1, 1):
            rngs.draw_ahead(dist, k, inst, rounds)
            for _ in range(rounds):
                members, kept, *_ = rngs.next_round(dist, k, inst)
                sizes.append(members.size)
                if members.size == n:
                    rows, where = _kept_row_layout(kept.cols, d)
                    assert np.array_equal(kept.layout[0], rows)
                    assert np.array_equal(kept.layout[1], where)
                else:
                    assert kept.layout is None
        assert {0, 2, n} <= set(sizes[:40])

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_a_block_of_no_rounds_is_refused(self, rounds):
        inst = _plan_instance(4, 6)
        rngs, ref = FedRng.from_seed(31, 4), FedRng.from_seed(31, 4)
        with pytest.raises(ConfigurationError, match=f"at least one round, got {rounds}"):
            rngs.draw_ahead(FullBatch(4), 2, inst, rounds)
        for g, h in zip([rngs.omega, rngs.server, *rngs.clients],
                        [ref.omega, ref.server, *ref.clients]):
            assert repr(g.bit_generator.state) == repr(h.bit_generator.state)

    def test_divergence_reports_the_round(self):
        inst = ProblemInstance(
            f=SmoothOracle(grad=lambda v: v, L=1.0, mu=1.0), g=zero_prox(),
            h=(zero_prox(),),
            x_star=np.zeros(2), u_star=np.zeros((1, 2)),
        )
        # no certified plan covers a stepsize this large; build it by hand
        fed = FedParams(
            solver=SolverParams(np.ones(1), 1.0, 0.0, 0.0, Constant(3.0)),
            k=2, effective=FullBatch(1), spec=None,
        )
        # x doubles every round from 1e9 sqrt(2); the trust region is 1e12
        with pytest.raises(NumericalDivergence) as exc:
            fed_run(inst, fed, FullBatch(1), 0, 100, x0=np.full(2, 1e9))
        assert exc.value.iteration == 10
