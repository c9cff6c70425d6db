"""The stochastic multi-proximal iteration and its certified diagnostics.

One iteration: a forward-backward point through f and g using the running
dual average, proximal corrections on a randomly drawn subset of components,
and an acceptance coin when the subset comes up empty. Dual vectors move so
that each u_i stays an exact subgradient of h_i at the last point component i
touched. The forward point skips the gradient of the package's zero f
(:func:`~multiprox.problems.zero_smooth`) and the identity prox of its zero g
(:func:`~multiprox.problems.zero_prox`), which changes no value.

States are advanced in place by :func:`step`; use :func:`clone_state` first
when the old state must survive (the conditional-expectation helper does
this internally). A state caches the mean of its duals and their squared
distances to the reference duals; both follow ``u``, so code that edits ``u``
in place outside :func:`step` and ``fed_step`` rebinds it (``state.u = ...``
with a fresh ``u_bar``). The empty-subset coin is drawn from the same stream
as the subsets, immediately after the subset draw, on every empty round
regardless of the acceptance probability; that fixed order is what makes
runs reproducible and lets reference implementations align stream for stream.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    HypothesisViolation,
    NumericalDivergence,
    Unsupported,
)
from .problems import (
    ProblemInstance,
    _identity_prox,
    harmonic_curvature,
    inverse_total_curvature,
    is_infinite,
)
from .rates import (
    RateInputs,
    forward_curvature,
    rho_n1_simple_g,
    rho_similarity,
    rho_theorem1,
    transfer_cap,
)
from .sampling import SamplingDistribution

Array = np.ndarray

TRUST_RADIUS = 1e12

# K of a certified run's trust radius ||x*|| + sqrt(K psi_0): its Lyapunov
# value psi_t bounds ||x_t - x*||^2 and is a nonnegative supermartingale, so
# by Markov's maximal inequality the run ever leaves that ball with
# probability at most 1/K.
CERTIFIED_RADIUS_K = 1e6


# ---------------------------------------------------------------------------
# Stepsize schedules


def _is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class Constant:
    gamma: float

    def __post_init__(self):
        if not _is_real(self.gamma):
            raise ConfigurationError(f"stepsize must be a finite real number, got {self.gamma!r}")
        if not self.gamma > 0:
            raise ConfigurationError(f"stepsize must be positive, got {self.gamma}")


@dataclass(frozen=True)
class Adaptive:
    """Decreasing stepsizes 2 / (mu (a + t)); ``a`` must exceed 5."""

    mu: float
    a: float

    def __post_init__(self):
        for name, value in (("curvature", self.mu), ("offset", self.a)):
            if not _is_real(value):
                raise ConfigurationError(
                    f"schedule {name} must be a finite real number, got {value!r}"
                )
        if not self.mu > 0:
            raise ConfigurationError(f"schedule curvature must be positive, got {self.mu}")
        if not self.a > 5:
            # the envelope certificate needs a > 5
            raise HypothesisViolation(f"schedule offset must exceed 5, got {self.a}")


StepsizeSchedule = Constant | Adaptive


def gamma_at(schedule: StepsizeSchedule, t: int) -> float:
    """Stepsize at iteration t; adaptive schedules extend back to t = -1."""
    if isinstance(schedule, Constant):
        return schedule.gamma
    if t < -1:
        raise ConfigurationError(f"schedule undefined at t={t}")
    return 2.0 / (schedule.mu * (schedule.a + t))


# ---------------------------------------------------------------------------
# Parameters and state


@dataclass(frozen=True)
class SolverParams:
    """Relaxation weights and empty-round behavior for one run."""

    eta: Array
    p_hat: float
    p_bar: float
    mu_hat_h: float
    schedule: StepsizeSchedule
    track_z: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=np.float64))
        if np.any(self.eta <= 0):
            raise ConfigurationError("relaxation weights must be positive")
        if not 0.0 <= self.p_hat <= 1.0:
            raise ConfigurationError(f"acceptance probability {self.p_hat} outside [0, 1]")
        if self.p_bar < 0 or self.mu_hat_h < 0:
            raise ConfigurationError("derived constants must be nonnegative")


@dataclass
class SolverState:
    """Mutable iterate bundle. ``u_bar`` is the cached mean of the rows of ``u``.

    ``radius`` bounds ``||x||`` (see :func:`certify_radius`).

    The state also caches ``du_sq[i] = ||u_i - u*_i||^2`` for the Lyapunov
    and dual-error evaluations, with the rows moved since its last refresh
    and the (u, u*) array pair it was built for. Like ``u_bar`` it follows
    ``u``: step and fed_step mark the rows they move, and code that edits
    ``u`` in place elsewhere rebinds it, which rebuilds the cache.
    """

    t: int
    x: Array
    u: Array
    u_bar: Array
    z: Array | None = None
    du_sq: Array | None = field(default=None, init=False, repr=False, compare=False)
    moved: set = field(default_factory=set, init=False, repr=False, compare=False)
    du_for: tuple | None = field(default=None, init=False, repr=False, compare=False)
    radius: float = field(default=TRUST_RADIUS, init=False, repr=False, compare=False)


def clone_state(state: SolverState) -> SolverState:
    clone = SolverState(
        t=state.t,
        x=state.x.copy(),
        u=state.u.copy(),
        u_bar=state.u_bar.copy(),
        z=None if state.z is None else state.z.copy(),
    )
    clone.radius = state.radius
    if state.du_for is not None and state.du_for[0]() is state.u:
        clone.du_sq = state.du_sq.copy()
        clone.moved = set(state.moved)
        clone.du_for = (weakref.ref(clone.u), state.du_for[1])
    return clone


def initial_state(
    instance: ProblemInstance, x0: Array | None = None, track_z: bool = False
) -> SolverState:
    """Fresh state at x0 (origin by default).

    Components exposing exact gradients start with u_i = grad h_i(x0), which
    is the subgradient consistent with z_i = x0; the rest start at zero.
    """
    x = np.zeros(instance.d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (instance.d,):
        raise ConfigurationError(f"initial point has shape {x.shape}, needs ({instance.d},)")
    u = np.zeros((instance.n, instance.d))
    for i, oracle in enumerate(instance.h):
        if oracle.grad_at is not None:
            u[i] = oracle.grad_at(x)
    z = None
    if track_z:
        if any(o.grad_at is None for o in instance.h):
            raise ConfigurationError(
                "anchor tracking needs gradient access to every component"
            )
        z = np.tile(x, (instance.n, 1))
    return SolverState(t=0, x=x, u=u, u_bar=u.mean(axis=0), z=z)


# ---------------------------------------------------------------------------
# Parameter derivation


def derive_params(
    instance: ProblemInstance,
    dist: SamplingDistribution,
    schedule: StepsizeSchedule,
    p_hat: float | str = "theorem",
    track_z: bool = False,
) -> SolverParams:
    """Theorem-backed parameters for a problem, law, and schedule.

    ``p_hat="theorem"`` picks the largest admissible acceptance probability.
    An explicit float fixes the survival mass and the curvature transfer in
    closed form; it is honored when it stays within 1/(1 + gamma mu_hat) for
    that transfer and rejected otherwise, never silently adjusted.
    """
    if dist.n != instance.n:
        raise ConfigurationError(f"law over {dist.n} components, problem has {instance.n}")
    dist.validate_proper()
    tilde = dist.tilde_probs()
    p_empty = dist.empty_prob()
    mu_h = instance.mu_h
    L_h = instance.L_h
    n = instance.n
    # The canonical weights. With the canonical acceptance probability the
    # survival mass p_bar equals p_empty, which decouples the weights from
    # the curvature transfer.
    eta = 1.0 / (n * tilde * (1.0 - p_empty))

    if isinstance(schedule, Adaptive):
        return _derive_adaptive(instance, schedule, eta, p_empty, mu_h, p_hat, track_z)

    gamma = schedule.gamma
    if instance.f.L > 0 and gamma >= 2.0 / instance.f.L:
        raise HypothesisViolation(
            f"stepsize {gamma} not below 2/L_f = {2.0 / instance.f.L}"
        )
    mu_cap = transfer_cap(eta, mu_h, L_h)
    if p_hat == "theorem":
        return SolverParams(eta, 1.0 / (1.0 + gamma * mu_cap), p_empty, mu_cap,
                            schedule, track_z)

    accept = float(p_hat)
    if not 0.0 <= accept <= 1.0:
        raise HypothesisViolation(f"acceptance probability {accept} outside [0, 1]")
    # The weights scale with 1 - p_empty + p_bar, and the cap is linear in
    # them, so mu_hat = (1 - p_empty + p_bar) mu_cap with
    # p_bar = p_empty accept (1 + gamma mu_hat): one linear equation.
    slack = 1.0 - p_empty * accept * gamma * mu_cap
    if slack <= 0.0:
        raise HypothesisViolation(
            f"acceptance probability {accept} admits no curvature transfer: "
            f"p_empty * p_hat * gamma * mu_cap = {1.0 - slack} is not below 1"
        )
    mu_hat = (1.0 - p_empty + p_empty * accept) * mu_cap / slack
    p_bar = p_empty * accept * (1.0 + gamma * mu_hat)
    eta = (1.0 - p_empty + p_bar) / (n * tilde * (1.0 - p_empty))
    if accept > 1.0 / (1.0 + gamma * mu_hat) + 1e-12:
        raise HypothesisViolation(
            f"acceptance probability {accept} exceeds the admissible "
            f"{1.0 / (1.0 + gamma * mu_hat)} for this curvature transfer"
        )
    return SolverParams(eta, accept, p_bar, mu_hat, schedule, track_z)


def _derive_adaptive(instance, schedule, eta, p_empty, mu_h, p_hat, track_z):
    if p_empty > 0.0 and np.any(mu_h > 0):
        raise Unsupported(
            "decreasing stepsizes support either never-empty subsets or "
            "components without strong convexity, not both"
        )
    if p_hat not in ("theorem", 1, 1.0):
        raise HypothesisViolation(
            "decreasing stepsizes require accepting the forward-backward "
            "point on every empty round"
        )
    if p_empty == 0.0:
        # On this path the curvature transfer skips the harmonic factor:
        # components only need convexity, not smoothness.
        mu_hat = float(np.min(2.0 * eta * mu_h))
        mu_ref = max(instance.f.mu, instance.g.mu / 2.0, mu_hat / 2.0)
    else:
        mu_hat = 0.0
        mu_ref = max(instance.f.mu, instance.g.mu / 2.0)
    if mu_ref <= 0:
        raise HypothesisViolation(
            "decreasing stepsizes need strong convexity from f, g, or the components"
        )
    if abs(schedule.mu - mu_ref) > 1e-9 * mu_ref:
        raise HypothesisViolation(
            f"schedule curvature {schedule.mu} does not match the certified {mu_ref}"
        )
    gamma_prev = gamma_at(schedule, -1)
    if not math.isfinite(gamma_prev * gamma_prev):
        # the Lyapunov weights square the stepsize of t = -1
        raise ConfigurationError(
            f"schedule curvature {schedule.mu} is too small: the squared stepsize "
            f"{gamma_prev:g}^2 overflows float64"
        )
    smooth = instance.f.L + instance.f.mu
    if smooth > 0 and gamma_at(schedule, 0) > 2.0 / smooth + 1e-12:
        raise HypothesisViolation(
            f"initial stepsize {gamma_at(schedule, 0)} exceeds 2/(L_f + mu_f)"
        )
    return SolverParams(eta, 1.0, p_empty, mu_hat, schedule, track_z)


# ---------------------------------------------------------------------------
# The iteration


def _forward(instance: ProblemInstance, gamma: float, x: Array, u_bar: Array) -> Array:
    """prox_{gamma g}(x - gamma (grad f(x) + u_bar)); the zero f and identity g are
    told by their oracle functions, not by L_f = 0, which a linear f also has."""
    grad, prox = instance.f.grad, instance.g.prox
    v = x - gamma * (u_bar if grad is np.zeros_like else grad(x) + u_bar)
    return v if prox is _identity_prox else prox(gamma, v)


def _apply(
    state: SolverState,
    instance: ProblemInstance,
    params: SolverParams,
    members: tuple[int, ...],
    accept_when_empty: bool,
) -> None:
    gamma = gamma_at(params.schedule, state.t)
    xhat = _forward(instance, gamma, state.x, state.u_bar)
    if members:
        eta = params.eta
        u = state.u
        x_next = None
        du_sum = None
        for i in members:
            ge = gamma * eta[i]
            y = instance.h[i].prox(ge, xhat + ge * u[i])
            du = (xhat - y) / ge
            u[i] += du
            state.moved.add(i)
            if state.z is not None:
                state.z[i] = y
            if x_next is None:
                x_next, du_sum = y, du
            else:
                x_next += y
                du_sum += du
        state.x = x_next if len(members) == 1 else x_next / len(members)
        state.u_bar += du_sum / instance.n
    elif accept_when_empty:
        state.x = xhat
    state.t += 1
    _check_trust_region(state)


def _check_trust_region(state: SolverState) -> None:
    # one fused check: NaN fails the comparison, overflow lands on inf
    if not float(state.x @ state.x) <= state.radius**2:
        raise NumericalDivergence("iterate left the trust region", state.t)


def certify_radius(
    state: SolverState,
    instance: ProblemInstance,
    params: SolverParams,
    spec: LyapunovSpec,
) -> None:
    """Widen the state's trust radius to ``||x*|| + sqrt(K psi_0 / min(1, x weight))``.

    K is :data:`CERTIFIED_RADIUS_K`; the radius never falls below
    :data:`TRUST_RADIUS`. A certified run that stays inside its own
    certificate then trips the check with probability at most 1/K.
    """
    psi0 = lyapunov(state, instance, params, spec)
    reach = math.sqrt(float(instance.x_star @ instance.x_star)) + math.sqrt(
        CERTIFIED_RADIUS_K * psi0 / min(1.0, spec.x_weight))
    state.radius = max(TRUST_RADIUS, reach)


def step(
    state: SolverState,
    instance: ProblemInstance,
    params: SolverParams,
    dist: SamplingDistribution,
    rng: np.random.Generator,
) -> SolverState:
    """Advance the state by one iteration, in place.

    Stream use per call: one subset draw, plus one uniform for the
    acceptance coin on empty rounds (drawn even when the coin is
    deterministic, to keep streams aligned across parameter choices).
    """
    members = dist.sample(rng)
    accept = False
    if not members:
        accept = bool(rng.random() < params.p_hat)
    _apply(state, instance, params, members, accept)
    return state


def sq_dist(state: SolverState, instance: ProblemInstance) -> float:
    diff = state.x - instance.x_star
    return float(diff @ diff)


def _dual_sq(state: SolverState, instance: ProblemInstance) -> Array:
    """The state's ``du_sq``, recomputed only in the rows moved since the last call.

    It is rebuilt whole when ``state.u`` or ``instance.u_star`` is not the pair
    it was built for, and when more than an eighth of the rows moved, where
    gathering them costs more than one pass over all. A row of a C-ordered
    array sums to the same bits alone as in the full ``sum(axis=1)``, so a
    refreshed row equals a rebuilt one.
    """
    u, u_star = state.u, instance.u_star
    built = state.du_for
    if (built is None or built[0]() is not u or built[1]() is not u_star
            or 8 * len(state.moved) > len(u)):
        du = u - u_star
        state.du_sq = np.square(du, out=du).sum(axis=1)
        # a column-major difference sums in another order: never refresh it by row
        contiguous = du.flags.c_contiguous
        state.du_for = (weakref.ref(u), weakref.ref(u_star)) if contiguous else None
        state.moved.clear()
    elif state.moved:
        rows = list(state.moved)
        state.du_sq[rows] = np.square(u[rows] - u_star[rows]).sum(axis=1)
        state.moved.clear()
    return state.du_sq


def dual_error(state: SolverState, instance: ProblemInstance) -> float:
    """Largest per-component dual distance to the reference duals."""
    return float(np.sqrt(_dual_sq(state, instance).max()))


def _drive(
    state: SolverState,
    T: int,
    advance: Callable[[], None],
    emit: Callable[[], None],
    cadence: int | Callable[[int], bool] = 1,
    stop: Callable[[], bool] | None = None,
) -> int | None:
    """The run loop: T calls of ``advance``, each moving ``state`` one step.

    ``emit`` fires at the start t0 and then at every t selected by ``cadence``
    (an every-k integer or a predicate), always including t0 + T. ``stop`` is
    asked at the start and after every step; when it holds, the loop ends
    there, with that t emitted. Returns the iteration at which it stopped,
    None when it ran all T steps.
    """
    if T < 0:
        raise ConfigurationError(f"negative iteration count {T}")
    if isinstance(cadence, int):
        every = max(1, cadence)
        selected = lambda t: t % every == 0
    else:
        selected = cadence
    end = state.t + T
    emit()
    if stop is not None and stop():
        return state.t
    for _ in range(T):
        advance()
        if stop is not None and stop():
            emit()
            return state.t
        if state.t == end or selected(state.t):
            emit()
    return None


def run(
    instance: ProblemInstance,
    params: SolverParams,
    dist: SamplingDistribution,
    rng: np.random.Generator,
    T: int,
    sink: Callable[[int, float, float | None, float], None] | None = None,
    lyapunov_spec: "LyapunovSpec | None" = None,
    state: SolverState | None = None,
    cadence: int | Callable[[int], bool] = 1,
) -> SolverState:
    """Run T iterations, reporting (t, squared distance, Lyapunov, dual error).

    The sink fires at the start t0 (0 unless ``state`` is given) and then at
    every t selected by ``cadence`` (an every-k integer or a predicate),
    always including t0 + T. Metrics are only computed when the sink fires,
    so sparse cadences keep long runs cheap.
    """
    if state is None:
        state = initial_state(instance, track_z=params.track_z)
    if lyapunov_spec is not None:
        certify_radius(state, instance, params, lyapunov_spec)

    def emit():
        if sink is not None:
            psi = None
            if lyapunov_spec is not None:
                psi = lyapunov(state, instance, params, lyapunov_spec)
            sink(state.t, sq_dist(state, instance), psi, dual_error(state, instance))

    _drive(state, T, lambda: step(state, instance, params, dist, rng), emit, cadence)
    return state


# ---------------------------------------------------------------------------
# Lyapunov functions

LINEAR_SMOOTH = "linear_smooth"
LINEAR_SINGLE = "linear_single"
ACCEL_NONEMPTY = "accel_nonempty"
ACCEL_NO_CURVATURE = "accel_no_curvature"
SIMILARITY = "similarity"

_VARIANTS = (LINEAR_SMOOTH, LINEAR_SINGLE, ACCEL_NONEMPTY, ACCEL_NO_CURVATURE, SIMILARITY)


@dataclass(frozen=True)
class LyapunovSpec:
    """Precomputed weights of one certified Lyapunov function.

    Linear variants carry fixed weights and a contraction factor; the
    decreasing-stepsize variants recompute weights from the previous
    stepsize at evaluation time and carry an envelope ratio instead.
    """

    variant: str
    rho: float | None
    x_weight: float
    u_weights: Array | None
    adaptive_u_base: Array | None = None
    adaptive_x_mu: float = 0.0
    z_weight: float = 0.0
    envelope_ratio: Callable[[int], float] | None = None


def rate_inputs_from(
    instance: ProblemInstance,
    dist: SamplingDistribution,
    params: SolverParams,
) -> RateInputs:
    """Assemble rate-formula inputs from a problem, law, and derived parameters."""
    if not isinstance(params.schedule, Constant):
        raise HypothesisViolation("rate formulas apply to constant stepsizes only")
    return RateInputs(
        gamma=params.schedule.gamma,
        p=dist.inclusion_probs(),
        eta=params.eta,
        L_h=tuple(instance.L_h),
        mu_h=instance.mu_h,
        L_f=instance.f.L,
        mu_f=instance.f.mu,
        mu_g=instance.g.mu,
        mu_hat_h=params.mu_hat_h,
        p_empty=dist.empty_prob(),
        p_hat=params.p_hat,
        p_bar=params.p_bar,
        delta=instance.delta,
    )


def make_lyapunov_spec(
    variant: str,
    instance: ProblemInstance,
    dist: SamplingDistribution,
    params: SolverParams,
) -> LyapunovSpec:
    """Build the Lyapunov function certified for this configuration.

    Raises :class:`HypothesisViolation` when the requested variant does not
    cover the configuration (wrong schedule type, empty subsets where none
    are allowed, curvature where none is allowed, or n > 1 for the
    single-component variant).
    """
    if variant not in _VARIANTS:
        raise HypothesisViolation(f"unknown Lyapunov variant {variant!r}")
    p = dist.inclusion_probs()
    p_empty = dist.empty_prob()
    n = instance.n

    if variant in (ACCEL_NONEMPTY, ACCEL_NO_CURVATURE):
        if not isinstance(params.schedule, Adaptive):
            raise HypothesisViolation("decreasing-stepsize variant needs an adaptive schedule")
        sched = params.schedule
        if variant == ACCEL_NONEMPTY:
            if p_empty > 0:
                raise HypothesisViolation("this variant needs subsets that are never empty")
            x_mu = params.mu_hat_h
        else:
            if np.any(instance.mu_h > 0):
                raise HypothesisViolation("this variant needs components without strong convexity")
            x_mu = 0.0
        base = params.eta / (n * p)
        ratio = lambda t, a=sched.a: ((a - 1.0) / (a + t - 1.0)) ** 2
        return LyapunovSpec(
            variant=variant, rho=None, x_weight=1.0, u_weights=None,
            adaptive_u_base=base, adaptive_x_mu=x_mu, envelope_ratio=ratio,
        )

    if not isinstance(params.schedule, Constant):
        raise HypothesisViolation("linear-rate variant needs a constant stepsize")
    gamma = params.schedule.gamma
    inv_total = np.array([inverse_total_curvature(L, mu)
                          for L, mu in zip(instance.L_h, instance.mu_h.tolist())])
    if variant == LINEAR_SINGLE and n != 1:
        raise HypothesisViolation("the single-component variant needs n = 1")
    if variant == SIMILARITY:
        if instance.delta is None:
            raise HypothesisViolation("the similarity variant needs a known dissimilarity")
        if not params.track_z:
            raise HypothesisViolation("the similarity variant needs anchor tracking")
    ri = rate_inputs_from(instance, dist, params)
    x_w = 1.0 + gamma * params.mu_hat_h
    z_w = 0.0
    if variant == LINEAR_SMOOTH:
        rho = rho_theorem1(ri)
        growth = 1.0 - p_empty + params.p_bar
        u_w = (growth / n) * (gamma**2 * params.eta + 2.0 * gamma * inv_total) / p
    elif variant == LINEAR_SINGLE:
        rho = rho_n1_simple_g(ri)
        eta1 = float(params.eta[0])
        u_w = np.array([gamma**2 * eta1**2 + 2.0 * gamma * eta1 * float(inv_total[0])])
    else:  # SIMILARITY
        rho = rho_similarity(ri)
        p_s = float(p[0])
        mu_hat_f = forward_curvature(gamma, instance.f.mu, instance.f.L)
        mu_hat_h = harmonic_curvature(float(instance.mu_h[0]), instance.L_h[0])
        x_w = 1.0 - gamma * mu_hat_f / 2.0 + gamma * mu_hat_h / 2.0
        z_w = gamma * (mu_hat_f + mu_hat_h) / (2.0 * n * p_s)
        u_w = np.full(n, (gamma**2 + 2.0 * gamma * float(inv_total[0])) / (n * p_s))
    return LyapunovSpec(
        variant=variant, rho=rho, x_weight=x_w, u_weights=u_w, z_weight=z_w,
        envelope_ratio=lambda t, r=rho: r**t,
    )


def lyapunov(
    state: SolverState,
    instance: ProblemInstance,
    params: SolverParams,
    spec: LyapunovSpec,
) -> float:
    """Evaluate the certified Lyapunov function at the current state."""
    dx = state.x - instance.x_star
    du_sq = _dual_sq(state, instance)
    if spec.adaptive_u_base is not None:
        gamma_prev = gamma_at(params.schedule, state.t - 1)
        x_w = 1.0 + gamma_prev * spec.adaptive_x_mu
        return float(x_w * (dx @ dx) + gamma_prev**2 * (spec.adaptive_u_base @ du_sq))
    total = spec.x_weight * float(dx @ dx) + float(spec.u_weights @ du_sq)
    if spec.variant == SIMILARITY:
        if state.z is None:
            raise HypothesisViolation(
                "this Lyapunov function needs anchor tracking enabled in the run"
            )
        dz_sq = ((state.z - instance.x_star) ** 2).sum(axis=1)
        total += spec.z_weight * float(dz_sq.sum())
    return float(total)


def conditional_expected_lyapunov(
    state: SolverState,
    instance: ProblemInstance,
    params: SolverParams,
    dist: SamplingDistribution,
    spec: LyapunovSpec,
) -> float:
    """Exact one-step conditional expectation of the Lyapunov function.

    Enumerates every subset in the law's support and both branches of the
    acceptance coin; inherits the enumeration size limit of the law.
    """
    total = 0.0
    for members, prob in dist.enumerate_support():
        if prob == 0.0:
            continue
        if members:
            branch = clone_state(state)
            _apply(branch, instance, params, members, False)
            total += prob * lyapunov(branch, instance, params, spec)
        else:
            for accept, weight in ((True, params.p_hat), (False, 1.0 - params.p_hat)):
                if weight == 0.0:
                    continue
                branch = clone_state(state)
                _apply(branch, instance, params, members, accept)
                total += prob * weight * lyapunov(branch, instance, params, spec)
    return total


# ---------------------------------------------------------------------------
# Importance sampling and single-index reference step


def importance_plan(L_h, mu_f: float, mu_g: float, L_f: float = 0.0):
    """Singleton weights and stepsize biased toward the stiffest components.

    Valid for components without strong convexity. Returns the raw scores,
    the normalized weights, and the stepsize.
    """
    strength = mu_f + mu_g
    if strength <= 0:
        raise HypothesisViolation("importance weights need curvature from f or g")
    if any(is_infinite(x) for x in L_h):
        raise HypothesisViolation("importance weights need finite component smoothness")
    L = np.asarray([float(x) for x in L_h], dtype=np.float64)
    if np.any(L < 0):
        raise HypothesisViolation("negative smoothness constant")
    n = L.size
    b = np.maximum(1.0, np.sqrt(L / (n * strength)))
    weights = b / b.sum()
    top = float(L.max())
    if top > 0:
        scale = max(math.sqrt(n / (top * strength)), 1.0 / strength)
    else:
        scale = 1.0 / strength
    gamma = scale / b.sum()
    if L_f > 0:
        gamma = min(1.0 / L_f, gamma)
    return b, weights, gamma


def point_saga_step(
    x: Array,
    u: Array,
    j: int,
    gamma: float,
    h,
) -> tuple[Array, Array]:
    """One step of the single-index proximal baseline, as a reference oracle."""
    z = x + gamma * (u[j] - u.mean(axis=0))
    x_next = h[j].prox(gamma, z)
    u_next = u.copy()
    # the prox gradient at x_next; z already carries the old u_j
    u_next[j] = (z - x_next) / gamma
    return x_next, u_next