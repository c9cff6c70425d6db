"""Closed-form contraction factors and stepsize plans.

Everything here is arithmetic on problem constants; no iterates are touched.
Each ``rho_*`` function validates the hypotheses of the guarantee it
implements and raises :class:`HypothesisViolation` otherwise, so a returned
value is always an actual certified factor in (0, 1).

Unbounded smoothness constants enter through the :data:`INFINITE` sentinel
and take their stated limiting forms; no IEEE infinities are produced or
consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolation
from .problems import Curvature, INFINITE, harmonic_curvature, is_infinite

Array = np.ndarray

_TOL = 1e-9


class _VeryLargeGamma:
    """Sentinel for 'any sufficiently large stepsize works' prescriptions."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "VERY_LARGE_GAMMA"


VERY_LARGE_GAMMA = _VeryLargeGamma()


@dataclass(frozen=True)
class RateInputs:
    """Constants feeding the rate formulas.

    Per-component vectors must share one length n. ``L_h`` entries may be
    :data:`INFINITE`. The redundant scalars (p_bar in particular) are taken
    as inputs rather than recomputed so that a caller's parameter choices
    are validated, not silently replaced.
    """

    gamma: float
    p: Array
    eta: Array
    L_h: tuple[Curvature, ...]
    mu_h: Array
    L_f: float = 0.0
    mu_f: float = 0.0
    mu_g: float = 0.0
    mu_hat_h: float = 0.0
    p_empty: float = 0.0
    p_hat: float = 1.0
    p_bar: float = 0.0
    delta: float | None = None
    p_s: float | None = None
    s: int | None = None
    n: int | None = None
    k: int | None = None
    d: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=np.float64))
        object.__setattr__(self, "mu_h", np.asarray(self.mu_h, dtype=np.float64))
        object.__setattr__(self, "L_h", tuple(self.L_h))
        m = self.p.size
        if not (self.eta.size == m and self.mu_h.size == m and len(self.L_h) == m):
            raise HypothesisViolation("per-component inputs disagree on n")
        if self.n is None:
            object.__setattr__(self, "n", m)

    @property
    def size(self) -> int:
        return self.p.size


def _check_common(ri: RateInputs) -> None:
    if ri.gamma <= 0:
        raise HypothesisViolation(f"stepsize must be positive, got {ri.gamma}")
    if ri.L_f > 0 and ri.gamma >= 2.0 / ri.L_f - 1e-15:
        raise HypothesisViolation(
            f"stepsize {ri.gamma} not below 2/L_f = {2.0 / ri.L_f}"
        )
    if not 0.0 <= ri.p_empty < 1.0:
        raise HypothesisViolation(f"empty probability {ri.p_empty} outside [0, 1)")
    if not 0.0 <= ri.p_hat <= 1.0:
        raise HypothesisViolation(f"acceptance probability {ri.p_hat} outside [0, 1]")
    if np.any(ri.p <= 0) or np.any(ri.p > 1):
        raise HypothesisViolation("inclusion probabilities must lie in (0, 1]")
    if np.any(ri.eta <= 0):
        raise HypothesisViolation("relaxation weights must be positive")
    if np.any(ri.mu_h < 0) or ri.mu_f < 0 or ri.mu_g < 0 or ri.mu_hat_h < 0:
        raise HypothesisViolation("curvature constants must be nonnegative")


def _check_p_hat_bound(ri: RateInputs) -> None:
    cap = 1.0 / (1.0 + ri.gamma * ri.mu_hat_h)
    if ri.p_hat > cap + _TOL:
        raise HypothesisViolation(
            f"acceptance probability {ri.p_hat} exceeds 1/(1 + gamma mu_hat) = {cap}"
        )
    expected = ri.p_empty * ri.p_hat * (1.0 + ri.gamma * ri.mu_hat_h)
    if abs(ri.p_bar - expected) > _TOL * (1.0 + abs(expected)):
        raise HypothesisViolation(
            f"inconsistent p_bar: got {ri.p_bar}, definition gives {expected}"
        )


def _check_strong_source(*mus: float) -> None:
    if all(m <= 0 for m in mus):
        raise HypothesisViolation(
            "linear rate needs strong convexity from at least one term"
        )


def _distance_term(ri: RateInputs) -> float:
    """Contraction of the squared distance part, shared by the linear results."""
    edge = max(1.0 - ri.gamma * ri.mu_f, ri.gamma * ri.L_f - 1.0)
    return (
        ri.p_empty * (1.0 - ri.p_hat)
        + (1.0 - ri.p_empty + ri.p_bar)
        * edge**2
        / ((1.0 + ri.gamma * ri.mu_g) * (1.0 + ri.gamma * ri.mu_hat_h))
    )


def _mu_hat_cap(ri: RateInputs) -> float:
    return min(
        ri.eta[i] * harmonic_curvature(float(ri.mu_h[i]), ri.L_h[i])
        for i in range(ri.size)
    )


def theorem_terms(ri: RateInputs) -> tuple[float, float]:
    """(distance term, dual term) of the general linear-rate bound."""
    _check_common(ri)
    if any(is_infinite(L) for L in ri.L_h):
        raise HypothesisViolation(
            "the general linear rate needs a finite smoothness constant "
            "for every component"
        )
    _check_strong_source(ri.mu_f, ri.mu_g, ri.mu_hat_h)
    if ri.mu_hat_h > _mu_hat_cap(ri) + _TOL:
        raise HypothesisViolation(
            f"mu_hat {ri.mu_hat_h} exceeds its admissible cap {_mu_hat_cap(ri)}"
        )
    _check_p_hat_bound(ri)
    dual = 1.0 - min(
        2.0 * float(ri.p[i]) / (ri.gamma * float(ri.eta[i]) * (ri.L_h[i] + float(ri.mu_h[i])) + 2.0)
        for i in range(ri.size)
    )
    return _distance_term(ri), dual


def rho_theorem1(ri: RateInputs) -> float:
    """Certified contraction factor of the general linear-rate result."""
    first, second = theorem_terms(ri)
    rho = max(first, second)
    if not rho < 1.0:
        raise HypothesisViolation(f"no contraction: factor evaluates to {rho}")
    return rho


def single_component_terms(ri: RateInputs) -> tuple[float, float]:
    """Terms of the sharper n = 1 bound with a squared-norm g."""
    _check_common(ri)
    if ri.size != 1:
        raise HypothesisViolation("the single-component bound needs exactly n = 1")
    eta_required = (1.0 - ri.p_empty + ri.p_bar) / (1.0 - ri.p_empty)
    if abs(float(ri.eta[0]) - eta_required) > _TOL * (1.0 + eta_required):
        raise HypothesisViolation(
            f"relaxation weight must equal {eta_required}, got {float(ri.eta[0])}"
        )
    L, mu = ri.L_h[0], float(ri.mu_h[0])
    cap = float(ri.eta[0]) * harmonic_curvature(mu, L)
    if ri.mu_hat_h > cap + _TOL:
        raise HypothesisViolation(f"mu_hat {ri.mu_hat_h} exceeds its cap {cap}")
    _check_strong_source(ri.mu_f, ri.mu_g, ri.mu_hat_h)
    _check_p_hat_bound(ri)
    keep = 1.0 - ri.p_empty
    growth = 1.0 - ri.p_empty + ri.p_bar
    shrink_g = 1.0 + ri.gamma * ri.mu_g
    if is_infinite(L):
        dual = 1.0 - keep**2 / (growth * shrink_g)
    else:
        total = ri.gamma * (L + mu)
        dual = 1.0 - keep**2 * (2.0 * shrink_g + total) / (
            (growth * total + 2.0 * keep) * shrink_g
        )
    return _distance_term(ri), dual


def rho_n1_simple_g(ri: RateInputs) -> float:
    first, second = single_component_terms(ri)
    rho = max(first, second)
    if not rho < 1.0:
        raise HypothesisViolation(f"no contraction: factor evaluates to {rho}")
    return rho


def _uniform_scalar(values: Array, what: str) -> float:
    v0 = float(values[0])
    if not np.allclose(values, v0, rtol=1e-12, atol=1e-12):
        raise HypothesisViolation(f"{what} must be identical across components")
    return v0


def _uniform_L(L_h: tuple[Curvature, ...]) -> Curvature:
    L0 = L_h[0]
    infinite = [is_infinite(L) for L in L_h]
    if any(infinite):
        if not all(infinite):
            raise HypothesisViolation("smoothness constants must be identical across components")
        return INFINITE
    if not np.allclose([float(L) for L in L_h], float(L0), rtol=1e-12, atol=1e-12):
        raise HypothesisViolation("smoothness constants must be identical across components")
    return L0


def similarity_terms(ri: RateInputs) -> tuple[float, float]:
    """Terms of the similarity-aware bound for homogeneous components, g = 0."""
    _check_common(ri)
    if ri.delta is None:
        raise HypothesisViolation("the similarity bound needs a known dissimilarity delta")
    if ri.delta < 0:
        raise HypothesisViolation(f"negative dissimilarity {ri.delta}")
    if ri.mu_g != 0.0:
        raise HypothesisViolation("the similarity bound assumes no simple term")
    if ri.p_empty != 0.0:
        raise HypothesisViolation("the similarity bound assumes subsets are never empty")
    if not np.allclose(ri.eta, 1.0, atol=1e-12):
        raise HypothesisViolation("the similarity bound fixes all relaxation weights to 1")
    mu_h = _uniform_scalar(ri.mu_h, "component curvature")
    L = _uniform_L(ri.L_h)
    p_s = ri.p_s if ri.p_s is not None else _uniform_scalar(ri.p, "inclusion probability")
    if not 0.0 < p_s <= 1.0:
        raise HypothesisViolation(f"participation probability {p_s} outside (0, 1]")
    if not is_infinite(L) and ri.delta > L + _TOL:
        raise HypothesisViolation("dissimilarity cannot exceed the shared smoothness constant")
    _check_strong_source(ri.mu_f, mu_h)
    mu_hat_h = harmonic_curvature(mu_h, L)
    edge = max(1.0 - ri.gamma * ri.mu_f, ri.gamma * ri.L_f - 1.0)
    mu_hat_f = (1.0 - edge**2) / ri.gamma
    first = (2.0 - 2.0 * ri.gamma * mu_hat_f) / (
        2.0 - ri.gamma * mu_hat_f + ri.gamma * mu_hat_h
    )
    strength = mu_hat_f + mu_hat_h
    dsq = ri.delta**2
    if is_infinite(L):
        second = 1.0 - p_s * strength / (strength + 2.0 * dsq * ri.gamma)
    else:
        total = L + mu_h
        second = 1.0 - p_s * (strength * total + 4.0 * dsq) / (
            strength * total + 4.0 * dsq + 2.0 * dsq * ri.gamma * total
        )
    return first, second


def rho_similarity(ri: RateInputs) -> float:
    first, second = similarity_terms(ri)
    rho = max(first, second)
    if not rho < 1.0:
        raise HypothesisViolation(f"no contraction: factor evaluates to {rho}")
    return rho


_TERM_FUNCS = {
    "theorem": theorem_terms,
    "single": single_component_terms,
    "similarity": similarity_terms,
}


def rate_report(kind: str, ri: RateInputs) -> dict:
    """Factor plus per-term breakdown, for display."""
    if kind not in _TERM_FUNCS:
        raise HypothesisViolation(f"unknown rate kind {kind!r}")
    distance, dual = _TERM_FUNCS[kind](ri)
    rho = max(distance, dual)
    if not rho < 1.0:
        raise HypothesisViolation(f"no contraction: factor evaluates to {rho}")
    return {
        "kind": kind,
        "rho": rho,
        "terms": {"distance": distance, "dual": dual},
        "binding": "distance" if distance >= dual else "dual",
    }


# ---------------------------------------------------------------------------
# Stepsize plans


@dataclass(frozen=True)
class StepsizePlan:
    """A prescribed stepsize and the complexity factor it certifies."""

    gamma: float | _VeryLargeGamma
    complexity: float
    extras: dict = field(default_factory=dict)


def uniform_minibatch_plan(
    n: int, s: int, L_f: float, max_L_h: Curvature, mu_total: float
) -> StepsizePlan:
    """Stepsize choice for uniform minibatches of size s.

    ``mu_total`` is the summed curvature mu_f + mu_g + min_i mu_hi; it must
    be positive for the plan to certify anything.
    """
    if mu_total <= 0:
        raise HypothesisViolation("the minibatch plan needs positive total curvature")
    if is_infinite(max_L_h):
        raise HypothesisViolation("the minibatch plan needs finite component smoothness")
    if not 1 <= s <= n:
        raise HypothesisViolation(f"need 1 <= s <= n, got s={s}, n={n}")
    candidates = []
    if L_f > 0:
        candidates.append(1.0 / L_f)
    if max_L_h > 0:
        candidates.append(math.sqrt(s / (n * max_L_h * mu_total)))
    if not candidates:
        return StepsizePlan(gamma=VERY_LARGE_GAMMA, complexity=n / s)
    gamma = min(candidates)
    complexity = (
        L_f / mu_total
        + math.sqrt(n * max_L_h / (s * mu_total))
        + n / s
    )
    return StepsizePlan(gamma=gamma, complexity=complexity)


def similarity_plan(
    L_f: float, L_h: Curvature, mu_f: float, mu_h: float, delta: float, p_s: float
) -> StepsizePlan:
    """Stepsize choice exploiting component similarity."""
    strength = mu_f + mu_h
    if strength <= 0:
        raise HypothesisViolation("the similarity plan needs positive curvature")
    if not 0.0 < p_s <= 1.0:
        raise HypothesisViolation(f"participation probability {p_s} outside (0, 1]")
    if delta < 0:
        raise HypothesisViolation(f"negative dissimilarity {delta}")
    if is_infinite(L_h):
        denom = delta
        smooth_part = None
    else:
        smooth_part = math.sqrt(L_h * strength)
        denom = min(delta, smooth_part)
    candidates = []
    if L_f > 0:
        candidates.append(1.0 / L_f)
    if denom > 0:
        candidates.append(math.sqrt(p_s) / denom)
    gamma = min(candidates) if candidates else VERY_LARGE_GAMMA
    if smooth_part is None:
        mixing = delta / strength
    else:
        mixing = min(delta / strength, math.sqrt(L_h / strength))
    complexity = L_f / strength + mixing / math.sqrt(p_s) + 1.0 / p_s
    return StepsizePlan(gamma=gamma, complexity=complexity)


def fed_plan(
    n: int, d: int, k: int, s: int, L_h: float, mu_h: float, gamma: float | None = None
) -> StepsizePlan:
    """Stepsize choice for the compressed federated variant, f absent.

    A given ``gamma`` replaces the planned stepsize, and the complexity is
    then that of the given stepsize. Extras carry the effective empty
    probability and the expected-communication factor (uplink reals counted
    in parallel across clients).
    """
    if mu_h <= 0:
        raise HypothesisViolation("the federated plan needs strongly convex components")
    if is_infinite(L_h) or L_h <= 0:
        raise HypothesisViolation("the federated plan needs finite positive smoothness")
    if not 1 <= k <= d or not 1 <= s <= n:
        raise HypothesisViolation(f"need 1 <= k <= d and 1 <= s <= n, got k={k}, s={s}")
    p_check = (1.0 - k / d) ** s
    active = 1.0 - p_check
    if gamma is None:
        gamma = math.sqrt(k * s * active / (d * n * L_h * mu_h))
    iteration = (
        1.0 / (gamma * mu_h)
        + 1.0 / active
        + d * n / (k * s)
        + d * n * gamma * L_h / (k * s * active)
    )
    return StepsizePlan(
        gamma=gamma,
        complexity=iteration,
        extras={
            "p_check_empty": p_check,
            "communication": active * k * iteration,
        },
    )


def stepsize_plans(ri: RateInputs) -> dict[str, StepsizePlan]:
    """Every plan whose hypotheses the inputs satisfy, keyed by plan name."""
    plans: dict[str, StepsizePlan] = {}
    finite_L = [L for L in ri.L_h if not is_infinite(L)]
    all_finite = len(finite_L) == ri.size
    s = ri.s
    if s is None and np.allclose(ri.p, ri.p[0], atol=1e-12):
        inferred = float(ri.p[0]) * ri.size
        if abs(inferred - round(inferred)) < 1e-9:
            s = int(round(inferred))
    mu_total = ri.mu_f + ri.mu_g + float(ri.mu_h.min())
    if s is not None and all_finite and mu_total > 0:
        plans["uniform_minibatch"] = uniform_minibatch_plan(
            ri.size, s, ri.L_f, max(finite_L), mu_total
        )
    if ri.delta is not None:
        try:
            mu_h = _uniform_scalar(ri.mu_h, "component curvature")
            L = _uniform_L(ri.L_h)
            p_s = ri.p_s if ri.p_s is not None else _uniform_scalar(ri.p, "inclusion probability")
            plans["similarity"] = similarity_plan(ri.L_f, L, ri.mu_f, mu_h, ri.delta, p_s)
        except HypothesisViolation:
            pass
    if (
        ri.k is not None and ri.d is not None and s is not None
        and ri.L_f == 0.0 and all_finite
    ):
        try:
            mu_h = _uniform_scalar(ri.mu_h, "component curvature")
            L = _uniform_scalar(np.asarray([float(x) for x in ri.L_h]), "component smoothness")
            plans["federated"] = fed_plan(ri.n, ri.d, ri.k, s, L, mu_h)
        except HypothesisViolation:
            pass
    if not plans:
        raise HypothesisViolation("no stepsize plan applies to these inputs")
    return plans