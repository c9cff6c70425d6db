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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, HypothesisViolation
from .problems import Curvature, INFINITE, harmonic_curvature, is_infinite
from .sampling import UniformMinibatch, compressed_view

Array = np.ndarray

_TOL = 1e-9


class _VeryLargeGamma:
    """Sentinel for 'any sufficiently large stepsize works' prescriptions."""

    def __repr__(self) -> str:
        return "VERY_LARGE_GAMMA"

    def __reduce__(self):
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

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=np.float64))
        object.__setattr__(self, "mu_h", np.asarray(self.mu_h, dtype=np.float64))
        object.__setattr__(self, "L_h", tuple(self.L_h))
        m = self.p.size
        if not (self.eta.size == m and self.mu_h.size == m and len(self.L_h) == m):
            raise HypothesisViolation("per-component inputs disagree on n")

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


def _forward_edge(gamma: float, mu_f: float, L_f: float) -> float:
    """Lipschitz factor of the forward step x - gamma grad f(x)."""
    return max(1.0 - gamma * mu_f, gamma * L_f - 1.0)


def forward_curvature(gamma: float, mu_f: float, L_f: float) -> float:
    """The curvature mu_hat_f = (1 - edge^2) / gamma the forward step transfers."""
    return (1.0 - _forward_edge(gamma, mu_f, L_f) ** 2) / gamma


def _distance_term(ri: RateInputs) -> float:
    """Contraction of the squared distance part, shared by the linear results."""
    return (
        ri.p_empty * (1.0 - ri.p_hat)
        + (1.0 - ri.p_empty + ri.p_bar)
        * _forward_edge(ri.gamma, ri.mu_f, ri.L_f) ** 2
        / ((1.0 + ri.gamma * ri.mu_g) * (1.0 + ri.gamma * ri.mu_hat_h))
    )


def transfer_cap(eta: Array, mu_h: Array, L_h) -> float:
    """The largest admissible curvature transfer: min_i eta_i 2 mu_i L_i / (L_i + mu_i)."""
    return min(
        float(eta[i]) * harmonic_curvature(float(mu_h[i]), L_h[i])
        for i in range(len(L_h))
    )


def _factor(terms: tuple[float, float]) -> float:
    """The contraction factor of a bound: its larger term, refused unless below 1."""
    rho = max(terms)
    if not rho < 1.0:
        raise HypothesisViolation(f"no contraction: factor evaluates to {rho}")
    return rho


def theorem_terms(ri: RateInputs) -> tuple[float, float]:
    """(distance term, dual term) of the general linear-rate bound."""
    _check_common(ri)
    if any(is_infinite(L) for L in ri.L_h):
        raise HypothesisViolation(
            "the general linear rate needs a finite smoothness constant "
            "for every component"
        )
    _check_strong_source(ri.mu_f, ri.mu_g, ri.mu_hat_h)
    cap = transfer_cap(ri.eta, ri.mu_h, ri.L_h)
    if ri.mu_hat_h > cap + _TOL:
        raise HypothesisViolation(f"mu_hat {ri.mu_hat_h} exceeds its admissible cap {cap}")
    _check_p_hat_bound(ri)
    dual = 1.0 - min(
        2.0 * float(ri.p[i]) / (ri.gamma * float(ri.eta[i]) * (ri.L_h[i] + float(ri.mu_h[i])) + 2.0)
        for i in range(ri.size)
    )
    return _distance_term(ri), dual


def rho_theorem1(ri: RateInputs) -> float:
    """Certified contraction factor of the general linear-rate result."""
    return _factor(theorem_terms(ri))


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
    cap = transfer_cap(ri.eta, ri.mu_h, ri.L_h)
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
    return _factor(single_component_terms(ri))


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
    # in (0, 1] by _check_common
    p_s = _uniform_scalar(ri.p, "inclusion probability")
    if not is_infinite(L) and ri.delta > L + _TOL:
        raise HypothesisViolation("dissimilarity cannot exceed the shared smoothness constant")
    _check_strong_source(ri.mu_f, mu_h)
    mu_hat_h = harmonic_curvature(mu_h, L)
    mu_hat_f = forward_curvature(ri.gamma, ri.mu_f, ri.L_f)
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
    return _factor(similarity_terms(ri))


def rate_report(ri: RateInputs) -> dict:
    """The general linear-rate factor plus its per-term breakdown, for display."""
    distance, dual = theorem_terms(ri)
    rho = _factor((distance, dual))
    return {
        "kind": "theorem",
        "rho": rho,
        "terms": {"distance": distance, "dual": dual},
        "binding": "distance" if distance >= dual else "dual",
    }


# ---------------------------------------------------------------------------
# Stepsize plans


@dataclass(frozen=True)
class StepsizePlan:
    """A prescribed stepsize and the iteration complexity it certifies."""

    gamma: float | _VeryLargeGamma
    complexity: float


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


def fed_plan(
    n: int, d: int, k: int, s: int, L_h: float, mu_h: float, gamma: float | None = None
) -> StepsizePlan:
    """Stepsize choice for the compressed federated variant, f absent.

    A given ``gamma`` replaces the planned stepsize, and the complexity is
    then that of the given stepsize. Both depend on the law only through the
    probability that a coordinate gets no correction, the empty probability
    of :func:`multiprox.sampling.compressed_view` for size-s participation.
    """
    if mu_h <= 0:
        raise HypothesisViolation("the federated plan needs strongly convex components")
    if is_infinite(L_h) or L_h <= 0:
        raise HypothesisViolation("the federated plan needs finite positive smoothness")
    if not 1 <= k <= d or not 1 <= s <= n:
        raise HypothesisViolation(f"need 1 <= k <= d and 1 <= s <= n, got k={k}, s={s}")
    active = 1.0 - compressed_view(UniformMinibatch(n, s), k, d).empty_prob()
    if gamma is None:
        curvature = d * n * L_h * mu_h
        # an under- or overflowed curvature plans a stepsize of 0, refused below
        gamma = math.sqrt(k * s * active / curvature) if 0 < curvature < math.inf else 0.0
    terms = (gamma * mu_h, d * n * gamma * L_h / (k * s * active))
    if not all(0 < term < math.inf for term in terms):
        raise ConfigurationError(
            f"federated stepsize {gamma:g} with L_h = {L_h:g} and mu_h = {mu_h:g}: "
            "its rate terms under- or overflow float64"
        )
    iteration = 1.0 / terms[0] + 1.0 / active + d * n / (k * s) + terms[1]
    return StepsizePlan(gamma=gamma, complexity=iteration)
