"""Problem oracles, generators, and closed-form proximal maps.

A problem is a triple (f, g, h_1..h_n): one smooth term accessed through its
gradient, one simple term and n component terms accessed through proximal
maps. Instances carry their own reference solution (x*, u*) so that solver
runs can report exact distances and dual errors without re-solving anything.

Smoothness constants may be genuinely absent. That case is represented by
the :data:`INFINITE` sentinel, never by ``float('inf')``, so that rate
formulas can take the stated limits symbolically instead of relying on IEEE
arithmetic to cancel infinities.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, HypothesisViolation
from .rng import generator

Array = np.ndarray

_ORTHO_TOL = 1e-10
_OPT_RESIDUAL_TOL = 1e-8

# The largest share of d a round's padded kept rows may take; see
# ProblemInstance.kept_rows, the one reader.
KEPT_ROWS_MAX_SHARE = 0.2

# The member eigenbasis bytes past which a stacked prox round is split
# across two cores; see ProblemInstance.prox_rows, the one reader.
_SPLIT_MIN_BYTES = 5 << 20

# The one helper thread of split rounds, made on the first split.
_helper = None


def _split_helper():
    """The helper thread's executor, made on the first call; None while this
    process may use only one CPU."""
    global _helper
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return None
    if _helper is None:
        from concurrent.futures import ThreadPoolExecutor
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="multiprox-prox")
    return _helper


def _drop_helper() -> None:
    # a forked child inherits the executor but not its thread
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_drop_helper)


class _Infinite:
    """Symbolic 'no finite smoothness constant'. Compares equal only to itself."""

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        return "INFINITE"


INFINITE = _Infinite()

Curvature = float | _Infinite


def is_infinite(value: Curvature) -> bool:
    return isinstance(value, _Infinite)


def harmonic_curvature(mu: float, L: Curvature) -> float:
    """2*mu*L / (L + mu), taken as 2*mu in the limit of unbounded L."""
    if is_infinite(L):
        return 2.0 * mu
    if L + mu == 0.0:
        return 0.0
    return 2.0 * mu * L / (L + mu)


def inverse_total_curvature(L: Curvature, mu: float) -> float:
    """1 / (L + mu), taken as 0 in the limit of unbounded L; refused at L = mu = 0."""
    if is_infinite(L):
        return 0.0
    if L + mu <= 0:
        raise HypothesisViolation("inverse total curvature needs L + mu > 0")
    return 1.0 / (L + mu)


# ---------------------------------------------------------------------------
# Oracles


@dataclass(frozen=True)
class SmoothOracle:
    """Gradient access to a smooth convex function.

    ``L`` is a valid Lipschitz constant of the gradient and ``mu`` a valid
    strong convexity constant; both may be 0 (the zero function is the common
    case). Instances are treated as immutable.
    """

    grad: Callable[[Array], Array]
    L: float
    mu: float

    def __post_init__(self):
        if self.L < 0 or self.mu < 0 or self.mu > self.L + 1e-12:
            raise ConfigurationError(
                f"need 0 <= mu <= L for a smooth oracle, got mu={self.mu}, L={self.L}"
            )


@dataclass(frozen=True)
class ProxOracle:
    """Proximal access to a convex function.

    ``prox(gamma, v)`` returns argmin_y h(y) + ||y - v||^2 / (2 gamma) for
    gamma > 0. ``L`` is a smoothness constant or :data:`INFINITE` when none
    exists. ``grad_at`` is only available for smooth components and returns
    the exact gradient; solvers use it to initialize dual variables.
    """

    prox: Callable[[float, Array], Array]
    mu: float = 0.0
    L: Curvature = INFINITE
    grad_at: Callable[[Array], Array] | None = None

    def __post_init__(self):
        if self.mu < 0:
            raise ConfigurationError(f"negative strong convexity constant {self.mu}")
        if not is_infinite(self.L) and self.L < self.mu - 1e-12:
            raise ConfigurationError(f"need mu <= L, got mu={self.mu}, L={self.L}")


def _identity_prox(gamma: float, v: Array) -> Array:
    return v


def zero_smooth() -> SmoothOracle:
    """The zero function as a smooth oracle."""
    return SmoothOracle(grad=np.zeros_like, L=0.0, mu=0.0)


def zero_prox() -> ProxOracle:
    """The zero function as a prox oracle (prox is the identity)."""
    return ProxOracle(prox=_identity_prox, mu=0.0, L=0.0, grad_at=np.zeros_like)


def scaled_sqnorm_prox(mu: float, gamma: float, v: Array) -> Array:
    """Prox of (mu/2)||.||^2: a pure shrinkage by 1/(1 + gamma mu)."""
    return v / (1.0 + gamma * mu)


def scaled_sqnorm(mu: float) -> ProxOracle:
    if mu < 0:
        raise ConfigurationError(f"negative curvature {mu}")
    return ProxOracle(
        prox=partial(scaled_sqnorm_prox, mu),
        mu=mu,
        L=mu,
        grad_at=lambda x: mu * x,
    )


# ---------------------------------------------------------------------------
# Quadratics in spectral form


@dataclass(frozen=True)
class QuadraticForm:
    """h(x) = x' A x / 2 - b' x with A = Q diag(lam) Q' given spectrally.

    Q must have orthonormal columns (checked to 1e-10) and lam must be
    nonnegative, which keeps every prox solvable by a diagonal rescale in the
    eigenbasis.
    """

    Q: Array
    lam: Array
    b: Array

    def __post_init__(self):
        d = self.Q.shape[0]
        if self.Q.shape != (d, d) or self.lam.shape != (d,) or self.b.shape != (d,):
            raise ConfigurationError(
                f"inconsistent shapes Q{self.Q.shape}, lam{self.lam.shape}, b{self.b.shape}"
            )
        gram_defect = np.abs(self.Q.T @ self.Q - np.eye(d)).max()
        if gram_defect > _ORTHO_TOL:
            raise ConfigurationError(
                f"Q columns not orthonormal (defect {gram_defect:.3e})"
            )
        if np.any(self.lam < 0):
            raise ConfigurationError("negative eigenvalue in quadratic form")

    @property
    def d(self) -> int:
        return self.Q.shape[0]

    def matvec(self, x: Array) -> Array:
        return self.Q @ (self.lam * (self.Q.T @ x))

    def gradient(self, x: Array) -> Array:
        return self.matvec(x) - self.b

    def dense(self) -> Array:
        return (self.Q * self.lam) @ self.Q.T

    def as_oracle(self, mu: float | None = None, L: Curvature | None = None) -> ProxOracle:
        """Prox oracle with nominal constants; defaults are the exact spectral ones."""
        return ProxOracle(
            prox=partial(quadratic_prox, self),
            mu=float(self.lam.min()) if mu is None else mu,
            L=float(self.lam.max()) if L is None else L,
            grad_at=self.gradient,
        )


def quadratic_prox(form: QuadraticForm, gamma: float, v: Array) -> Array:
    """Prox of a spectral quadratic: solve (I + gamma A) y = v + gamma b."""
    if gamma <= 0:
        raise ConfigurationError(f"prox needs gamma > 0, got {gamma}")
    w = form.Q.T @ (v + gamma * form.b)
    return form.Q @ (w / (1.0 + gamma * form.lam))


def hyperplane_ridge_prox(w: Array, offset: float, mu: float, gamma: float, v: Array,
                          *, wnorm2: float) -> Array:
    """Prox of the indicator of {x : w'x = offset} plus (mu/2)||x||^2.

    Shrink toward the origin, then project the shrunk point back onto the
    hyperplane along w, whose squared norm ``wnorm2`` an oracle binds once.
    """
    if gamma <= 0:
        raise ConfigurationError(f"prox needs gamma > 0, got {gamma}")
    c = 1.0 + gamma * mu
    return v / c - (float(w @ v) - offset * c) * w / (c * wnorm2)


def hyperplane_ridge(w: Array, offset: float, mu: float) -> ProxOracle:
    wnorm2 = float(w @ w)
    if wnorm2 == 0.0:
        raise ConfigurationError("hyperplane normal is zero")
    return ProxOracle(
        prox=partial(hyperplane_ridge_prox, w, offset, mu, wnorm2=wnorm2),
        mu=mu,
        L=INFINITE,
        grad_at=None,
    )


# ---------------------------------------------------------------------------
# Problem instances


@dataclass(frozen=True)
class ProblemInstance:
    """A full problem with its reference solution.

    ``x_star`` minimizes f + g + mean(h_i); ``u_star`` holds one optimal dual
    vector per component, row i lying in the subdifferential of h_i at
    ``x_star`` with grad f(x*) + mean(u_star) + (subgradient of g) = 0.
    ``delta`` is an optional known similarity bound between the h_i; it is
    never estimated from data. The number of components ``n`` is ``len(h)``
    and the dimension ``d`` is ``x_star.size``; both are set here, not
    passed. ``payload`` holds the arrays a generated family was drawn from
    and that no oracle exposes.
    """

    f: SmoothOracle
    g: ProxOracle
    h: tuple[ProxOracle, ...]
    x_star: Array
    u_star: Array
    delta: float | None = None
    payload: dict = field(default_factory=dict, repr=False)
    n: int = field(init=False)
    d: int = field(init=False)
    # prox_rows' stepsize arrays for the last stepsizes that drew every component
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.h))
        object.__setattr__(self, "d", self.x_star.size)
        if self.x_star.shape != (self.d,) or self.u_star.shape != (self.n, self.d):
            raise ConfigurationError("reference solution shapes do not match (n, d)")

    @property
    def mu_h(self) -> Array:
        return np.array([o.mu for o in self.h])

    @property
    def L_h(self) -> list[Curvature]:
        return [o.L for o in self.h]

    def prox_rows(self, members: Array, gammas: Array, V: Array,
                  kept: "KeptRows | None" = None) -> Array:
        """Row j: the prox of h_{members[j]} with stepsize gammas[j] at V[j].

        With ``kept``, one round's :class:`KeptRows` from :meth:`kept_rows`,
        only the coordinates ``kept.cols`` are returned: the (m, k) array
        ``prox_rows(members, gammas, V)[j, kept.cols[j]]``, equal to it bit for bit.

        An instance whose payload holds the stacked spectral arrays ``q``,
        ``lam`` and ``b`` of its components, as the generated quadratic
        families do, solves every row at once from them with the arithmetic
        of :func:`quadratic_prox` (two stacked matrix-vector products), and
        gathers no eigenbases when every component is drawn; it then keeps
        the stepsize arrays for the calls that follow with the same stepsizes.
        Its second product reads only the rows of ``kept.layout`` when the
        round has one; otherwise it is whole and the kept values are
        gathered from it. Any other instance calls its oracles one by one.

        A stacked round whose member eigenbases pass ``_SPLIT_MIN_BYTES``
        (5 MiB, 66 members at d = 100) runs on two cores when the process may
        use two CPUs: one helper thread solves the upper half of the members
        while the caller solves the lower half, and a helper that has not
        begun its half when the caller is done leaves that half to the
        caller. Each half makes the BLAS calls that the whole round makes on
        its members, so the bytes do not depend on the split. The handoff
        costs about 40 us, so smaller rounds stay inline: at d = 100 and
        k = 10 on a 2-vCPU Xeon VM with one BLAS thread, a round of 40
        members took 264 us inline against 283 split, 50 members 319 against
        320, 70 members 425 against 381, and 100 members (8 MB, the
        federated benchmark) 585 against 455.
        """
        if not {"q", "lam", "b"} <= self.payload.keys():
            y = np.stack([self.h[i].prox(g, v) for i, g, v in zip(members, gammas, V)])
            return y if kept is None else y[np.arange(len(members))[:, None], kept.cols]
        if np.any(gammas <= 0):
            raise ConfigurationError(f"prox needs gamma > 0, got {gammas.min()}")
        q, lam, b = self.payload["q"], self.payload["lam"], self.payload["b"]
        m, d = len(members), self.d
        gathered = m < self.n
        if gathered:
            lam, b = lam[members], b[members]
        steps = {} if gathered else self._steps
        key = (gammas.dtype.str, gammas.tobytes())
        if steps.get("key") != key:
            steps.update(key=key, shift=gammas[:, None] * b, scale=1.0 + gammas[:, None] * lam)
        # The caller allocates every array of the round and each half only
        # fills its rows, so a split round allocates what an inline one does.
        qs = np.empty((m, d, d)) if gathered else q
        v, w = np.empty((m, d, 1)), np.empty((m, d, 1))
        laid_out = kept is not None and kept.layout is not None
        if laid_out:
            rows, where = kept.layout
            kept_q, y = np.empty((m, rows.shape[1], d)), np.empty((m, rows.shape[1], 1))
            at = np.arange(m)[:, None] * d + rows
            pick = np.arange(m)[:, None] * rows.shape[1] + where
        else:
            y = np.empty((m, d, 1))
            pick = None if kept is None else np.arange(m)[:, None] * d + kept.cols
        out = y[..., 0] if kept is None else np.empty(kept.cols.shape)

        def part(lo: int, hi: int) -> None:
            # members lo:hi alone, with the BLAS calls a whole round makes on
            # them; every index is in range, and mode "clip" lets take write
            # into out unbuffered
            if gathered:
                q.take(members[lo:hi], axis=0, out=qs[lo:hi], mode="clip")
            np.add(V[lo:hi], steps["shift"][lo:hi], out=v[lo:hi, :, 0])
            np.matmul(qs[lo:hi].transpose(0, 2, 1), v[lo:hi], out=w[lo:hi])
            w[lo:hi] /= steps["scale"][lo:hi, :, None]
            if laid_out:
                qs.reshape(-1, d).take(at[lo:hi], axis=0, out=kept_q[lo:hi], mode="clip")
                np.matmul(kept_q[lo:hi], w[lo:hi], out=y[lo:hi])
            else:
                np.matmul(qs[lo:hi], w[lo:hi], out=y[lo:hi])
            if pick is not None:
                y.reshape(-1).take(pick[lo:hi], out=out[lo:hi], mode="clip")

        helper = _split_helper() if m > 1 and m * q[0].nbytes > _SPLIT_MIN_BYTES else None
        if helper is None:
            part(0, m)
            return out
        # Whoever solves the upper half takes it from this list: a handoff
        # the caller cancels stays queued until the helper wakes, and must
        # not keep the round's arrays alive into the next round meanwhile.
        half = (m + 1) // 2
        upper_half = [partial(part, half, m)]
        upper = helper.submit(lambda: upper_half.pop()())
        part(0, half)
        # a helper that has not started yet leaves its half to the caller
        if upper.cancel():
            upper_half.pop()()
        else:
            upper.result()
        return out

    def kept_rows(self, masks: Array, sizes: list[int]) -> list["KeptRows"]:
        """Each round's :class:`KeptRows` for a block of rounds whose sorted
        masks come stacked, ``sizes[r]`` rows for round r.

        The one place that decides which rounds :meth:`prox_rows` solves
        from kept rows: those that draw every component of an instance
        holding the stacked ``q``, ``lam`` and ``b``, while k padded to a
        multiple of four is at most ``KEPT_ROWS_MAX_SHARE`` of d. Past that
        share, the full product and one gather cost less (at n = d = 100 on
        one core they break even near d/5). In a round of some components,
        the second product reads the first's copy of their eigenbases from
        cache, and kept rows cost 1.03 to 1.4 times the full product (n = d =
        100, k = 10, 20 down to 2 members). A row's layout depends only on
        its own mask and d, so one call lays out the whole block.
        """
        k = masks.shape[1]
        ends = np.cumsum(sizes).tolist()
        spans = [slice(start, end) for start, end in zip([0, *ends], ends)]
        if not ({"q", "lam", "b"} <= self.payload.keys() and self.n in sizes
                and _padded(k) <= KEPT_ROWS_MAX_SHARE * self.d):
            return [KeptRows(masks[at], None) for at in spans]
        rows, where = _kept_row_layout(masks, self.d)
        # the rows start with the masks, which then keep no copy of their own
        return [KeptRows(rows[at, :k], (rows[at], where[at]) if size == self.n else None)
                for at, size in zip(spans, sizes)]

    def optimality_residual(self) -> float:
        """Norm of grad f(x*) + mean u* (+ mu_g shrinkage when g is a known sqnorm)."""
        r = self.f.grad(self.x_star) + self.u_star.mean(axis=0)
        if self.g.grad_at is not None:
            r = r + self.g.grad_at(self.x_star)
        return float(np.linalg.norm(r))


class KeptRows(NamedTuple):
    """One round's sorted (m, k) kept ``cols`` and, where :meth:`ProblemInstance.kept_rows`
    lays the round out, the ``(rows, where)`` of :func:`_kept_row_layout`, else None."""

    cols: Array
    layout: tuple[Array, Array] | None


def _padded(k: int) -> int:
    """k rounded up to the BLAS matrix-vector kernel's 4-row blocks."""
    return 4 * -(-k // 4)


def _kept_row_layout(cols: Array, d: int) -> tuple[Array, Array]:
    """The eigenbasis rows a kept-row product gathers, and where each kept value lands.

    The BLAS matrix-vector kernel sums the full product's rows in blocks of
    four, then its last d mod 4 rows one by one, each row in an order its
    block position does not change. So per member: its k kept rows, padded
    to a multiple of four by repeating the last, then the last d mod 4 rows,
    whole and in order. A kept row below d - d mod 4 thus sits in a 4-row
    block, as in the full product; a kept row in the tail is read from the
    tail, and its copy in the blocks is ignored, as are the pads. Rows of
    one block do not mix, so what fills the other places changes no value.
    The floor of four rows also keeps numpy from taking a dot product in
    place of the matrix-vector kernel at width one. A BLAS that blocks
    otherwise breaks the equality, which
    ``tests/test_problems.py::test_kept_rows_match_the_blas_row_blocking`` names.
    """
    m, k = cols.shape
    width = _padded(k)
    head = d - d % 4
    rows = np.empty((m, width + d - head), dtype=cols.dtype)
    rows[:, :k] = cols
    rows[:, k:width] = cols[:, k - 1:]
    rows[:, width:] = np.arange(head, d)
    where = cols + (width - head)
    np.copyto(where, np.arange(k, dtype=cols.dtype), where=cols < head)
    return rows, where


def orthogonal_matrix(d: int, rng: np.random.Generator) -> Array:
    """Haar-distributed orthogonal matrix via sign-corrected Gaussian QR."""
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _refined_solve(m: Array, rhs: Array) -> Array:
    # A couple of refinement passes push the residual to near machine level,
    # which the fixed-point tests downstream depend on.
    x = np.linalg.solve(m, rhs)
    target = 1e-13 * max(1.0, float(np.linalg.norm(rhs)))
    for _ in range(4):
        r = rhs - m @ x
        if float(np.linalg.norm(r)) <= target:
            break
        x = x + np.linalg.solve(m, r)
    return x


# ---------------------------------------------------------------------------
# Generated families


def _draw_spectral_components(
    rng: np.random.Generator,
    n: int,
    d: int,
    eig_low: Array,
    eig_high: Array,
    zero_count: int,
    b_high: float,
):
    # Per component, consumption order is Q, eigenvalues, linear term; the
    # order is part of the determinism contract for generated instances.
    qs = np.empty((n, d, d))
    lams = np.empty((n, d))
    bs = np.empty((n, d))
    for i in range(n):
        qs[i] = orthogonal_matrix(d, rng)
        lam = np.zeros(d)
        lam[zero_count:] = rng.uniform(eig_low[i], eig_high[i], size=d - zero_count)
        lams[i] = lam
        bs[i] = rng.uniform(0.0, b_high, size=d)
    return qs, lams, bs


def _solve_reference(f_diag: Array | None, qs: Array, lams: Array, bs: Array):
    """Reference solution of (diag(f) + mean A_i) x = mean b_i and its duals."""
    n, d = lams.shape
    m = np.zeros((d, d))
    for i in range(n):
        m += (qs[i] * lams[i]) @ qs[i].T
    m /= n
    if f_diag is not None:
        m[np.diag_indices(d)] += f_diag
    x_star = _refined_solve(m, bs.mean(axis=0))
    u_star = np.empty((n, d))
    for i in range(n):
        u_star[i] = qs[i] @ (lams[i] * (qs[i].T @ x_star)) - bs[i]
    return x_star, u_star


def _checked(instance: ProblemInstance) -> ProblemInstance:
    """Refuse a generated instance whose reference misses its optimality condition."""
    residual = instance.optimality_residual()
    if not np.isfinite(residual):
        raise ConfigurationError(
            f"the generated reference under- or overflows float64 (residual {residual})"
        )
    if residual > _OPT_RESIDUAL_TOL:
        raise ConfigurationError(f"reference solve residual {residual:.3e} above tolerance")
    return instance


def _quadratic_family(f_diag: Array | None, qs: Array, lams: Array, bs: Array,
                      mu_nominal: Array, l_nominal: Array) -> ProblemInstance:
    """The instance f + mean_i QuadraticForm(qs[i], lams[i], bs[i]) with its reference.

    f is diag(f_diag) as a quadratic, or zero when ``f_diag`` is None; each
    component carries its nominal constants ``mu_nominal[i]`` and
    ``l_nominal[i]``.
    """
    x_star, u_star = _solve_reference(f_diag, qs, lams, bs)
    if f_diag is None:
        f = zero_smooth()
    else:
        f = SmoothOracle(grad=lambda x: f_diag * x,
                         L=float(f_diag.max()), mu=float(f_diag.min()))
    h = tuple(
        QuadraticForm(qs[i], lams[i], bs[i]).as_oracle(
            mu=float(mu_nominal[i]), L=float(l_nominal[i])
        )
        for i in range(len(lams))
    )
    payload = {"q": qs, "lam": lams, "b": bs, "f_diag": f_diag}
    return _checked(ProblemInstance(f=f, g=zero_prox(), h=h, x_star=x_star,
                                    u_star=u_star, payload=payload))


def generate_exp1(
    rng: np.random.Generator,
    n: int = 100,
    d: int = 100,
    alpha: float = 0.05,
    l_max: float = 1000.0,
) -> ProblemInstance:
    """Smooth split quadratics with two smoothness groups.

    The first fifth of the components (at least one) carry the nominal
    constant ``l_max``, the rest ``alpha * l_max``. A fifth of each spectrum
    is zero, so individual components are smooth but not strongly convex;
    the diagonal f term, drawn from [0.1, 10], keeps the aggregate strongly
    convex. Linear terms are drawn from [0, 1].
    """
    if not 0 < alpha <= 1:
        raise ConfigurationError(f"bad two-group layout: alpha={alpha}")
    n_top = max(1, n // 5)
    f_diag = rng.uniform(0.1, 10.0, size=d)
    l_nominal = np.concatenate([np.full(n_top, l_max), np.full(n - n_top, alpha * l_max)])
    qs, lams, bs = _draw_spectral_components(
        rng, n, d,
        eig_low=np.zeros(n), eig_high=l_nominal,
        zero_count=int(round(0.2 * d)), b_high=1.0,
    )
    return _quadratic_family(f_diag, qs, lams, bs, np.zeros(n), l_nominal)


def generate_exp3(
    rng: np.random.Generator,
    n: int = 100,
    d: int = 100,
    mu: float = 1.0,
    l_max: float = 50.0,
) -> ProblemInstance:
    """Strongly convex quadratic components with spectra inside [mu, l_max].

    Linear terms are drawn from [0, l_max].
    """
    if not (0 < mu < l_max):
        raise ConfigurationError(f"need 0 < mu < l_max, got mu={mu}, l_max={l_max}")
    qs, lams, bs = _draw_spectral_components(
        rng, n, d,
        eig_low=np.full(n, mu), eig_high=np.full(n, l_max),
        zero_count=0, b_high=l_max,
    )
    return _quadratic_family(None, qs, lams, bs, np.full(n, mu), np.full(n, l_max))


def generate_exp2(
    rng: np.random.Generator,
    d: int = 1000,
    mu: float = 1e-5,
) -> ProblemInstance:
    """Consistent hyperplane constraints with a small ridge, n = d.

    Row i of an orthogonal matrix defines the hyperplane w_i'x = b_i with
    b = W x* for a Gaussian x*, so the constraints intersect exactly at x*.
    Duals are mu x* + lam_i w_i with lam = -n mu W x*, which averages to zero
    because W'W = I.
    """
    if mu <= 0:
        raise ConfigurationError(f"ridge curvature must be positive, got {mu}")
    w = orthogonal_matrix(d, rng)
    x_star = rng.standard_normal(d)
    offsets = w @ x_star
    lam = -d * mu * offsets
    u_star = mu * x_star[None, :] + lam[:, None] * w
    h = tuple(hyperplane_ridge(w[i], float(offsets[i]), mu) for i in range(d))
    return _checked(ProblemInstance(f=zero_smooth(), g=zero_prox(), h=h, x_star=x_star,
                                    u_star=u_star, payload={"w": w, "b": offsets}))


_GENERATORS = {"exp1": generate_exp1, "exp2": generate_exp2, "exp3": generate_exp3}


def generate_instance(kind: str, rng: np.random.Generator | int, **params) -> ProblemInstance:
    """Generate one of the named problem families from a seeded stream."""
    key = kind.lower()
    if key not in _GENERATORS:
        raise ConfigurationError(f"unknown instance family {kind!r}")
    if not isinstance(rng, np.random.Generator):
        rng = generator(rng)
    # the residual check refuses a reference that overflowed; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        return _GENERATORS[key](rng, **params)
