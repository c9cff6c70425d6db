"""Compressed federated variant of the multi-proximal iteration.

A run advances the solver's own :class:`~multiprox.solver.SolverState`:
row i of its (n, d) dual array is client i's dual vector, and the primal
point and the dual average are the server's. Each round, participating
clients send their proximal correction through an unscaled rand-k mask (k
coordinates, no 1/probability inflation), and the server rebuilds the next
point coordinate by coordinate: covered coordinates average the received
corrections, uncovered ones fall back to the acceptance coin between the
forward-backward point and the previous point.

Per coordinate this reproduces the uncompressed iteration under a thinned
participation law, which is exactly how the certified rate is derived: the
rate inputs are those of the effective law from
:func:`multiprox.sampling.compressed_view`.

Stream discipline: subsets come from one generator, client masks from one
generator per client, and the server's per-coordinate coins from a server
generator in increasing coordinate order.

A round works on all participants at once: the proxes come from one
:meth:`~multiprox.problems.ProblemInstance.prox_rows` call, which solves
them in one batched call for the generated quadratic families, and the
duals and server sums move with one scatter each, adding in member order
as a per-client loop would. Only the masks are drawn client by client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, HypothesisViolation
from .problems import ProblemInstance, is_infinite
from .rates import fed_plan, rho_theorem1
from .rng import SeedLike, seed_sequence
from .sampling import SamplingDistribution, UniformMinibatch, compressed_view
from .solver import (
    LINEAR_SMOOTH,
    Constant,
    SolverParams,
    SolverState,
    _check_trust_region,
    _drive,
    _forward,
    derive_params,
    gamma_at,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
    rate_inputs_from,
    sq_dist,
)

Array = np.ndarray


@dataclass(frozen=True)
class CompressedMessage:
    """Exactly the k surviving values of one client's correction, nothing else."""

    indices: Array
    values: Array

    def payload_reals(self) -> int:
        return int(self.values.size)

    def index_bits(self, d: int) -> int:
        # Index overhead: k addresses of ceil(log2 d) bits each.
        if d <= 1:
            return 0
        return int(self.indices.size) * math.ceil(math.log2(d))


@dataclass
class CommLedger:
    """Cumulative communication counts, in float64 reals.

    ``uplink_parallel_reals`` counts one client's worth per round (clients
    transmit simultaneously); ``uplink_total_reals`` counts every client.
    Downlink (the broadcast point) is tracked separately and excluded from
    headline numbers. All counters are nondecreasing.
    """

    rounds: int = 0
    uplink_parallel_reals: int = 0
    uplink_total_reals: int = 0
    downlink_total_reals: int = 0


@dataclass
class FedRng:
    """The generator bundle for one federated run; see the module docstring."""

    omega: np.random.Generator
    server: np.random.Generator
    clients: list[np.random.Generator]

    @classmethod
    def from_seed(cls, seed: SeedLike, n: int) -> "FedRng":
        children = seed_sequence(seed).spawn(n + 2)
        make = lambda c: np.random.Generator(np.random.Philox(c))
        return cls(
            omega=make(children[0]),
            server=make(children[1]),
            clients=[make(c) for c in children[2:]],
        )


def compress(v: Array, k: int, rng: np.random.Generator) -> CompressedMessage:
    """Unscaled rand-k: keep k uniformly random coordinates of v as they are."""
    d = v.size
    if not 1 <= k <= d:
        raise ConfigurationError(f"need 1 <= k <= d, got k={k}, d={d}")
    kept = np.sort(rng.choice(d, size=k, replace=False))
    return CompressedMessage(indices=kept, values=v[kept])


def rescale(
    messages: list[CompressedMessage],
    x_hat: Array,
    x_prev: Array,
    p_hat: float,
    rng: np.random.Generator,
) -> Array:
    """Per-coordinate server reconstruction of the next point.

    A coordinate covered by m > 0 messages takes the forward-backward value
    plus the mean of the m received corrections. Uncovered coordinates flip
    the acceptance coin, one uniform per coordinate in increasing order.
    """
    d = x_hat.size
    sums = counts = np.zeros(d)
    if messages:
        # bincount adds in message order, as a loop of scatter-adds would
        cols = np.concatenate([msg.indices for msg in messages])
        sums = np.bincount(cols, weights=np.concatenate([msg.values for msg in messages]),
                           minlength=d)
        counts = np.bincount(cols, minlength=d)
    covered = counts > 0
    x_next = np.empty(d)
    x_next[covered] = x_hat[covered] + sums[covered] / counts[covered]
    open_idx = np.flatnonzero(~covered)
    if open_idx.size:
        coins = rng.random(open_idx.size)
        x_next[open_idx] = np.where(
            coins < p_hat, x_hat[open_idx], x_prev[open_idx]
        )
    return x_next


# ---------------------------------------------------------------------------
# Parameter derivation


@dataclass(frozen=True)
class FedParams:
    """Derived configuration of one federated run."""

    solver: SolverParams
    k: int
    effective: SamplingDistribution
    p_check_empty: float
    gamma: float
    rho: float | None = None
    iteration_complexity: float | None = None


def derive_fed_params(
    instance: ProblemInstance,
    dist: SamplingDistribution,
    k: int,
    gamma: float | None = None,
) -> FedParams:
    """Parameters for compressed federated runs.

    The theorem-exact path (no smooth term, no simple-term curvature,
    identical strongly convex smooth components, uniform size-s
    participation) certifies a rate through :func:`multiprox.rates.fed_plan`
    and, when ``gamma`` is omitted, takes its planned stepsize. Anything else
    takes the generic path through the effective law and needs an explicit
    ``gamma``.
    """
    if not 1 <= k <= instance.d:
        raise ConfigurationError(f"need 1 <= k <= d, got k={k}, d={instance.d}")
    effective = compressed_view(dist, k, instance.d)
    exact = (
        instance.f.L == 0.0
        and instance.f.mu == 0.0
        and instance.g.mu == 0.0
        and isinstance(dist, UniformMinibatch)
        and not any(is_infinite(L) for L in instance.L_h)
        and len({float(L) for L in instance.L_h}) == 1
        and len(set(instance.mu_h.tolist())) == 1
        and float(instance.mu_h[0]) > 0.0
    )
    complexity = None
    if exact:
        L = float(instance.L_h[0])
        mu = float(instance.mu_h[0])
        plan = fed_plan(instance.n, instance.d, k, dist.s, L, mu, gamma=gamma)
        gamma, complexity = plan.gamma, plan.complexity
        p_check = plan.extras["p_check_empty"]
        active = 1.0 - p_check
        mu_hat = 2.0 * mu * L / (active * (L + mu))
        params = SolverParams(
            eta=np.full(instance.n, 1.0 / active),
            p_hat=1.0 / (1.0 + gamma * mu_hat),
            p_bar=p_check,
            mu_hat_h=mu_hat,
            schedule=Constant(gamma),
        )
        rho = rho_theorem1(rate_inputs_from(instance, effective, params))
    else:
        if gamma is None:
            raise HypothesisViolation(
                "a planned stepsize exists only on the theorem-exact path; "
                "pass gamma explicitly for this configuration"
            )
        params = derive_params(instance, effective, Constant(gamma))
        try:
            rho = rho_theorem1(rate_inputs_from(instance, effective, params))
        except HypothesisViolation:
            rho = None
    return FedParams(
        solver=params,
        k=k,
        effective=effective,
        # both paths use the canonical acceptance probability, under which
        # the survival mass p_bar is the effective empty probability
        p_check_empty=params.p_bar,
        gamma=gamma,
        rho=rho,
        iteration_complexity=complexity,
    )


# ---------------------------------------------------------------------------
# The round


def fed_step(
    state: SolverState,
    instance: ProblemInstance,
    fed: FedParams,
    dist: SamplingDistribution,
    rngs: FedRng,
    ledger: CommLedger,
) -> None:
    """One federated round, in place, with communication accounting."""
    params = fed.solver
    gamma = gamma_at(params.schedule, state.t)
    x = state.x
    xhat = _forward(instance, gamma, x, state.u_bar)
    members = np.array(dist.sample(rngs.omega), dtype=np.intp)
    messages: list[CompressedMessage] = []
    scaled_sum = np.zeros(instance.d)
    if members.size:
        eta = params.eta[members]
        ge = gamma * eta
        y = instance.prox_rows(members, ge, xhat + ge[:, None] * state.u[members])
        # compress owns each client's stream, so it runs once per client
        messages = [compress(v, fed.k, rngs.clients[i])
                    for i, v in zip(members.tolist(), y - xhat)]
        rows = np.repeat(members, fed.k)
        cols = np.concatenate([msg.indices for msg in messages])
        values = np.concatenate([msg.values for msg in messages])
        # Only the coordinates that survived compression move; the rest of
        # each dual vector stays, so u_i generally leaves the subgradient set.
        state.u[rows, cols] -= values / np.repeat(ge, fed.k)
        state.moved.update(members.tolist())
        # bincount adds in member order, as a loop of scatter-adds would
        scaled_sum = np.bincount(cols, weights=values / np.repeat(eta, fed.k),
                                 minlength=instance.d)
    state.x = rescale(messages, xhat, x, params.p_hat, rngs.server)
    state.u_bar = state.u_bar - scaled_sum / (instance.n * gamma)
    state.t += 1
    ledger.rounds += 1
    if members.size:
        ledger.uplink_parallel_reals += fed.k
        ledger.uplink_total_reals += fed.k * len(messages)
        ledger.downlink_total_reals += instance.d * len(messages)
    _check_trust_region(state)


def fed_run(
    instance: ProblemInstance,
    fed: FedParams,
    dist: SamplingDistribution,
    rngs: FedRng | SeedLike,
    T: int,
    sink: Callable[[int, float, float | None, tuple[int, int]], None] | None = None,
    x0: Array | None = None,
    cadence: int | Callable[[int], bool] = 1,
) -> tuple[SolverState, Array, CommLedger]:
    """Run T rounds; the sink receives (t, squared distance, Lyapunov, comm).

    Returns the final state, its (n, d) client duals and the ledger.
    ``comm`` is the cumulative (parallel, total) uplink real count. The
    Lyapunov value uses the general linear-rate function under the effective
    law when that rate is certified, and is absent otherwise.
    """
    if not isinstance(rngs, FedRng):
        rngs = FedRng.from_seed(rngs, instance.n)
    state = initial_state(instance, x0=x0)
    ledger = CommLedger()
    spec = None
    if fed.rho is not None:
        spec = make_lyapunov_spec(LINEAR_SMOOTH, instance, fed.effective, fed.solver)

    def emit():
        if sink is None:
            return
        psi = None if spec is None else lyapunov(state, instance, fed.solver, spec)
        sink(
            state.t,
            sq_dist(state, instance),
            psi,
            (ledger.uplink_parallel_reals, ledger.uplink_total_reals),
        )

    _drive(state, T, lambda: fed_step(state, instance, fed, dist, rngs, ledger), emit, cadence)
    return state, state.u, ledger
