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
generator in increasing coordinate order. No generator serves two lanes, so
a run may draw a block of rounds ahead: :class:`FedRng` draws the block's
subsets in round order, then every participant's masks for the whole block
in one :func:`compress` pass over their own generators, then the server's
coins for the whole block in one call, as a round's uncovered coordinates
follow from its masks. Every generator stands where drawing those rounds one
at a time would leave it.

A round works on all participants at once: one
:meth:`~multiprox.problems.ProblemInstance.prox_rows` call with the round's
masks returns only the kept coordinates of every participant's prox. For
the generated quadratic families it solves them in one batched call that,
when every client takes part, reads only the eigenbasis rows behind the
kept coordinates, bit for bit equal to keeping them from the full prox.
The instance lays out the kept rows once per block and builds the prox's
stepsize arrays once per stepsize. The duals and server sums then move with
one scatter each, adding in member order as a per-client loop would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, HypothesisViolation
from .problems import ProblemInstance, is_infinite
from .rates import fed_plan
from .rng import SeedLike, spawn
from .sampling import SamplingDistribution, UniformMinibatch, compressed_view
from .solver import (
    LINEAR_SMOOTH,
    Constant,
    LyapunovSpec,
    SolverParams,
    SolverState,
    _check_law,
    _check_trust_region,
    _drive,
    _forward,
    derive_params,
    gamma_at,
    initial_state,
    lyapunov,
    make_lyapunov_spec,
)

Array = np.ndarray


# Rounds drawn ahead at a time by fed_run; the last block takes what is left.
BLOCK_ROUNDS = 128

# Past this many kept coordinates, one Generator.choice call per mask is
# cheaper than the replay. It must stay at most 200, which keeps every
# replayed mask where Generator.choice runs Floyd's algorithm (d <= 10_000
# or k <= d // 50); elsewhere choice shuffles a tail of arange(d) instead.
_REPLAY_MAX_K = 64


@dataclass
class CommLedger:
    """Cumulative uplink communication counts, in float64 reals.

    ``uplink_parallel_reals`` counts one client's worth per round (clients
    transmit simultaneously); ``uplink_total_reals`` counts every client.
    Both counters are nondecreasing.
    """

    rounds: int = 0
    uplink_parallel_reals: int = 0
    uplink_total_reals: int = 0


@dataclass
class FedRng:
    """The generator bundle for one federated run, and the rounds drawn ahead.

    ``omega`` draws each round's subset, ``clients[i]`` client i's masks and
    ``server`` the coins; see the module docstring. :meth:`draw_ahead` draws
    a block of rounds at once and :meth:`next_round` hands them out in order.
    """

    omega: np.random.Generator
    server: np.random.Generator
    clients: list[np.random.Generator]
    _rounds: deque = field(default_factory=deque, init=False, repr=False)
    _drawn_for: tuple | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_seed(cls, seed: SeedLike, n: int) -> "FedRng":
        omega, server, *clients = spawn(seed, n + 2)
        return cls(omega=omega, server=server, clients=clients)

    def draw_ahead(self, dist: SamplingDistribution, k: int, instance: ProblemInstance,
                   rounds: int) -> None:
        """With no round ahead, draw the next ``rounds`` subsets, every
        participant's masks for all of them in one :func:`compress` call and
        the server's coins in one call, counting coverage once; ``instance``
        plans the block's :meth:`~ProblemInstance.kept_rows`."""
        if self._rounds:
            return
        d = instance.d
        subsets = [np.array(dist.sample(self.omega), dtype=np.intp) for _ in range(rounds)]
        drawn = np.concatenate(subsets)
        uses = np.bincount(drawn, minlength=len(self.clients))
        masks = compress([self.clients[i] for i in np.flatnonzero(uses)], d, k, uses[uses > 0])
        # compress stacks each client's masks in turn: a draw's mask is at
        # its stable rank among the draws sorted by client
        masks = masks[np.argsort(np.argsort(drawn, kind="stable"))]
        sizes = [s.size for s in subsets]
        # round r counts its coordinates at r d ... r d + d - 1
        offsets = d * np.repeat(np.arange(rounds), sizes)[:, None]
        counts = np.bincount((masks + offsets).ravel(), minlength=rounds * d).reshape(rounds, d)
        opens = (counts == 0).sum(1)
        coins = np.split(self.server.random(opens.sum()), np.cumsum(opens)[:-1])
        self._rounds.extend(zip(subsets, instance.kept_rows(masks, sizes), counts, coins))
        self._drawn_for = (dist, k, d)

    def next_round(self, dist: SamplingDistribution, k: int, instance: ProblemInstance) -> tuple:
        """The next round drawn ahead: its members, their masks as
        :class:`~multiprox.problems.KeptRows`, each coordinate's message count
        and one server coin per uncovered coordinate. With none ahead, a
        block of one round is drawn."""
        self.draw_ahead(dist, k, instance, 1)
        if self._drawn_for != (dist, k, instance.d):
            raise ConfigurationError("the rounds drawn ahead belong to another law, k or d")
        return self._rounds.popleft()


def compress(rngs: list[np.random.Generator], d: int, k: int, counts: Array | list[int]) -> Array:
    """Unscaled rand-k masks, ``counts[j]`` from each client stream ``rngs[j]``,
    as sorted rows stacked in client order, in int32 to halve a block's
    plan. Client j's rows and its stream's final state equal those of
    ``counts[j]`` successive ``np.sort(rngs[j].choice(d, size=k, replace=False))``
    calls."""
    if not 1 <= k <= d:
        raise ConfigurationError(f"need 1 <= k <= d, got k={k}, d={d}")
    if k <= _REPLAY_MAX_K:
        return _floyd_masks(rngs, d, k, counts)
    masks = np.empty((sum(counts), k), dtype=np.int32)
    for row, j in zip(masks, np.repeat(np.arange(len(rngs)), counts).tolist()):
        row[:] = np.sort(rngs[j].choice(d, size=k, replace=False))
    return masks


def _floyd_masks(rngs: list[np.random.Generator], d: int, k: int,
                 counts: Array | list[int]) -> Array:
    """Replay ``counts[j]`` calls of Floyd's sampling on each ``rngs[j]`` as
    Generator.choice runs it, all clients' rows in one pass.

    Per mask, choice draws Floyd's k values with inclusive bounds d-k ... d-1,
    then the k-1 of its shuffle with bounds k-1 ... 1; a zero bound draws
    nothing. One ``integers`` call per client with those bounds makes exactly
    the same draws, and sorting the rows makes the shuffle's outcome irrelevant.
    """
    bounds = np.arange(d - k, d)
    highs = np.concatenate((bounds, np.arange(k - 1, 0, -1))) + 1
    tiled = np.tile(highs, max(counts, default=0))
    # column j holds mask j's Floyd values; the shuffle's draws are dropped
    kept = np.empty((k, sum(counts)), dtype=np.int32)
    for rng, end, count in zip(rngs, np.cumsum(counts).tolist(), counts):
        draws = rng.integers(0, tiled[:count * highs.size]).reshape(count, highs.size)
        kept[:, end - count:end] = draws[:, :k].T
    # Floyd keeps a draw unless it is already in the set, and then takes the
    # column's bound instead; columns go one by one, each across every mask
    for t in range(1, k):
        kept[t, (kept[:t] == kept[t]).any(axis=0)] = bounds[t]
    return np.sort(kept.T, axis=1)


def rescale(
    cols: Array,
    values: Array,
    x_hat: Array,
    x_prev: Array,
    p_hat: float,
    counts: Array,
    coins: Array,
) -> Array:
    """Per-coordinate server reconstruction of the next point.

    ``values[j]`` is a received correction at coordinate ``cols[j]``, and
    ``counts[i]`` the number at coordinate i. A coordinate covered by m > 0
    of them takes the forward-backward value plus their mean. Uncovered
    coordinates flip the acceptance coin, ``coins`` holding one uniform per
    coordinate in increasing order, drawn with the round's block.
    """
    # bincount adds in message order, as a loop of scatter-adds would
    sums = np.bincount(cols, weights=values, minlength=x_hat.size)
    # an uncovered coordinate divides a zero sum by one here and is set below
    x_next = x_hat + sums / np.maximum(counts, 1)
    if coins.size:
        open_idx = np.flatnonzero(counts == 0)
        x_next[open_idx] = np.where(coins < p_hat, x_hat[open_idx], x_prev[open_idx])
    return x_next


# ---------------------------------------------------------------------------
# Parameter derivation


@dataclass(frozen=True)
class FedParams:
    """Derived configuration of one federated run; ``spec`` is the linear-rate
    Lyapunov function under the effective law, None where it is not certified."""

    solver: SolverParams
    k: int
    effective: SamplingDistribution
    spec: LyapunovSpec | None
    iteration_complexity: float | None = None

    @property
    def rho(self) -> float | None:
        return None if self.spec is None else self.spec.rho


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
    and, when ``gamma`` is omitted, takes its planned stepsize; a rate that
    does not contract is refused there. Anything else takes the generic path
    through the effective law, needs an explicit ``gamma`` and leaves the
    spec out when the rate is not certified.
    """
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
        p_check = effective.empty_prob()
        active = 1.0 - p_check
        mu_hat = 2.0 * mu * L / (active * (L + mu))
        params = SolverParams(
            eta=np.full(instance.n, 1.0 / active),
            p_hat=1.0 / (1.0 + gamma * mu_hat),
            p_bar=p_check,
            mu_hat_h=mu_hat,
            schedule=Constant(gamma),
        )
        spec = make_lyapunov_spec(LINEAR_SMOOTH, instance, effective, params)
    else:
        if gamma is None:
            raise HypothesisViolation(
                "a planned stepsize exists only on the theorem-exact path; "
                "pass gamma explicitly for this configuration"
            )
        params = derive_params(instance, effective, Constant(gamma))
        try:
            spec = make_lyapunov_spec(LINEAR_SMOOTH, instance, effective, params)
        except HypothesisViolation:
            spec = None
    return FedParams(solver=params, k=k, effective=effective, spec=spec,
                     iteration_complexity=complexity)


# ---------------------------------------------------------------------------
# The round


def _check_clients(rngs: FedRng, instance: ProblemInstance, dist: SamplingDistribution) -> None:
    _check_law(dist, instance)
    if len(rngs.clients) != instance.n:
        raise ConfigurationError(
            f"need one client generator per component: got {len(rngs.clients)} "
            f"for n={instance.n}")


def fed_step(
    state: SolverState,
    instance: ProblemInstance,
    fed: FedParams,
    dist: SamplingDistribution,
    rngs: FedRng,
    ledger: CommLedger,
) -> None:
    """One federated round, in place, with communication accounting.

    The round is the next one ``rngs`` has drawn ahead; with none ahead, it
    draws a block of this one round.
    """
    _check_clients(rngs, instance, dist)
    params = fed.solver
    gamma = gamma_at(params.schedule, state.t)
    x = state.x
    xhat = _forward(instance, gamma, x, state.u_bar)
    members, kept, counts, coins = rngs.next_round(dist, fed.k, instance)
    masks = kept.cols
    cols = masks.ravel()
    values = np.zeros(0)
    scaled_sum = np.zeros(instance.d)
    if members.size:
        every = members.size == instance.n
        eta = params.eta if every else params.eta[members]
        ge = gamma * eta
        V = (state.u if every else state.u[members]) * ge[:, None]
        V += xhat
        # every participant's kept coordinates, unscaled, in member order
        values = instance.prox_rows(members, ge, V, kept) - xhat.take(masks)
        # Only the coordinates that survived compression move; the rest of
        # each dual vector stays, so u_i generally leaves the subgradient set.
        flat = masks + (members * instance.d)[:, None]
        # every index is in range; mode "raise" would copy the whole array first
        state.u.put(flat, state.u.take(flat) - values / ge[:, None], mode="clip")
        state.moved.update(members.tolist())
        # bincount adds in member order, as a loop of scatter-adds would
        scaled_sum = np.bincount(cols, weights=(values / eta[:, None]).ravel(),
                                 minlength=instance.d)
    state.x = rescale(cols, values.ravel(), xhat, x, params.p_hat, counts, coins)
    state.u_bar = state.u_bar - scaled_sum / (instance.n * gamma)
    state.t += 1
    ledger.rounds += 1
    if members.size:
        ledger.uplink_parallel_reals += fed.k
        ledger.uplink_total_reals += cols.size
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
    Lyapunov value is that of ``fed.spec``, absent when it is None.
    """
    if not isinstance(rngs, FedRng):
        rngs = FedRng.from_seed(rngs, instance.n)
    _check_clients(rngs, instance, dist)
    state = initial_state(instance, x0=x0)
    ledger = CommLedger()

    def advance():
        # blocks end at T, so every generator ends where per-round draws leave it
        rngs.draw_ahead(dist, fed.k, instance, min(BLOCK_ROUNDS, T - state.t))
        fed_step(state, instance, fed, dist, rngs, ledger)

    _drive(state, instance, fed.solver, fed.spec, T, advance, sink,
           lambda: (ledger.uplink_parallel_reals, ledger.uplink_total_reals),
           lyapunov, cadence)
    return state, state.u, ledger
