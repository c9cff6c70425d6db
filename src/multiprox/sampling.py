"""Subset sampling laws over n components.

A law describes the random subset of component indices activated at each
iteration. Besides drawing subsets, every law exposes three derived
quantities the theory runs on: per-index inclusion probabilities p_i, the
probability of the empty subset, and the reweighting vector tilde_p defined
by E[mean over the drawn subset of v_i | subset nonempty] = sum tilde_p_i v_i.

Closed forms cover the common laws; everything else falls back to exact
support enumeration up to 25 components and raises
:class:`UnsupportedExact` beyond.

Indices are 0-based throughout. A drawn subset is a sorted tuple of indices.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, UnsupportedExact

Array = np.ndarray

ENUMERATION_LIMIT = 25
_PROB_TOL = 1e-12


Support = list[tuple[tuple[int, ...], float]]


class SamplingDistribution:
    """Base class for subset laws. Subclasses fill in the law-specific parts."""

    law = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"need at least one component, got n={n}")
        self.n = n
        self._tilde: Array | None = None

    # Law-specific interface -------------------------------------------------

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        raise NotImplementedError

    def inclusion_probs(self) -> Array:
        """p_i = P(i in subset). Every law must keep these strictly positive."""
        raise NotImplementedError

    def empty_prob(self) -> float:
        raise NotImplementedError

    def _tilde_closed_form(self) -> Array | None:
        """tilde_p when the law gives it without enumeration, else None."""
        return None

    def enumerate_support(self) -> Support:
        """All subsets with positive probability, sorted, probabilities summing to 1."""
        raise UnsupportedExact(f"no exact support enumeration for law {self.law!r}")

    def to_config(self) -> dict:
        raise NotImplementedError

    # Shared machinery -------------------------------------------------------

    def tilde_probs(self) -> Array:
        """The nonempty-conditional mean weights; cached after first computation."""
        if self._tilde is None:
            closed = self._tilde_closed_form()
            if closed is None:
                closed = _tilde_from_support(self.n, self.enumerate_support())
            self._tilde = closed
        return self._tilde

    def _check_enumerable(self) -> None:
        if self.n > ENUMERATION_LIMIT:
            raise UnsupportedExact(
                f"exact enumeration over n={self.n} components exceeds the "
                f"limit of {ENUMERATION_LIMIT}"
            )

    def validate_proper(self) -> None:
        p = self.inclusion_probs()
        if np.any(p <= 0):
            raise ConfigurationError(
                "improper law: every index needs positive inclusion probability"
            )
        if not 0.0 <= self.empty_prob() < 1.0:
            raise ConfigurationError(
                f"empty-subset probability must lie in [0, 1), got {self.empty_prob()}"
            )


def _tilde_from_support(n: int, support: Support) -> Array:
    p_empty = sum(prob for members, prob in support if not members)
    if p_empty >= 1.0 - _PROB_TOL:
        raise ConfigurationError("law draws the empty subset almost surely")
    tilde = np.zeros(n)
    for members, prob in support:
        if members:
            share = prob / len(members)
            for i in members:
                tilde[i] += share
    return tilde / (1.0 - p_empty)


class UniformMinibatch(SamplingDistribution):
    """Uniformly random subset of fixed size s."""

    law = "uniform_minibatch"

    def __init__(self, n: int, s: int):
        super().__init__(n)
        if not 1 <= s <= n:
            raise ConfigurationError(f"minibatch size must satisfy 1 <= s <= n, got s={s}")
        self.s = s

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        # singleton draws sit on the hot path of the singleton experiments
        if self.s == 1:
            return (int(rng.integers(self.n)),)
        members = rng.choice(self.n, size=self.s, replace=False)
        return tuple(sorted(int(i) for i in members))

    def inclusion_probs(self) -> Array:
        return np.full(self.n, self.s / self.n)

    def empty_prob(self) -> float:
        return 0.0

    def _tilde_closed_form(self) -> Array:
        # uniform by symmetry
        return np.full(self.n, 1.0 / self.n)

    def enumerate_support(self) -> Support:
        self._check_enumerable()
        prob = 1.0 / math.comb(self.n, self.s)
        return [(c, prob) for c in combinations(range(self.n), self.s)]

    def to_config(self) -> dict:
        return {"law": self.law, "n": self.n, "s": self.s}


class FullBatch(UniformMinibatch):
    """Every component active every iteration."""

    law = "full_batch"

    def __init__(self, n: int):
        super().__init__(n, n)

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(range(self.n))

    def to_config(self) -> dict:
        return {"law": self.law, "n": self.n}


class SingletonWeighted(SamplingDistribution):
    """Exactly one component per iteration, index i with probability q_i."""

    law = "singleton_weighted"

    def __init__(self, q):
        q = np.asarray(q, dtype=np.float64)
        super().__init__(q.size)
        if np.any(q <= 0) or abs(q.sum() - 1.0) > _PROB_TOL:
            raise ConfigurationError("singleton weights must be positive and sum to 1")
        self.q = q
        # Generator.choice(n, p=q) builds this cdf on every call and inverts
        # one uniform against it; building it once keeps draws and stream.
        self._cdf = q.cumsum()
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        return (int(self._cdf.searchsorted(rng.random(), side="right")),)

    def inclusion_probs(self) -> Array:
        return self.q.copy()

    def empty_prob(self) -> float:
        return 0.0

    def _tilde_closed_form(self) -> Array:
        return self.q.copy()

    def enumerate_support(self) -> Support:
        return [((i,), float(self.q[i])) for i in range(self.n)]

    def to_config(self) -> dict:
        return {"law": self.law, "q": self.q.tolist()}


class IndependentParticipation(SamplingDistribution):
    """Each component joins independently, index i with probability r_i."""

    law = "independent_participation"

    def __init__(self, r):
        r = np.asarray(r, dtype=np.float64)
        super().__init__(r.size)
        if np.any(r <= 0) or np.any(r > 1):
            raise ConfigurationError("participation probabilities must lie in (0, 1]")
        self.r = r

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        mask = rng.random(self.n) < self.r
        return tuple(int(i) for i in np.flatnonzero(mask))

    def inclusion_probs(self) -> Array:
        return self.r.copy()

    def empty_prob(self) -> float:
        return float(np.prod(1.0 - self.r))

    def _tilde_closed_form(self) -> Array | None:
        # uniform by symmetry when every r_i is the same
        if np.allclose(self.r, self.r[0], rtol=0.0, atol=_PROB_TOL):
            return np.full(self.n, 1.0 / self.n)
        return None

    def enumerate_support(self) -> Support:
        self._check_enumerable()
        support: Support = []
        # r_i = 1 makes absent-i subsets impossible; drop them instead of
        # carrying zero-probability entries.
        sure = self.r >= 1.0
        for bits in range(1 << self.n):
            members = tuple(i for i in range(self.n) if bits >> i & 1)
            absent = [i for i in range(self.n) if not bits >> i & 1]
            if any(sure[i] for i in absent):
                continue
            prob = 1.0
            for i in members:
                prob *= self.r[i]
            for i in absent:
                prob *= 1.0 - self.r[i]
            support.append((members, prob))
        support.sort(key=lambda entry: entry[0])
        return support

    def to_config(self) -> dict:
        return {"law": self.law, "r": self.r.tolist()}


class ExplicitSupport(SamplingDistribution):
    """A law given directly by its support."""

    law = "explicit"

    def __init__(self, n: int, support):
        super().__init__(n)
        seen: dict[tuple[int, ...], float] = {}
        total = 0.0
        for members, prob in support:
            members = tuple(sorted(int(i) for i in members))
            if len(set(members)) != len(members) or any(not 0 <= i < n for i in members):
                raise ConfigurationError(f"bad subset {members} for n={n}")
            if prob < 0:
                raise ConfigurationError(f"negative probability {prob}")
            seen[members] = seen.get(members, 0.0) + float(prob)
            total += float(prob)
        if abs(total - 1.0) > _PROB_TOL:
            raise ConfigurationError(f"support probabilities sum to {total}, not 1")
        self.support: Support = sorted(seen.items())
        self._members = [m for m, _ in self.support]
        self._probs = np.array([p for _, p in self.support])
        self.validate_proper()

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        idx = int(rng.choice(len(self._members), p=self._probs))
        return self._members[idx]

    def inclusion_probs(self) -> Array:
        p = np.zeros(self.n)
        for members, prob in self.support:
            for i in members:
                p[i] += prob
        return p

    def empty_prob(self) -> float:
        return sum(prob for members, prob in self.support if not members)

    def enumerate_support(self) -> Support:
        return list(self.support)

    def to_config(self) -> dict:
        return {
            "law": self.law,
            "n": self.n,
            "support": [[list(m), p] for m, p in self.support],
        }


class ThinnedView(SamplingDistribution):
    """A base law with each drawn member independently kept with fixed probability.

    This is the per-coordinate effective law induced by unscaled rand-k
    compression: a coordinate of client i moves only when i participates and
    the mask keeps that coordinate, which happens with probability k/d.
    """

    law = "thinned"

    def __init__(self, base: SamplingDistribution, keep_ratio: float):
        super().__init__(base.n)
        if not 0.0 < keep_ratio <= 1.0:
            raise ConfigurationError(f"keep ratio must lie in (0, 1], got {keep_ratio}")
        if isinstance(base, ThinnedView):
            keep_ratio *= base.keep_ratio
            base = base.base
        self.base = base
        self.keep_ratio = float(keep_ratio)

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        drawn = self.base.sample(rng)
        if not drawn:
            return drawn
        keep = rng.random(len(drawn)) < self.keep_ratio
        return tuple(m for m, k in zip(drawn, keep) if k)

    def inclusion_probs(self) -> Array:
        return self.keep_ratio * self.base.inclusion_probs()

    def empty_prob(self) -> float:
        drop = 1.0 - self.keep_ratio
        base = self.base
        # a FullBatch is a UniformMinibatch with s = n
        if isinstance(base, UniformMinibatch):
            return drop ** base.s
        if isinstance(base, SingletonWeighted):
            return drop
        return sum(prob * drop ** len(members)
                   for members, prob in base.enumerate_support())

    def _tilde_closed_form(self) -> Array | None:
        # Every closed form is uniform by symmetry or a singleton law's q;
        # independent thinning keeps the symmetry, and keeps a singleton's
        # conditional weights q_i * keep / keep.
        return self.base._tilde_closed_form()

    def enumerate_support(self) -> Support:
        self._check_enumerable()
        drop = 1.0 - self.keep_ratio
        acc: dict[tuple[int, ...], float] = {}
        for members, prob in self.base.enumerate_support():
            for kept_count in range(len(members) + 1):
                weight = prob * self.keep_ratio ** kept_count * drop ** (len(members) - kept_count)
                if weight == 0.0:
                    continue
                for sub in combinations(members, kept_count):
                    acc[sub] = acc.get(sub, 0.0) + weight
        return sorted(acc.items())

    def to_config(self) -> dict:
        return {"law": self.law, "base": self.base.to_config(),
                "keep_ratio": self.keep_ratio}


def compressed_view(dist: SamplingDistribution, k: int, d: int) -> SamplingDistribution:
    """Effective per-coordinate law under unscaled rand-k with k of d coordinates."""
    if not 1 <= k <= d:
        raise ConfigurationError(f"need 1 <= k <= d, got k={k}, d={d}")
    if k == d:
        return dist
    ratio = k / d
    if isinstance(dist, IndependentParticipation):
        return IndependentParticipation(ratio * dist.r)
    return ThinnedView(dist, ratio)
