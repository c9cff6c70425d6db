"""Error types shared across the package.

Every raised condition that callers are expected to branch on gets its own
class here; string matching on messages is never required. The CLI maps
:class:`HypothesisViolation` and its relatives to a dedicated exit code.
"""

from __future__ import annotations


class MultiproxError(Exception):
    """Base class for all package errors."""


class HypothesisViolation(MultiproxError):
    """A theorem hypothesis or parameter precondition does not hold.

    Raised instead of silently clamping: callers asked for a guarantee the
    requested configuration cannot carry.
    """


class Unsupported(MultiproxError):
    """The requested combination is outside what any implemented result covers."""


class UnsupportedExact(Unsupported):
    """An exact computation was requested past its tractable size.

    Typically subset-support enumeration beyond 25 clients, for a law
    without a closed form.
    """


class NumericalDivergence(MultiproxError):
    """An iterate became non-finite or left the trust region.

    Carries the iteration index at which divergence was detected.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class ConfigurationError(MultiproxError):
    """A config file or run description is malformed or inconsistent."""
