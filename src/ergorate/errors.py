"""Exception hierarchy for the chain analyzer.

Every failure mode raised by this package derives from :class:`ErgorateError`,
so callers can catch one base class at API boundaries (the CLI maps it to
exit code 2 for input problems).
"""

from __future__ import annotations


class ErgorateError(Exception):
    """Base class for all package-specific errors."""


class NegativeRate(ErgorateError):
    """An off-diagonal transition rate is negative."""


class NonConservative(ErgorateError):
    """A row of the rate matrix does not sum to zero within tolerance."""


class Reducible(ErgorateError):
    """The positive-rate digraph is not strongly connected."""


class SingularSystem(ErgorateError):
    """The stationary linear system is rank-deficient beyond the expected
    single null direction (signals a numerically near-reducible chain)."""


class InvalidBeta(ErgorateError):
    """Weight parameter beta must exceed 1."""


class ZeroRate(ErgorateError):
    """A birth or death rate required for irreducibility is zero."""


class EigenFailure(ErgorateError):
    """The eigenvalue solver did not converge."""


class Overflow(ErgorateError):
    """A run too large to carry out: a time-rate product too large for the
    matrix-exponential method, a sampler run expected to draw more
    jumps than its bound, or a reference measure f^2 pi outside the
    double range."""


class InsufficientData(ErgorateError):
    """Too few usable grid points (or peaks) inside the fit window."""


class NoiseFloor(ErgorateError):
    """Curve values inside the fit window are at or below the noise floor
    of the method that produced them."""


class TooLarge(ErgorateError):
    """Brute-force operator-norm enumeration requested beyond the size cap."""


class NoDrift(ErgorateError):
    """The drift condition fails for the given weight and small set
    (best decay coefficient is not positive)."""
