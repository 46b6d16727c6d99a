"""Spectral analysis of chain generators.

Computes the variational spectral gap (the optimal constant in the
Poincare inequality over mean-zero unit-variance test functions), the
full complex spectrum, the slowest genuine decay mode, the per-state
constants of the weighted-norm convergence bound, and a Foster-Lyapunov
drift coefficient for comparison with the spectral rate.

For reversible chains the generator is similar to a symmetric matrix via
the square-root-of-pi scaling, so a symmetric eigensolver gives the gap
directly.  For irreversible chains the quadratic form only sees the
symmetric part of the generator, so the gap is computed on the additive
symmetrization; the slowest eigenvalue of the original generator can be
strictly faster, and both numbers are reported.

The per-generator functions (gap, eigenvalues, true_decay_rate)
recompute on every call.  Per chain, the reversibility verdict, the
symmetrized eigensystem and the complex spectrum are computed at most
once by ChainAnalysis, memoized on the ChainSpec; spectral_report, the
propagator, decay curves and the CLI all read from it.  On a chain
judged reversible (at the spec's rev_tol) the memoized spectrum is the
symmetrized generator's, read from the eigensystem: real, as accurate as a
symmetric eigensolver makes it, and its slowest mode is the gap exactly.
Only irreversible chains pay for a general eigvals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.typing import NDArray

from .chain_core import (
    ChainSpec,
    Distribution,
    RateMatrix,
    Tolerances,
    WeightFunction,
    is_reversible,
    reversibilize,
)
from .errors import EigenFailure, ErgorateError, NoDrift

# Relative tolerance (scaled by max |q_ij|) for identifying the single
# zero eigenvalue of an irreducible conservative generator.
EIG_TOL = 1e-9


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of a chain.

    ``rate_epsilon_max`` is the certified exponential decay rate of the
    weighted-norm convergence bound: for reversible chains it equals the
    gap and is sharp; for irreversible chains the gap is a lower bound
    and ``true_decay_rate`` (slowest eigenvalue real part of the
    original generator, sign-flipped) reports the actual asymptotic
    rate, which can be strictly larger.
    """

    gap: float
    eigenvalues: tuple[complex, ...]
    reversible: bool
    rate_epsilon_max: float
    true_decay_rate: float
    constants: NDArray[np.float64]

    def to_dict(self) -> dict:
        return {
            "gap": self.gap,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "reversible": self.reversible,
            "rate_epsilon_max": self.rate_epsilon_max,
            "true_decay_rate": self.true_decay_rate,
            "constants": list(map(float, self.constants)),
        }


@dataclass(frozen=True)
class DriftReport:
    """Best drift coefficient c and matching offset b for Qf <= -c f + b 1_C."""

    c_max: float
    b_min: float
    small_set: tuple[int, ...]


def symmetric_eigendecomposition(
    Q: RateMatrix, pi: Distribution
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Eigendecomposition of the pi-symmetrized negative generator.

    Returns (lam, V, d) where d = sqrt(pi), S = diag(d) (-Q) diag(1/d)
    symmetrized, and S = V diag(lam) V^T with lam ascending.  Only
    meaningful when Q is reversible with respect to pi (the enforced
    symmetrization would otherwise change the operator); lam[0] is the
    zero mode with eigenvector d.

    Raises
    ------
    EigenFailure
        Solver failure, or the smallest eigenvalue is not the expected
        single zero mode.
    """
    d = np.sqrt(pi.p)
    S = (d[:, None] * (-Q.q)) / d[None, :]
    S = 0.5 * (S + S.T)
    try:
        lam, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    tol = EIG_TOL * max(Q.max_rate, 1e-300)
    if abs(lam[0]) > tol:
        raise EigenFailure(f"smallest symmetrized eigenvalue {lam[0]:.3e} is not zero")
    if Q.n > 1 and lam[1] <= tol:
        raise EigenFailure("zero eigenvalue is not simple; chain is numerically reducible")
    return lam, V, d


def gap(Q: RateMatrix, pi: Distribution, tol: Tolerances = Tolerances()) -> float:
    """Variational spectral gap of the generator.

    Reversible (at tol.rev_tol): second-smallest eigenvalue of the
    symmetrized operator.  Irreversible: the quadratic form coincides with
    that of the additive symmetrization, so the gap is computed there.
    """
    rev, _ = is_reversible(Q, pi, tol)
    if not rev:
        Q = reversibilize(Q, pi)
    lam, _, _ = symmetric_eigendecomposition(Q, pi)
    return float(lam[1])


def eigenvalues(Q: RateMatrix) -> tuple[complex, ...]:
    """Full spectrum of Q, sorted by descending real part then ascending
    imaginary part.  Exactly one eigenvalue must sit at zero."""
    try:
        lam = np.linalg.eigvals(Q.q)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue solver failed: {exc}") from exc
    tol = EIG_TOL * max(Q.max_rate, 1e-300)
    n_zero = int(np.sum(np.abs(lam) <= tol))
    if n_zero != 1:
        raise EigenFailure(f"expected one zero eigenvalue, found {n_zero}")
    order = np.lexsort((lam.imag, -lam.real))
    return tuple(complex(z) for z in lam[order])


def true_decay_rate(Q: RateMatrix) -> float:
    """Negative of the largest real part over the nonzero spectrum.

    This is the actual asymptotic exponential decay rate of the
    semigroup deviation; it equals the gap for reversible chains and can
    exceed it for irreversible ones.
    """
    return _slowest_rate(eigenvalues(Q), Q)


def _slowest_rate(lam: tuple[complex, ...], Q: RateMatrix) -> float:
    tol = EIG_TOL * max(Q.max_rate, 1e-300)
    nonzero = [z for z in lam if abs(z) > tol]
    return float(-max(z.real for z in nonzero))


class ChainAnalysis:
    """The expensive spectral quantities of one chain, each computed at
    most once and only when first read.

    - ``reversible``/``violation``: the detailed-balance test at
      ``tol.rev_tol``, the spec's own.
    - ``eigensystem``: (lam, V, d) of symmetric_eigendecomposition,
      applied to Q when reversible and to its reversibilization
      otherwise, so ``gap`` = lam[1] on both branches.
    - ``spectrum``: the spectrum of Q in eigenvalues() order, and
      ``true_decay_rate`` read from it.  Reversible: -lam of the
      eigensystem, the spectrum of the symmetrized generator, so
      ``true_decay_rate`` equals ``gap`` exactly.  Irreversible: one
      eigvals of Q.

    Obtain one through chain_analysis(spec), which memoizes it on the
    spec.  It holds the generator and stationary law, not the spec, so
    the memo forms no reference cycle and is freed with the spec.
    """

    def __init__(self, rate_matrix: RateMatrix, stationary: Distribution, tol: Tolerances):
        self.rate_matrix = rate_matrix
        self.stationary = stationary
        self.tol = tol

    @cached_property
    def _verdict(self) -> tuple[bool, float]:
        return is_reversible(self.rate_matrix, self.stationary, self.tol)

    @property
    def reversible(self) -> bool:
        return self._verdict[0]

    @property
    def violation(self) -> float:
        return self._verdict[1]

    @cached_property
    def eigensystem(
        self,
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
        Q, pi = self.rate_matrix, self.stationary
        return symmetric_eigendecomposition(Q if self.reversible else reversibilize(Q, pi), pi)

    @property
    def gap(self) -> float:
        return float(self.eigensystem[0][1])

    @cached_property
    def spectrum(self) -> tuple[complex, ...]:
        if self.reversible:
            # lam ascending: -lam is already in eigenvalues()' order; 0.0 - lam
            # keeps an exact zero mode +0.0 (unary minus would print -0.0)
            return tuple((0.0 - self.eigensystem[0]).astype(complex).tolist())
        return eigenvalues(self.rate_matrix)

    @property
    def true_decay_rate(self) -> float:
        return _slowest_rate(self.spectrum, self.rate_matrix)


def chain_analysis(spec: ChainSpec) -> ChainAnalysis:
    """The analysis of ``spec``, built on first use and kept on the spec."""
    if spec._analysis is None:
        object.__setattr__(spec, "_analysis", ChainAnalysis(spec.rate_matrix, spec.stationary, spec.tol))
    return spec._analysis


def ergodicity_constant(pi: Distribution, f: WeightFunction) -> NDArray[np.float64]:
    """Per-state constant sqrt(pi(f^2)) * sqrt(1/pi_i - 1) of the
    exponential convergence bound on the weighted norm."""
    mass_f2 = float(np.dot(pi.p, f.f**2))
    return np.sqrt(mass_f2) * np.sqrt(1.0 / pi.p - 1.0)


def spectral_report(spec: ChainSpec) -> SpectralReport:
    """Assemble the full spectral summary for a chain.

    The certified rate equals the gap in both directions for reversible
    chains and is a lower bound for irreversible ones; the slowest true
    decay mode is always reported alongside.  Reads the chain's memoized
    ChainAnalysis: one eigh per spec, plus one eigvals when the chain is
    irreversible.  On a chain judged reversible at the spec's rev_tol the
    reported eigenvalues are those of the symmetrized generator.
    """
    a = chain_analysis(spec)
    return SpectralReport(
        gap=a.gap,
        eigenvalues=a.spectrum,
        reversible=a.reversible,
        rate_epsilon_max=a.gap,
        true_decay_rate=a.true_decay_rate,
        constants=ergodicity_constant(spec.stationary, spec.weight),
    )


def drift_condition(
    spec: ChainSpec, small_set: Iterable[int] = (0,)
) -> DriftReport:
    """Best coefficients for the drift inequality Qf <= -c f + b 1_C.

    c_max is the largest c valid outside the small set C,
    c_max = min_{i not in C} -(Qf)_i / f_i, and b_min the smallest
    offset making the inequality hold on C at that c.

    Raises
    ------
    NoDrift
        c_max <= 0: this weight carries no drift information for this
        small set (for instance any constant weight).
    """
    C = tuple(sorted(set(int(i) for i in small_set)))
    n = spec.n
    if any(i < 0 or i >= n for i in C):
        raise ErgorateError(f"small set {C} out of range for {n} states")
    outside = np.setdiff1d(np.arange(n), np.array(C, dtype=int))
    if outside.size == 0:
        raise ErgorateError("small set must not cover every state")
    Qf = spec.q @ spec.f
    c_max = float(np.min(-Qf[outside] / spec.f[outside]))
    if c_max <= 0.0:
        raise NoDrift(f"best drift coefficient {c_max:.3e} is not positive")
    b_min = float(np.max(Qf[np.array(C, dtype=int)] + c_max * spec.f[np.array(C, dtype=int)]))
    return DriftReport(c_max=c_max, b_min=b_min, small_set=C)
