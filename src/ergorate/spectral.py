"""Spectral analysis of chain generators.

Computes the variational spectral gap (the optimal constant in the
Poincare inequality over mean-zero unit-variance test functions), the
full complex spectrum, the slowest genuine decay mode, the per-state
constants of the weighted-norm convergence bound, and a Foster-Lyapunov
drift coefficient for comparison with the spectral rate.

The gap is lam[1] of the pi-symmetrized generator, the symmetric part of
diag(sqrt(pi)) (-Q) diag(1/sqrt(pi)).  For a reversible chain that
matrix is similar to -Q, so its spectrum is Q's.  For an irreversible
chain it is the symmetrized additive reversibilization (Q + Qhat)/2,
whose quadratic form is Q's, so lam[1] is still the variational gap;
the slowest eigenvalue of Q itself can be strictly faster, and both
numbers are reported.

Each spectral number has one code path, ChainAnalysis.  The public
functions gap, eigenvalues and true_decay_rate read a fresh
ChainAnalysis(Q, pi, tol), so they equal the report's fields exactly.
Per chain, the analysis is memoized on the ChainSpec (chain_analysis);
spectral_report, the propagator, decay curves and the CLI read it.
The verdict is chain_core.is_reversible's, kept by the law when
stationary made it from detailed balance, so no flux is formed here.
Every chain takes one values-only eigvalsh of the symmetrized generator,
and the gap is its lam[1].  Reversible (at the spec's rev_tol): the
real spectrum is an exact 0 then minus lam[1:], and the one eigh, the
expansion of the n - 1 decaying modes, is taken only when a reader needs
eigenvectors (whole matrices, h-functions, decay curves on grids too
long to sweep).  Irreversible: the true decay rate, which gap, decay and
fit read, comes from a thick-restarted Arnoldi on the uniformized chain
from _KRYLOV_MIN_STATES states on (_krylov_rate), and from one general
eigvals of Q on smaller chains or where the Arnoldi fails a check; that
eigvals, the spectrum, is otherwise taken only when read (analyze, the
report's eigenvalues).  The expansion is one orthonormal factor W, the semigroup
read in L2(pi): P_t - pi = D^-1 W exp(-t lam) W^T D with D = diag(sqrt(pi)).
The analysis also keeps the uniformized chain, at the one rate it sets,
and the dual that the uniformized route reads, so each is built once per
chain; the dual takes its chain's verdict and symmetrized rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    dual,
    is_reversible,
)
from .errors import EigenFailure, ErgorateError, NoDrift

# Relative tolerance (scaled by max |q_ij|) for identifying the single
# zero eigenvalue of an irreducible conservative generator.
EIG_TOL = 1e-9

# The restarted Arnoldi of _krylov_rate.  Every figure below was timed at
# one BLAS thread on a 2-vCPU x86 VM.  On dense chains with rates
# uniform(0.05, 1)/n (10 per size, best of 5 each) the Arnoldi against
# eigvals read 2.0 against 1.2 ms at n = 74, 1.9 against 1.7 ms at n = 76,
# 1.6 against 1.8 ms at n = 80 (from n = 75 LAPACK's eigvals runs its
# multishift QR) and 3.0 against 13.4 ms at n = 200.  Irreversible chains
# from this many states on take the Arnoldi; smaller ones keep eigvals.
_KRYLOV_MIN_STATES = 80
# Basis size and the Ritz values a restart keeps (one more where the cut
# would split a conjugate pair).  Each restart takes one eig of the basis
# size: 0.47 ms at 40, as long as about 25 Arnoldi steps at n = 130.  On
# the benchmark's chains 32/12, 40/16 and 40/20 took 36-38% of eigvals'
# time and 48/16 to 56/24 41-44%; of these, 40/20 and the larger bases
# finished the lifted cycles N = 32, 36, ..., 64 within the budget, 40/16
# all but one and 32/12 three of the nine.
_KRYLOV_BASIS = 40
_KRYLOV_KEEP = 20
# Products v -> v (P - 1 pi) allowed per state: a cycle that ends at or
# past n of them unconverged falls back to eigvals.  A converged run took
# 40-100 on the benchmark's chains (n = 90-200) and 78-215 on lifted
# cycles (n = 64-200); 46 of 100 sparse chains with rates spread over
# 1e-3..1e3 (n = 80-200) ran out, each at up to 2.4-2.8x the time of
# the eigvals it then takes (two timings); none was accepted below
# rho/Lam = 3.7e-3.
_KRYLOV_MATVECS_PER_STATE = 1
# The Ritz residual bound must be at most this times rho/Lam, the Ritz
# value's distance from 1: for a well-conditioned eigenvalue, the relative
# accuracy of rho.  Rounding in x (P - 1 pi) alone reaches 4e-15 on the
# 128-state lifted cycle, whose rho/Lam is 0.02, so the accepted pair's
# explicit residual is held to ten times this.
_KRYLOV_TOL = 1e-13


@dataclass(frozen=True)
class SpectralReport:
    """Spectral summary of a chain.

    ``rate_epsilon_max`` is the certified exponential decay rate of the
    weighted-norm convergence bound: for reversible chains it equals the
    gap and is sharp; for irreversible chains the gap is a lower bound
    and ``true_decay_rate`` (slowest eigenvalue real part of the
    original generator, sign-flipped) reports the actual asymptotic
    rate, which can be strictly larger.  ``eigenvalues`` is read from the
    chain's analysis when first read, so a report whose spectrum no one
    reads takes no eigvals.
    """

    gap: float
    reversible: bool
    rate_epsilon_max: float
    true_decay_rate: float
    constants: NDArray[np.float64]
    _analysis: ChainAnalysis = field(repr=False, compare=False)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        """The chain's spectrum (ChainAnalysis.spectrum), computed on first
        read: an irreversible chain's one eigvals is taken only here."""
        return self._analysis.spectrum

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
class DecayRoute:
    """How ChainAnalysis.true_decay_rate was made.

    ``route`` is "eigvalsh" (reversible: the gap), "krylov" (the restarted
    Arnoldi of _krylov_rate) or "eigvals" (minus the largest real part of
    the nonzero spectrum).  ``residual`` is the Arnoldi's last Ritz
    residual, ||x P~ - theta x|| / ||x|| with P~ = P - 1 pi, explicit for
    an accepted pair, and ``matvecs`` the products v -> v P~ it took; a
    fallback to eigvals keeps both, and they are nan and 0 where no Arnoldi
    ran.
    """

    rate: float
    route: str
    residual: float
    matvecs: int


@dataclass(frozen=True)
class DriftReport:
    """Best drift coefficient c and matching offset b for Qf <= -c f + b 1_C."""

    c_max: float
    b_min: float
    small_set: tuple[int, ...]


def _zero_tol(Q: RateMatrix) -> float:
    """Largest |eigenvalue| taken for the zero mode of Q."""
    return EIG_TOL * max(Q.max_rate, 1e-300)


def symmetric_eigendecomposition(
    Q: RateMatrix, pi: Distribution, vectors: bool = True
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None, NDArray[np.float64]]:
    """Eigendecomposition of the pi-symmetrized negative generator.

    Returns (lam, V, d) where d = sqrt(pi), S is the symmetric part of
    diag(d) (-Q) diag(1/d), and S = V diag(lam) V^T with lam ascending:
    one eigh, or with ``vectors=False`` one eigvalsh and V = None.  When
    Q is reversible with respect to pi, S is similar to -Q; otherwise S
    is the symmetrized additive reversibilization (Q + Qhat)/2, whose
    quadratic form is Q's.  Either way lam[0] is the zero mode, with
    eigenvector d, and lam[1] the variational gap.

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
        lam, V = np.linalg.eigh(S) if vectors else (np.linalg.eigvalsh(S), None)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    tol = _zero_tol(Q)
    if abs(lam[0]) > tol:
        raise EigenFailure(f"smallest symmetrized eigenvalue {lam[0]:.3e} is not zero")
    if Q.n > 1 and lam[1] <= tol:
        raise EigenFailure("zero eigenvalue is not simple; chain is numerically reducible")
    return lam, V, d


def _krylov_rate(
    rate: float, tilde: NDArray[np.float64], gap: float
) -> tuple[float | None, float, int]:
    """The slowest decay rate of an irreversible chain from a thick-restarted
    Arnoldi, or None where it cannot be trusted: (rho, residual, matvecs).

    The operator is the row map v -> v P~ of the uniformized chain,
    P~ = P - 1 pi with P = I + Q / rate (ChainAnalysis._uniformized), whose
    eigenvalues are 1 + lam / rate for the decaying modes lam of Q and 0 for
    the stationary one.  The fixed start vector has zero sum, and v P~ = v P
    keeps a zero sum, so the stationary mode never enters; the rightmost
    Ritz value theta maps back to rho = rate (1 - Re theta).  Each step
    orthogonalizes by classical Gram-Schmidt, twice.  A restart keeps the
    _KRYLOV_KEEP rightmost Ritz values as an orthonormal basis of their
    real invariant subspace, in the Krylov-Schur form A V = V H + v b^T
    (Stewart, SIAM J. Matrix Anal. Appl. 23, 2001), with the basis from
    the Ritz vectors rather than a reordered Schur form, which numpy lacks.

    A rate is returned only if three checks pass.  The Ritz residual bound
    |h_m^T y|, h_m the last row of the projected matrix and y the unit Ritz
    vector, is at most _KRYLOV_TOL rho / rate.  The pair's explicit residual
    ||x P~ - theta x|| / ||x|| is at most ten times that.  And rho + rate *
    residual is at least the gap, which every decaying mode's rate is (its
    real part lies in the numerical range).  A failed check, a breakdown,
    or a cycle that ends unconverged at or past _KRYLOV_MATVECS_PER_STATE * n
    products returns None.  A small residual makes theta an exact
    eigenvalue of some P~ + E with ||E||_2 at most the residual; it does not
    prove that no eigenvalue of P~ lies further right.
    """
    n = tilde.shape[0]
    m, budget = _KRYLOV_BASIS, _KRYLOV_MATVECS_PER_STATE * n
    V = np.empty((m + 1, n))
    H = np.zeros((m + 1, m))
    # random, so that no symmetry of the chain (the Fourier modes of a cycle)
    # hides a mode from it, and seeded, so that every call takes one route
    v = np.random.default_rng(0).standard_normal(n)
    v -= v.mean()
    V[0] = v / math.sqrt(v @ v)
    k = matvecs = 0
    residual = math.nan
    lost = math.sqrt(np.finfo(float).eps)
    while True:
        for j in range(k, m):
            w = V[j] @ tilde
            B = V[: j + 1]
            h = B @ w
            w -= h @ B
            c = B @ w
            w -= c @ B
            h += c
            beta = math.sqrt(w @ w)
            matvecs += 1
            # the new direction is lost in rounding: two passes no longer
            # leave it orthogonal to the basis
            if beta <= lost * math.sqrt(h @ h + beta * beta):
                return None, residual, matvecs
            H[: j + 1, j] = h
            H[j + 1, j] = beta
            V[j + 1] = w / beta
        theta, Y = np.linalg.eig(H[:m])
        top = int(np.argmax(theta.real))
        scale = 1.0 - theta[top].real
        residual = float(abs(H[m] @ Y[:, top]))
        if residual <= _KRYLOV_TOL * scale:
            x = Y[:, top] @ V[:m]
            r = np.stack([x.real, x.imag]) @ tilde
            residual = float(np.linalg.norm(r[0] + 1j * r[1] - theta[top] * x) / np.linalg.norm(x))
            rho = float(rate * scale)
            if residual > 10.0 * _KRYLOV_TOL * scale or rho + rate * residual < gap:
                return None, residual, matvecs
            return rho, residual, matvecs
        if matvecs >= budget:
            return None, residual, matvecs
        # equal real parts keep a conjugate pair together
        kept = np.flatnonzero(theta.real >= np.sort(theta.real)[-_KRYLOV_KEEP])
        cols = [Y[:, s].real for s in kept if theta[s].imag >= 0.0]
        cols += [Y[:, s].imag for s in kept if theta[s].imag > 0.0]
        Z, _ = np.linalg.qr(np.stack(cols, axis=1))
        k = Z.shape[1]
        H[:k, :k], H[k, :k] = Z.T @ H[:m] @ Z, H[m] @ Z
        H[k + 1 :] = 0.0
        V[:k] = Z.T @ V[:m]
        V[k] = V[m]


def gap(Q: RateMatrix, pi: Distribution, tol: Tolerances = Tolerances()) -> float:
    """Variational spectral gap of the generator: ChainAnalysis(Q, pi, tol).gap."""
    return ChainAnalysis(Q, pi, tol).gap


def eigenvalues(Q: RateMatrix, pi: Distribution, tol: Tolerances = Tolerances()) -> tuple[complex, ...]:
    """Spectrum of Q, sorted by descending real part then ascending
    imaginary part: ChainAnalysis(Q, pi, tol).spectrum."""
    return ChainAnalysis(Q, pi, tol).spectrum


def true_decay_rate(Q: RateMatrix, pi: Distribution, tol: Tolerances = Tolerances()) -> float:
    """Asymptotic exponential decay rate of the semigroup deviation:
    ChainAnalysis(Q, pi, tol).true_decay_rate.  Equals the gap for
    reversible chains and can exceed it for irreversible ones."""
    return ChainAnalysis(Q, pi, tol).true_decay_rate


class ChainAnalysis:
    """The spectral numbers of one chain, each computed at most once and
    only when first read.  Every spectral number in ergorate is read from
    one of these.

    - ``reversible``/``violation``: is_reversible(Q, pi, tol), at the
      spec's own ``tol``.  A law that stationary made from detailed
      balance for this very Q and tol kept that outcome, and it is read
      from there; any other law (LU's, a supplied one, one paired with
      another generator or tolerances) is tested here, once.
    - ``gap``: lam[1] of the pi-symmetrized generator, from one
      values-only eigvalsh (symmetric_eigendecomposition with
      ``vectors=False``), on either verdict: no eigenvector enters it.
    - ``spectrum``: the spectrum of Q, sorted by descending real part then
      ascending imaginary part, with exactly one zero eigenvalue.
      Reversible: an exact 0, then minus lam[1:] of the same eigvalsh,
      real.  Irreversible: one eigvals of Q.  Only analyze and the
      ``eigenvalues`` readers need it.
    - ``true_decay_rate``: minus the largest real part over the nonzero
      spectrum.  Reversible: ``gap``, exactly.  Irreversible, from
      _KRYLOV_MIN_STATES states on: the restarted Arnoldi's (_krylov_rate)
      on the uniformized chain below, with no eigvals; on smaller chains,
      and where the Arnoldi fails one of its checks, the spectrum's.  The
      route depends on the chain alone, not on what was read first.
      ``decay_route`` records it (DecayRoute: the route, the Ritz residual
      and the products taken).
    - ``expansion``: the n - 1 decaying modes of the one eigh
      (symmetric_eigendecomposition), (lam[1:], W, d) with d = sqrt(pi)
      and W the orthonormal columns V[:, 1:] projected orthogonal to d,
      so P_t - pi = D^-1 W diag(exp(-t lam[1:])) W^T D, D = diag(d), on a
      reversible chain.  The stationary mode is not stored.  Built only
      when read, on a reversible chain only: on an irreversible one it
      would expand the reversibilization, not Q.  The spectral propagator
      reads it, so every propagator of one chain shares this one factor.

    The uniformized route reads two private memos.  ``_uniformized`` is
    (Lam', P - 1 pi) with P = I + Q / Lam', entrywise nonnegative and
    row-stochastic, its diagonal rebuilt from the off-diagonal rates; 1 pi
    is subtracted so that a row v with v . 1 = 0 steps to vP with the
    stationary mode deflated.  The analysis alone sets the rate Lam': the
    largest exit rate Lam on an irreversible chain, and max(Lam, lam_max)
    on a reversible one, lam_max the top of the values-only spectrum, so
    that every mode's multiplier 1 - lam_k / Lam' lies in [0, 1].
    ``_dual`` is the analysis of the validated time-reversal dual
    (mu_ft_norm).  In exact arithmetic the dual's fluxes are the transpose
    of Q's and its symmetrized generator is Q's, so it takes this
    chain's verdict and, on a reversible chain, where its uniformization
    rate reads them, its rates: no second test and no second eigvalsh.

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
        Q, tol, outcome = self.stationary._balance
        if Q is self.rate_matrix and tol == self.tol:
            return outcome
        return is_reversible(self.rate_matrix, self.stationary, self.tol)

    @property
    def reversible(self) -> bool:
        return self._verdict[0]

    @property
    def violation(self) -> float:
        return self._verdict[1]

    @cached_property
    def _rates(self) -> NDArray[np.float64]:
        lam, _, _ = symmetric_eigendecomposition(self.rate_matrix, self.stationary, vectors=False)
        return lam

    @cached_property
    def expansion(
        self,
    ) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
        lam, V, d = symmetric_eigendecomposition(self.rate_matrix, self.stationary)
        # eigh's V[:, 0] misses d by up to 4e-10 at n = 1000: 8.5e-9 in deviation row sums
        return lam[1:], V[:, 1:] - np.outer(d, d @ V[:, 1:]), d

    @cached_property
    def gap(self) -> float:
        return float(self._rates[1])

    @cached_property
    def spectrum(self) -> tuple[complex, ...]:
        if self.reversible:
            # the rates ascend, so their negatives already descend
            return (0j, *(-self._rates[1:]).astype(complex).tolist())
        try:
            lam = np.linalg.eigvals(self.rate_matrix.q)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure(f"eigenvalue solver failed: {exc}") from exc
        n_zero = int(np.sum(np.abs(lam) <= _zero_tol(self.rate_matrix)))
        if n_zero != 1:
            raise EigenFailure(f"expected one zero eigenvalue, found {n_zero}")
        order = np.lexsort((lam.imag, -lam.real))
        return tuple(complex(z) for z in lam[order])

    @cached_property
    def decay_route(self) -> DecayRoute:
        if self.reversible:
            return DecayRoute(self.gap, "eigvalsh", math.nan, 0)
        rho, residual, matvecs = None, math.nan, 0
        if self.rate_matrix.n >= _KRYLOV_MIN_STATES:
            rho, residual, matvecs = _krylov_rate(*self._uniformized, self.gap)
        if rho is not None:
            return DecayRoute(rho, "krylov", residual, matvecs)
        tol = _zero_tol(self.rate_matrix)
        rho = float(-max(z.real for z in self.spectrum if abs(z) > tol))
        return DecayRoute(rho, "eigvals", residual, matvecs)

    @property
    def true_decay_rate(self) -> float:
        return self.decay_route.rate

    @cached_property
    def _uniformized(self) -> tuple[float, NDArray[np.float64]]:
        q = self.rate_matrix.q
        off = q - np.diag(np.diag(q))
        exits = off.sum(axis=1)
        rate = float(exits.max())
        if self.reversible:
            rate = max(rate, float(self._rates[-1]))
        P = off / rate
        np.fill_diagonal(P, 1.0 - exits / rate)
        return rate, P - self.stationary.p

    @cached_property
    def _dual(self) -> ChainAnalysis:
        a = ChainAnalysis(dual(self.rate_matrix, self.stationary), self.stationary, self.tol)
        a._verdict = self._verdict
        if self.reversible:
            a._rates = self._rates
        return a


def chain_analysis(spec: ChainSpec) -> ChainAnalysis:
    """The analysis of ``spec``, built on first use and kept on the spec."""
    if spec._analysis is None:
        object.__setattr__(spec, "_analysis", ChainAnalysis(spec.rate_matrix, spec.stationary, spec.tol))
    return spec._analysis


def ergodicity_constant(pi: Distribution, f: WeightFunction) -> NDArray[np.float64]:
    """Per-state constant sqrt(pi(f^2)) * sqrt(1/pi_i - 1) of the
    exponential convergence bound on the weighted norm, with f scaled by
    its max m inside the root so that f_i^2 may overflow.

    sqrt(1/pi_i - 1) is formed as sqrt(rest_i) / sqrt(pi_i), finite for
    every positive pi_i: rest_i is 1 - pi_i, except at the largest pi_i,
    which may be near 1, where it is the sum of the other entries."""
    p = pi.p
    k = int(np.argmax(p))
    rest = 1.0 - p
    rest[k] = p[:k].sum() + p[k + 1:].sum()
    m = float(f.f.max())
    return m * np.sqrt(float(np.dot(p, (f.f / m) ** 2))) * (np.sqrt(rest) / np.sqrt(p))


def spectral_report(spec: ChainSpec) -> SpectralReport:
    """Assemble the full spectral summary for a chain.

    The certified rate equals the gap in both directions for reversible
    chains and is a lower bound for irreversible ones; the slowest true
    decay mode is always reported alongside.  Reads the chain's memoized
    ChainAnalysis: one values-only eigvalsh per spec for the gap.
    Reversible (judged at the spec's rev_tol): the eigenvalues are an
    exact 0 and minus the symmetrized generator's decaying rates, and no
    eigenvector is computed.  Irreversible: the true rate is the restarted
    Arnoldi's from _KRYLOV_MIN_STATES states on (see ChainAnalysis), and
    the report's ``eigenvalues`` are computed when first read, with one
    eigvals; a smaller chain, or one the Arnoldi cannot certify, takes
    that eigvals for its rate.
    """
    a = chain_analysis(spec)
    return SpectralReport(
        gap=a.gap,
        reversible=a.reversible,
        rate_epsilon_max=a.gap,
        true_decay_rate=a.true_decay_rate,
        constants=ergodicity_constant(spec.stationary, spec.weight),
        _analysis=a,
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
    # + 0.0 turns the -0.0 of a constant weight into 0.0 and changes no other value
    c_max = float(np.min(-Qf[outside] / spec.f[outside])) + 0.0
    if c_max <= 0.0:
        raise NoDrift(f"best drift coefficient {c_max:.3e} is not positive")
    b_min = float(np.max(Qf[np.array(C, dtype=int)] + c_max * spec.f[np.array(C, dtype=int)]))
    return DriftReport(c_max=c_max, b_min=b_min, small_set=C)
