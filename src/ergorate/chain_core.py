"""Construction, validation, and algebraic transforms of finite-state
continuous-time Markov chains.

A chain is described by a conservative rate matrix Q (nonnegative
off-diagonal entries, zero row sums, strongly connected positive-rate
digraph), its stationary distribution pi solving pi Q = 0, and a weight
vector f >= 1 that defines the weighted total-variation norm used
throughout the package.  This module owns the domain types, the
invariant checks, the stationary solve, the time-reversal dual, the
additive symmetrization, builders for the two closed-form example
families plus birth-death chains, and a reflecting finite truncation of
countable chains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ErgorateError,
    InvalidBeta,
    NegativeRate,
    NonConservative,
    Reducible,
    SingularSystem,
    ZeroRate,
)

# Tolerances (double precision, dense problems up to a few thousand states).
ROW_TOL = 1e-10    # row-sum residual, relative to max |q_ij|
STAT_TOL = 1e-10   # stationarity residual ||pi Q||_inf, relative to max |q_ij|
REV_TOL = 1e-9     # detailed-balance violation, relative to max_i!=j pi_i q_ij
SUM_TOL = 1e-10    # probability-vector mass defect |sum p - 1|


def _frozen(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Return a C-contiguous float64 copy with the write flag cleared."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RateMatrix:
    """A conservative generator on a finite state set.

    Attributes
    ----------
    n : int
        Number of states.
    q : ndarray, shape (n, n)
        Transition rates; off-diagonal entries are nonnegative and every
        row sums to zero.  The array is read-only.
    """

    n: int
    q: NDArray[np.float64]

    @property
    def max_rate(self) -> float:
        """max |q_ij|, the natural scale for residual tolerances."""
        return float(np.max(np.abs(self.q)))


@dataclass(frozen=True)
class Distribution:
    """A strictly positive probability vector."""

    p: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class WeightFunction:
    """A weight vector f with f_i >= 1 defining the weighted norm
    ||nu||_f = sum_i f_i |nu_i|."""

    f: NDArray[np.float64]

    @property
    def n(self) -> int:
        return self.f.shape[0]


@dataclass(frozen=True)
class ChainSpec:
    """A fully assembled chain: generator, weight, stationary law, label.

    The spec is immutable, so its spectral analysis is computed at most
    once and kept in a private memo slot (see spectral.chain_analysis);
    the slot takes no part in construction, repr or equality.
    """

    rate_matrix: RateMatrix
    weight: WeightFunction
    stationary: Distribution
    label: str = ""
    _analysis: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.rate_matrix.n

    @property
    def q(self) -> NDArray[np.float64]:
        return self.rate_matrix.q

    @property
    def pi(self) -> NDArray[np.float64]:
        return self.stationary.p

    @property
    def f(self) -> NDArray[np.float64]:
        return self.weight.f


@dataclass(frozen=True)
class TruncatedChain:
    """A finite window onto a countable chain.

    ``retained_mass`` is sum_{i<N} pi_i of the *untruncated* stationary
    law when the caller supplied it, else None.  It quantifies how much
    of the infinite chain the window captures; the reflecting policy
    redirects the lost outflow into the diagonal so the window is again
    conservative.
    """

    spec: ChainSpec
    retained_mass: float | None = None


def validate(q_raw: Sequence[Sequence[float]] | NDArray, repair: bool = False) -> RateMatrix:
    """Check a raw square matrix and promote it to a RateMatrix.

    Parameters
    ----------
    q_raw : array_like, shape (n, n)
        Candidate rate matrix.
    repair : bool
        When True, the diagonal is recomputed as the negative row sum of
        the off-diagonal entries instead of being checked.  Used by
        algebraic transforms whose off-diagonals are exact but whose
        diagonals carry accumulated roundoff.

    Raises
    ------
    NegativeRate
        Some off-diagonal entry is negative.
    NonConservative
        A row sum exceeds ROW_TOL * max|q_ij| in strict mode.
    Reducible
        The positive-rate digraph is not strongly connected.
    """
    q = np.array(q_raw, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise NonConservative(f"rate matrix must be square, got shape {q.shape}")
    n = q.shape[0]
    if n < 2:
        raise Reducible(f"need at least 2 states, got {n}")
    if not np.all(np.isfinite(q)):
        raise NonConservative("rate matrix contains non-finite entries")

    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeRate(f"negative off-diagonal rate q[{i},{j}] = {q[i, j]}")

    if repair:
        q = off.copy()
        np.fill_diagonal(q, -off.sum(axis=1))
    else:
        scale = float(np.max(np.abs(q)))
        if scale == 0.0:
            raise Reducible("zero matrix cannot be irreducible")
        rowsum = q.sum(axis=1)
        bad = np.abs(rowsum) > ROW_TOL * scale
        if np.any(bad):
            i = int(np.argmax(np.abs(rowsum)))
            raise NonConservative(f"row {i} sums to {rowsum[i]:.3e}, exceeds tolerance")

    ncomp, _ = connected_components(csr_matrix(off > 0.0), connection="strong")
    if ncomp != 1:
        raise Reducible(f"positive-rate digraph has {ncomp} strongly connected components")

    return RateMatrix(n=n, q=_frozen(q))


def distribution(p_raw: Sequence[float] | NDArray) -> Distribution:
    """Validate a strictly positive probability vector."""
    p = np.array(p_raw, dtype=float)
    if p.ndim != 1:
        raise ErgorateError(f"distribution must be a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ErgorateError("distribution contains non-finite entries")
    if np.any(p <= 0.0):
        i = int(np.argmin(p))
        raise ErgorateError(f"distribution must be strictly positive, p[{i}] = {p[i]}")
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise ErgorateError(f"distribution mass {p.sum()!r} deviates from 1 beyond tolerance")
    return Distribution(p=_frozen(p))


def weight_function(f_raw: Sequence[float] | NDArray) -> WeightFunction:
    """Validate a weight vector with every entry >= 1."""
    f = np.array(f_raw, dtype=float)
    if f.ndim != 1:
        raise ErgorateError(f"weight must be a vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ErgorateError("weight contains non-finite entries")
    if np.any(f < 1.0):
        i = int(np.argmin(f))
        raise ErgorateError(f"weights must be >= 1, f[{i}] = {f[i]}")
    return WeightFunction(f=_frozen(f))


def stationary(Q: RateMatrix) -> Distribution:
    """Solve pi Q = 0 with the mass-one normalization.

    The transposed balance system has a one-dimensional null space for an
    irreducible conservative generator; the last (redundant) equation is
    replaced by the all-ones normalization row, giving a square
    deterministic solve.

    Raises
    ------
    SingularSystem
        The replaced system is singular or the residual check fails,
        which signals a numerically near-reducible chain.
    """
    n = Q.n
    A = Q.q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    residual = float(np.max(np.abs(p @ Q.q)))
    if residual > STAT_TOL * Q.max_rate:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds tolerance")
    if np.any(p <= 0.0):
        raise SingularSystem("stationary solve produced non-positive entries")
    p = p / p.sum()
    return Distribution(p=_frozen(p))


def is_reversible(Q: RateMatrix, pi: Distribution) -> tuple[bool, float]:
    """Detailed-balance test pi_i q_ij = pi_j q_ji.

    Returns
    -------
    (verdict, max_violation)
        verdict is True iff the largest violation max_{i != j}
        |pi_i q_ij - pi_j q_ji| is at most REV_TOL times the largest
        off-diagonal flux pi_i q_ij; the raw violation is returned for
        reporting either way.
    """
    flux = pi.p[:, None] * Q.q
    np.fill_diagonal(flux, 0.0)
    violation = float(np.max(np.abs(flux - flux.T)))
    scale = float(np.max(flux))
    return violation <= REV_TOL * scale, violation


def dual(Q: RateMatrix, pi: Distribution) -> RateMatrix:
    """Time-reversal dual generator, qhat_ij = pi_j q_ji / pi_i.

    The dual has the same stationary law; applying it twice returns Q.
    For reversible chains the dual equals Q itself.
    """
    qhat = (pi.p[None, :] * Q.q.T) / pi.p[:, None]
    return validate(qhat, repair=True)


def reversibilize(Q: RateMatrix, pi: Distribution) -> RateMatrix:
    """Additive symmetrization (Q + dual(Q)) / 2.

    Reversible with respect to the same pi, and its quadratic form
    coincides with that of Q, so it carries the variational gap of the
    original chain.
    """
    qbar = 0.5 * (Q.q + dual(Q, pi).q)
    return validate(qbar, repair=True)


def chain_spec(
    Q: RateMatrix,
    weight: WeightFunction,
    pi: Distribution | None = None,
    label: str = "",
) -> ChainSpec:
    """Assemble a ChainSpec, solving for the stationary law if absent.

    A caller-supplied pi is checked against the generator at STAT_TOL
    rather than trusted.
    """
    if weight.n != Q.n:
        raise ErgorateError(f"weight length {weight.n} does not match state count {Q.n}")
    if pi is None:
        pi = stationary(Q)
    else:
        if pi.n != Q.n:
            raise ErgorateError(f"stationary length {pi.n} does not match state count {Q.n}")
        residual = float(np.max(np.abs(pi.p @ Q.q)))
        if residual > STAT_TOL * Q.max_rate:
            raise ErgorateError(
                f"supplied stationary law has residual {residual:.3e}, exceeds tolerance"
            )
    return ChainSpec(rate_matrix=Q, weight=weight, stationary=pi, label=label)


def build_example21(pi_raw: Sequence[float] | NDArray, beta: float) -> ChainSpec:
    """Complete-graph chain whose every jump resamples from pi.

    Rates are q_ij = pi_j for j != i, so each row of Q is pi minus the
    identity row and the input pi is stationary by construction.  The
    weight is f_0 = 1 and f_i = beta for i >= 1.  The quadratic form of
    this generator equals the pi-variance, which pins its gap at exactly 1.
    """
    if not beta > 1.0:
        raise InvalidBeta(f"beta must exceed 1, got {beta}")
    pi = distribution(pi_raw)
    n = pi.n
    q = np.tile(pi.p, (n, 1))
    np.fill_diagonal(q, pi.p - 1.0)
    f = np.full(n, float(beta))
    f[0] = 1.0
    Q = validate(q)
    return chain_spec(Q, weight_function(f), pi=pi, label="example21")


# The fixed 3-state irreversible chain: a directed cycle with one slow edge.
_EXAMPLE22_Q = np.array(
    [
        [-0.5, 0.5, 0.0],
        [0.0, -1.0, 1.0],
        [1.0, 0.0, -1.0],
    ]
)
_EXAMPLE22_PI = np.array([0.5, 0.25, 0.25])


def build_example22(f_raw: Sequence[float] | NDArray | None = None) -> ChainSpec:
    """The fixed 3-state irreversible cycle chain.

    Stationary law (1/2, 1/4, 1/4); complex spectrum, so its weighted-norm
    decay oscillates and the true decay rate 5/4 strictly exceeds the
    variational gap 1.  The weight defaults to all ones.
    """
    f = np.ones(3) if f_raw is None else np.asarray(f_raw, dtype=float)
    Q = validate(_EXAMPLE22_Q)
    return chain_spec(
        Q, weight_function(f), pi=distribution(_EXAMPLE22_PI), label="example22"
    )


def build_birth_death(
    birth: Sequence[float] | NDArray,
    death: Sequence[float] | NDArray,
    f_raw: Sequence[float] | NDArray | None = None,
) -> ChainSpec:
    """Tridiagonal chain on {0, ..., n-1}; reversible by construction.

    Parameters
    ----------
    birth : array_like, length n-1
        Up-rates birth[i] for the jump i -> i+1.
    death : array_like, length n-1
        Down-rates death[i] for the jump i+1 -> i.
    f_raw : array_like, optional
        Weight vector; defaults to all ones.

    The stationary law follows the detailed-balance recursion
    pi_{i+1} = pi_i * birth[i] / death[i], computed here independently of
    the generic linear solve so the two paths cross-check each other.
    """
    b = np.asarray(birth, dtype=float)
    d = np.asarray(death, dtype=float)
    if b.ndim != 1 or d.shape != b.shape:
        raise ErgorateError("birth and death must be equal-length vectors")
    n = b.shape[0] + 1
    if n < 2:
        raise ErgorateError("need at least 2 states")
    if np.any(b <= 0.0) or np.any(d <= 0.0):
        raise ZeroRate("all birth and death rates must be positive for irreducibility")

    q = np.zeros((n, n))
    idx = np.arange(n - 1)
    q[idx, idx + 1] = b
    q[idx + 1, idx] = d
    np.fill_diagonal(q, -q.sum(axis=1))

    p = np.empty(n)
    p[0] = 1.0
    for i in range(n - 1):
        p[i + 1] = p[i] * b[i] / d[i]
    p /= p.sum()

    f = np.ones(n) if f_raw is None else np.asarray(f_raw, dtype=float)
    Q = validate(q)
    return chain_spec(Q, weight_function(f), pi=distribution(p), label="birth_death")


def truncate(
    rate_rule: Callable[[int, int], float],
    N: int,
    weight_rule: Callable[[int], float] | None = None,
    pi_rule: Callable[[int], float] | None = None,
    label: str = "truncated",
) -> TruncatedChain:
    """Reflecting truncation of a countable chain to the window {0,...,N-1}.

    ``rate_rule(i, j)`` gives the off-diagonal rate of the countable
    chain.  Rates leaving the window are dropped and the diagonal is
    recomputed as the negative row sum, so the truncated generator is
    conservative (the lost outflow is reflected into longer holding
    times).  When ``pi_rule`` gives the untruncated stationary weights,
    the retained mass sum_{i<N} pi_i is reported as a truncation-error
    diagnostic.

    Raises
    ------
    Reducible
        The truncation disconnects the window.
    """
    if N < 2:
        raise Reducible(f"window must contain at least 2 states, got {N}")
    q = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j:
                rate = float(rate_rule(i, j))
                if rate < 0.0:
                    raise NegativeRate(f"rule produced negative rate at ({i},{j})")
                q[i, j] = rate
    np.fill_diagonal(q, -q.sum(axis=1))
    Q = validate(q)

    f = np.ones(N) if weight_rule is None else np.array([weight_rule(i) for i in range(N)])
    spec = chain_spec(Q, weight_function(f), label=label)

    mass = None
    if pi_rule is not None:
        mass = float(sum(pi_rule(i) for i in range(N)))
    return TruncatedChain(spec=spec, retained_mass=mass)


def _reject_constant(token: str) -> None:
    raise ErgorateError(f"non-finite JSON number {token!r} not accepted")


def parse_chain_dict(obj: dict) -> ChainSpec:
    """Build a ChainSpec from a parsed chain-spec JSON object.

    Two shapes are accepted: an explicit matrix
    ``{"label", "Q", "f", "pi"?}`` or a builtin family
    ``{"family": "example21" | "example22" | "birth_death", ...params}``.
    """
    if not isinstance(obj, dict):
        raise ErgorateError("chain spec must be a JSON object")
    if "family" in obj:
        family = obj["family"]
        label = obj.get("label")
        if family == "example21":
            if "pi" not in obj or "beta" not in obj:
                raise ErgorateError("family example21 requires 'pi' and 'beta'")
            spec = build_example21(obj["pi"], float(obj["beta"]))
        elif family == "example22":
            spec = build_example22(obj.get("f"))
        elif family == "birth_death":
            if "birth" not in obj or "death" not in obj:
                raise ErgorateError("family birth_death requires 'birth' and 'death'")
            spec = build_birth_death(obj["birth"], obj["death"], obj.get("f"))
        else:
            raise ErgorateError(f"unknown family {family!r}")
        if label is not None:
            spec = ChainSpec(
                rate_matrix=spec.rate_matrix,
                weight=spec.weight,
                stationary=spec.stationary,
                label=str(label),
            )
        return spec

    if "Q" not in obj or "f" not in obj:
        raise ErgorateError("chain spec requires 'Q' and 'f' (or a 'family')")
    Q = validate(obj["Q"])
    pi = distribution(obj["pi"]) if "pi" in obj else None
    return chain_spec(
        Q, weight_function(obj["f"]), pi=pi, label=str(obj.get("label", ""))
    )


def load_chain_file(path: str) -> ChainSpec:
    """Read a UTF-8 chain-spec JSON file; NaN/Infinity are rejected."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ErgorateError(f"malformed JSON in {path}: {exc}") from exc
    return parse_chain_dict(obj)
