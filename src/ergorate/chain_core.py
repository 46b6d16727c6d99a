"""Construction, validation, and algebraic transforms of finite-state
continuous-time Markov chains.

A chain is described by a conservative rate matrix Q (nonnegative
off-diagonal entries, zero row sums, strongly connected positive-rate
digraph), its stationary distribution pi solving pi Q = 0, and a weight
vector f >= 1 that defines the weighted total-variation norm used
throughout the package.  This module owns the domain types, the
invariant checks, the stationary law (from detailed balance along the
breadth-first tree validate keeps when the chain is reversible, from an
LU solve otherwise), the one detailed-balance test, is_reversible, whose
outcome the detailed-balance law keeps, the time-reversal dual, the
additive symmetrization, builders for the two closed-form example
families plus birth-death chains and their registry, the Tolerances the
checks read, and a reflecting finite truncation of countable chains,
returned as a ChainSpec labelled "truncated" like every other builder's.
build_birth_death and truncate leave the diagonal to
validate(..., repair=True), as dual and reversibilize do.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ErgorateError,
    InvalidBeta,
    NegativeRate,
    NonConservative,
    Reducible,
    SingularSystem,
    ZeroRate,
)

# Read-only Tolerances defaults (double precision, up to a few thousand states).
ROW_TOL = 1e-10    # row-sum residual, relative to max |q_ij|
STAT_TOL = 1e-10   # stationarity residual ||pi Q||_inf, relative to max |q_ij|
REV_TOL = 1e-9     # per-edge detailed-balance defect, relative to the pair's larger flux
SUM_TOL = 1e-10    # probability-vector mass defect |sum p - 1|


@dataclass(frozen=True)
class Tolerances:
    """The three settable tolerances; ErgorateError unless each is positive and finite."""

    row_tol: float = ROW_TOL
    stat_tol: float = STAT_TOL
    rev_tol: float = REV_TOL

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < math.inf:
                raise ErgorateError(f"{f.name} must be positive and finite, got {value!r}")


def _floats(raw, name: str) -> NDArray[np.float64]:
    """``raw`` as a new float array; ErgorateError naming ``name`` if it is not numeric."""
    try:
        return np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ErgorateError(f"{name} must be numeric: {exc}") from exc


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

    @cached_property
    def max_rate(self) -> float:
        """max |q_ij|, the natural scale for residual tolerances; computed
        on first read (q is read-only)."""
        return float(np.max(np.abs(self.q)))

    @cached_property
    def _tree(self) -> NDArray[np.intp]:
        """Read-only parents of a breadth-first tree from state 0 along
        positive rates (see _bfs_parents).  validate keeps the tree of its
        connectivity check here, so only a RateMatrix built directly
        traverses its digraph on first read."""
        adj = self.q > 0.0
        np.fill_diagonal(adj, False)
        return _bfs_parents(adj)


@dataclass(frozen=True)
class Distribution:
    """A strictly positive probability vector.

    A law made by stationary from detailed balance keeps, in a private
    slot, (Q, tol, is_reversible(Q, law, tol)): the test it passed, tied
    to the generator and tolerances it was run at; any other law keeps
    (None, None, None).  The slot takes no part in construction, repr or
    equality.
    """

    p: NDArray[np.float64]
    _balance: tuple = field(default=(None, None, None), init=False, repr=False, compare=False)

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
    """A fully assembled chain: generator, weight, stationary law, label, tolerances.

    The spec is immutable, so its spectral analysis is computed at most
    once and kept in a private memo slot (see spectral.chain_analysis);
    the slot takes no part in construction, repr or equality.
    """

    rate_matrix: RateMatrix
    weight: WeightFunction
    stationary: Distribution
    label: str = ""
    tol: Tolerances = Tolerances()
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


def state_index(i, n: int) -> int:
    """State ``i`` of an n-state chain as an int.  An int or a numpy
    integer in [0, n) passes; anything else, a float such as 1.0
    included, raises ErgorateError naming the value."""
    try:
        k = operator.index(i)
    except TypeError:
        raise ErgorateError(f"state {i!r} is not an integer") from None
    if not 0 <= k < n:
        raise ErgorateError(f"state {k} out of range for {n} states")
    return k


def validate(
    q_raw: Sequence[Sequence[float]] | NDArray, repair: bool = False, tol: Tolerances = Tolerances()
) -> RateMatrix:
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
    ErgorateError
        Some entry is not a number.
    NegativeRate
        Some off-diagonal entry is negative.
    NonConservative
        A row sum exceeds tol.row_tol * max|q_ij| in strict mode.
    Reducible
        The positive-rate digraph is not strongly connected: some state
        cannot be reached from state 0 along positive rates, or cannot
        reach it.  The first is found by a breadth-first search from
        state 0, whose tree the RateMatrix keeps for stationary.  When
        every tree edge runs both ways, every state reaches 0 back up the
        tree; otherwise the same search runs in the transposed digraph.
    """
    q = _floats(q_raw, "rate matrix Q")
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
        bad = np.abs(rowsum) > tol.row_tol * scale
        if np.any(bad):
            i = int(np.argmax(np.abs(rowsum)))
            raise NonConservative(f"row {i} sums to {rowsum[i]:.3e}, exceeds tolerance")

    adj = off > 0.0
    tree = _bfs_parents(adj)
    if tree.min() < 0:
        raise Reducible(f"state {int(np.argmin(tree))} is not reachable from state 0 along positive rates")
    # Every state reaches 0 back up the tree when each tree edge runs both
    # ways; only a chain with a one-way tree edge needs the reverse search.
    if not adj[np.arange(1, n), tree[1:]].all():
        back = _bfs_parents(adj.T)
        if back.min() < 0:
            raise Reducible(f"state {int(np.argmin(back))} cannot reach state 0 along positive rates")

    Q = RateMatrix(n=n, q=_frozen(q))
    vars(Q)["_tree"] = tree  # fills the cached property: each chain is traversed once
    return Q


def _bfs_parents(adj: NDArray[np.bool_]) -> NDArray[np.intp]:
    """Read-only parents of a breadth-first tree from state 0 in the
    digraph ``adj``: parent[0] = 0, and -1 for a state that state 0 does
    not reach.  Each level's states take the first state of the level before
    with an edge to them."""
    parent = np.full(adj.shape[0], -1, dtype=np.intp)
    parent[0] = 0
    front = np.zeros(1, dtype=np.intp)
    while front.size:
        reach = adj[front]
        kids = np.flatnonzero(reach.any(axis=0) & (parent < 0))
        parent[kids] = front[reach[:, kids].argmax(axis=0)]
        front = kids
    parent.setflags(write=False)
    return parent


def distribution(p_raw: Sequence[float] | NDArray) -> Distribution:
    """Validate a strictly positive probability vector."""
    p = _floats(p_raw, "distribution pi")
    if p.ndim != 1:
        raise ErgorateError(f"distribution must be a vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ErgorateError("distribution contains non-finite entries")
    if np.any(p <= 0.0):
        i = int(np.argmin(p))
        raise ErgorateError(f"distribution must be strictly positive, p[{i}] = {p[i]}")
    mass = float(p.sum())
    if abs(mass - 1.0) > SUM_TOL:
        raise ErgorateError(f"distribution mass {mass!r} deviates from 1 beyond tolerance")
    return Distribution(p=_frozen(p))


def weight_function(f_raw: Sequence[float] | NDArray) -> WeightFunction:
    """Validate a weight vector with every entry >= 1."""
    f = _floats(f_raw, "weight f")
    if f.ndim != 1:
        raise ErgorateError(f"weight must be a vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ErgorateError("weight contains non-finite entries")
    if np.any(f < 1.0):
        i = int(np.argmin(f))
        raise ErgorateError(f"weights must be >= 1, f[{i}] = {f[i]}")
    return WeightFunction(f=_frozen(f))


def stationary_residual(Q: RateMatrix, p: NDArray[np.float64], tol: Tolerances) -> tuple[float, float]:
    """(max_j |(p Q)_j|, tol.stat_tol * max|q_ij|): p passes as a
    stationary law of Q when the residual is at most the bound."""
    return float(abs(p @ Q.q).max()), tol.stat_tol * Q.max_rate


def _balanced_law(Q: RateMatrix, tol: Tolerances) -> Distribution | None:
    """The detailed-balance law of Q, or None where it is not Q's law.

    Along each edge of Q._tree, pi_c / pi_p = q_pc / q_cp; the log-ratios
    are summed from the root by pointer doubling (log2 of the depth
    steps) and normalized with the maximum subtracted, so no product of
    ratios over- or underflows before the last exp.  The law is returned
    only if every tree edge runs both ways, no entry underflows to 0, the
    stationary residual passes and is_reversible passes it, and it keeps that outcome
    (Distribution._balance).  The residual comes first, so most
    irreversible chains leave after one matrix-vector product.

    Raises
    ------
    SingularSystem
        Some entry of the law underflows to 0, yet Q is reversible: the
        rates sqrt(pi_i / pi_j) q_ij, formed from the log law, pass
        is_reversible against the uniform law.  Their pair (i, j) is pi_i
        q_ij and pi_j q_ji, both divided by sqrt(pi_i pi_j), so the test
        is Q's, and they stay in range where pi does not.
    """
    q, parent = Q.q, Q._tree
    pars = parent[1:]
    if pars.min() < 0:
        return None
    kids = np.arange(1, Q.n)
    up = q[kids, pars]
    if not (up > 0.0).all():
        return None
    lp = np.zeros(Q.n)
    lp[1:] = np.log(q[pars, kids]) - np.log(up)
    anc = parent
    while anc.any():
        lp += lp[anc]
        anc = anc[anc]
    p = np.exp(lp - lp.max())
    total = p.sum()
    p /= total
    if not p.all():
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.where(q > 0.0, q * np.exp(0.5 * (lp[:, None] - lp[None, :])), 0.0)
        if is_reversible(RateMatrix(n=Q.n, q=s), Distribution(p=np.full(Q.n, 1.0 / Q.n)), tol)[0]:
            low = (lp.min() - lp.max() - np.log(total)) / np.log(10.0)
            raise SingularSystem(f"the detailed-balance law underflows: smallest log10 pi is {low:.1f}")
        return None
    residual, bound = stationary_residual(Q, p, tol)
    if residual > bound:
        return None
    law = Distribution(p=_frozen(p))
    object.__setattr__(law, "_balance", (Q, tol, is_reversible(Q, law, tol)))
    return law if law._balance[2][0] else None


def stationary(Q: RateMatrix, tol: Tolerances = Tolerances()) -> Distribution:
    """The law pi with pi Q = 0 and mass one.

    A reversible chain takes the detailed-balance law of _balanced_law,
    whose relative error does not grow with how widely pi spans.  Every other
    chain takes an LU solve:
    the transposed balance system has a one-dimensional null space for an
    irreducible conservative generator, so its last (redundant) equation
    is replaced by the all-ones normalization row, giving a square
    deterministic solve.

    Raises
    ------
    SingularSystem
        The chain is reversible but its law underflows the doubles, the
        LU solve's system is singular, its residual exceeds
        tol.stat_tol * max|q_ij|, which signals a numerically
        near-reducible chain, or its law has an entry <= 0.
    """
    law = _balanced_law(Q, tol)
    if law is not None:
        return law
    n = Q.n
    A = Q.q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"stationary solve failed: {exc}") from exc
    residual, bound = stationary_residual(Q, p, tol)
    if residual > bound:
        raise SingularSystem(f"stationary residual {residual:.3e} exceeds tolerance")
    if np.any(p <= 0.0):
        raise SingularSystem("stationary solve produced non-positive entries")
    p = p / p.sum()
    return Distribution(p=_frozen(p))


def is_reversible(Q: RateMatrix, pi: Distribution, tol: Tolerances = Tolerances()) -> tuple[bool, float]:
    """The detailed-balance test, per edge: every pair of states passes
    |pi_i q_ij - pi_j q_ji| <= tol.rev_tol * max(pi_i q_ij, pi_j q_ji).

    Returns
    -------
    (verdict, violation)
        violation is the largest relative defect |a - b| / max(a, b) over
        the pairs' two fluxes a and b: 0 under exact balance, 1 for a
        one-way edge, none for a pair with no rate either way.  verdict is
        violation <= tol.rev_tol.  Neither changes under Q -> cQ or a
        relabelling of the states, up to rounding.
    """
    flux = pi.p[:, None] * Q.q
    # 1 - |a - b| / max(a, b) = min(a, b) / max(a, b) is the least of b / a
    # over both orders; fmin skips a rateless pair's NaN, and the diagonal's
    # ratio is 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        violation = 1.0 - float(np.fmin.reduce(flux.T / flux, axis=None))
    return violation <= tol.rev_tol, violation


def _reversed_rates(Q: RateMatrix, pi: Distribution) -> NDArray[np.float64]:
    """pi_j q_ji / pi_i for every (i, j), diagonal included, unvalidated."""
    return (pi.p[None, :] * Q.q.T) / pi.p[:, None]


def dual(Q: RateMatrix, pi: Distribution) -> RateMatrix:
    """Time-reversal dual generator, qhat_ij = pi_j q_ji / pi_i.

    The dual has the same stationary law; applying it twice returns Q.
    For reversible chains the dual equals Q itself.
    """
    return validate(_reversed_rates(Q, pi), repair=True)


def reversibilize(Q: RateMatrix, pi: Distribution) -> RateMatrix:
    """Additive symmetrization (Q + dual(Q)) / 2.

    Reversible with respect to the same pi, and its quadratic form
    coincides with that of Q, so it carries the variational gap of the
    original chain.
    """
    # repair rewrites the diagonal, so the unvalidated dual's off-diagonals suffice
    return validate(0.5 * (Q.q + _reversed_rates(Q, pi)), repair=True)


def chain_spec(
    Q: RateMatrix,
    weight: WeightFunction,
    pi: Distribution | None = None,
    label: str = "",
    tol: Tolerances = Tolerances(),
) -> ChainSpec:
    """Assemble a ChainSpec carrying ``tol``, with pi from stationary(Q,
    tol) if absent: the detailed-balance law on a reversible chain, an LU
    solve otherwise.

    A caller-supplied pi is checked against the generator at tol.stat_tol
    rather than trusted.
    """
    if weight.n != Q.n:
        raise ErgorateError(f"weight length {weight.n} does not match state count {Q.n}")
    if pi is None:
        pi = stationary(Q, tol)
    else:
        if pi.n != Q.n:
            raise ErgorateError(f"stationary length {pi.n} does not match state count {Q.n}")
        residual, bound = stationary_residual(Q, pi.p, tol)
        if residual > bound:
            raise ErgorateError(
                f"supplied stationary law has residual {residual:.3e}, exceeds tolerance"
            )
    return ChainSpec(rate_matrix=Q, weight=weight, stationary=pi, label=label, tol=tol)


def build_example21(
    pi_raw: Sequence[float] | NDArray, beta: float, tol: Tolerances = Tolerances()
) -> ChainSpec:
    """Complete-graph chain whose every jump resamples from pi.

    Rates are q_ij = pi_j for j != i, so each row of Q is pi minus the
    identity row and the input pi is stationary by construction.  The
    weight is f_0 = 1 and f_i = beta for i >= 1.  The quadratic form of
    this generator equals the pi-variance, which pins its gap at exactly 1.
    """
    try:
        beta = float(beta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ErgorateError(f"beta must be a number, got {beta!r}") from exc
    if not beta > 1.0:
        raise InvalidBeta(f"beta must exceed 1, got {beta}")
    pi = distribution(pi_raw)
    n = pi.n
    q = np.tile(pi.p, (n, 1))
    np.fill_diagonal(q, pi.p - 1.0)
    f = np.full(n, beta)
    f[0] = 1.0
    Q = validate(q, tol=tol)
    return chain_spec(Q, weight_function(f), pi=pi, label="example21", tol=tol)


# The fixed 3-state irreversible chain: a directed cycle with one slow edge.
_EXAMPLE22_Q = np.array(
    [
        [-0.5, 0.5, 0.0],
        [0.0, -1.0, 1.0],
        [1.0, 0.0, -1.0],
    ]
)
_EXAMPLE22_PI = np.array([0.5, 0.25, 0.25])


def build_example22(
    f_raw: Sequence[float] | NDArray | None = None, tol: Tolerances = Tolerances()
) -> ChainSpec:
    """The fixed 3-state irreversible cycle chain.

    Stationary law (1/2, 1/4, 1/4); complex spectrum, so its weighted-norm
    decay oscillates and the true decay rate 5/4 strictly exceeds the
    variational gap 1.  The weight defaults to all ones.
    """
    f = weight_function(np.ones(3) if f_raw is None else f_raw)
    Q = validate(_EXAMPLE22_Q, tol=tol)
    return chain_spec(Q, f, pi=distribution(_EXAMPLE22_PI), label="example22", tol=tol)


def build_birth_death(
    birth: Sequence[float] | NDArray,
    death: Sequence[float] | NDArray,
    f_raw: Sequence[float] | NDArray | None = None,
    tol: Tolerances = Tolerances(),
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
    b = _floats(birth, "birth")
    d = _floats(death, "death")
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

    p = np.empty(n)
    p[0] = 1.0
    for i in range(n - 1):
        p[i + 1] = p[i] * b[i] / d[i]
    p /= p.sum()

    f = weight_function(np.ones(n) if f_raw is None else f_raw)
    Q = validate(q, repair=True)
    return chain_spec(Q, f, pi=distribution(p), label="birth_death", tol=tol)


class Family(NamedTuple):
    """A builtin family: builder, chain-file keys it takes, reversible by construction."""

    build: Callable[..., ChainSpec]
    required: tuple[str, ...]
    optional: tuple[str, ...]
    reversible: bool


# The one family registry: chain files, the CLI and the verify battery read it.
FAMILIES = {
    "example21": Family(build_example21, ("pi", "beta"), (), True),
    "example22": Family(build_example22, (), ("f",), False),
    "birth_death": Family(build_birth_death, ("birth", "death"), ("f",), True),
}


def truncate(
    rate_rule: Callable[[int, int], float],
    N: int,
    weight_rule: Callable[[int], float] | None = None,
) -> ChainSpec:
    """Reflecting truncation of a countable chain to the window {0,...,N-1},
    as a ChainSpec labelled "truncated".

    ``rate_rule(i, j)`` gives the off-diagonal rates and ``weight_rule(i)``
    the weight (default all ones).  Rates leaving the window are dropped;
    validate sets the diagonal to the negative row sum, so the lost
    outflow is reflected into longer holding times, and raises for a
    negative or non-numeric rate or a disconnected window.
    """
    if N < 2:
        raise Reducible(f"window must contain at least 2 states, got {N}")
    q = [[0.0 if i == j else rate_rule(i, j) for j in range(N)] for i in range(N)]
    f = np.ones(N) if weight_rule is None else np.array([weight_rule(i) for i in range(N)])
    return chain_spec(validate(q, repair=True), weight_function(f), label="truncated")


def _reject_constant(token: str) -> None:
    raise ErgorateError(f"non-finite JSON number {token!r} not accepted")


def _reject_unknown_keys(obj: dict, accepted: tuple[str, ...]) -> None:
    unknown = [key for key in obj if key not in accepted]
    if unknown:
        raise ErgorateError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in chain spec;"
            f" accepted: {', '.join(map(repr, accepted))}"
        )


def parse_chain_dict(obj: dict, tol: Tolerances = Tolerances()) -> ChainSpec:
    """Build a ChainSpec carrying ``tol`` from a parsed chain-spec JSON object.

    Two shapes are accepted: an explicit matrix
    ``{"label", "Q", "f", "pi"?}`` or a builtin family
    ``{"family": <a FAMILIES key>, "label"?, ...params}``.  Any other key
    raises ErgorateError naming it, as does a value that is not numeric.
    A ``"label": null`` counts as no label: "" for a matrix, the
    builder's for a family.
    """
    if not isinstance(obj, dict):
        raise ErgorateError("chain spec must be a JSON object")
    label = obj.get("label")
    if "family" in obj:
        name = obj["family"]
        family = FAMILIES.get(name) if isinstance(name, str) else None
        if family is None:
            raise ErgorateError(f"unknown family {name!r}")
        _reject_unknown_keys(obj, ("family", "label", *family.required, *family.optional))
        if any(key not in obj for key in family.required):
            raise ErgorateError(f"family {name} requires {' and '.join(map(repr, family.required))}")
        params = [obj[key] for key in family.required] + [obj.get(key) for key in family.optional]
        spec = family.build(*params, tol=tol)
        return spec if label is None else replace(spec, label=str(label))

    _reject_unknown_keys(obj, ("label", "Q", "f", "pi"))
    if "Q" not in obj or "f" not in obj:
        raise ErgorateError("chain spec requires 'Q' and 'f' (or a 'family')")
    Q = validate(obj["Q"], tol=tol)
    pi = distribution(obj["pi"]) if "pi" in obj else None
    return chain_spec(
        Q, weight_function(obj["f"]), pi=pi, label="" if label is None else str(label), tol=tol
    )


def load_chain_file(path: str, tol: Tolerances = Tolerances()) -> ChainSpec:
    """Read a UTF-8 chain-spec JSON file; NaN/Infinity are rejected.

    A file that cannot be opened or is not UTF-8 raises ErgorateError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ErgorateError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ErgorateError(f"{path} is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ErgorateError(f"malformed JSON in {path}: {exc}") from exc
    return parse_chain_dict(obj, tol)
