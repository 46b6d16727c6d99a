"""Weight-conjugated semigroup objects and identity checks.

Conjugating the semigroup by the weight, g -> (1/f) P_t (f g), turns
weighted-norm questions about the chain into plain L2 questions under
the reference measure nu_i = f_i^2 pi_i (kept unnormalized on purpose;
it is not a probability measure).  This module materializes the
conjugated semigroup, its generator, the associated rank-one projection,
and the started-deviation function h_s, and provides numeric checkers
for the exact identities the convergence theory rests on: the semigroup
law and nu-self-adjointness of the conjugated family, the equality of
its infinity-to-2 norm at t with the infinity-to-1 norm at 2t, the
bound of the infinity-to-1 norm by the pi-f-averaged decay curve, and
the closed form of || h_s ||^2 under reversibility.

Two of these numbers do not depend on f, and are formed without it, so
they stay finite for any weight.  With d = P_s(i, .) - pi,
|| h_s ||^2_{L2(nu)} = sum_j f_j^2 pi_j (d_j / (f_j pi_j))^2 is
sum_j d_j^2 / pi_j: the weight cancels term by term.  The L2(nu)
operator norm of Pf_t - pif = diag(1/f) (P_t - pi) diag(f) is that of
diag(sqrt(nu)) (Pf_t - pif) diag(1/sqrt(nu)), and with sqrt(nu) = f sqrt(pi)
the f's cancel, leaving diag(sqrt(pi)) (P_t - pi) diag(1/sqrt(pi)).  The
checks that weigh by nu itself (the symmetry residual of lemma 3.1 and
lemmas 3.2 and 3.3) raise ``Overflow`` once f^2 pi leaves the double
range, where they could only report inf or nan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any

import numpy as np
from numpy.typing import NDArray

from .chain_core import ChainSpec
from .errors import ErgorateError, Overflow
from .semigroup import Propagator, opnorm_inf_to_1, opnorm_inf_to_2
from .spectral import chain_analysis

# An identity check passes when its residual (slack, for lemma 3.3) is at
# most LEMMA_TOL x max(1, size of the terms it differences): with a large
# weight the compared terms grow like f, and so does their rounding error.
LEMMA_TOL = 1e-9


def _within_tol(residual: float, *terms) -> bool:
    """residual <= LEMMA_TOL * max(1, largest |entry| among ``terms``)."""
    size = max([1.0] + [float(np.max(np.abs(x))) for x in terms])
    return residual <= LEMMA_TOL * size


@dataclass(frozen=True)
class LemmaReport:
    """One identity check, JSON-ready.

    ``lhs``/``rhs`` are the two compared scalars where the identity is a
    scalar comparison, else None (vector identities report only the
    residual).  ``residual`` is absolute; ``passed`` compares it with
    LEMMA_TOL times the size of the compared terms, at least 1.
    """

    lemma: str
    inputs: dict[str, Any]
    lhs: float | None
    rhs: float | None
    residual: float
    passed: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")  # the last field, so the key order is kept
        return d


@dataclass(frozen=True)
class HFunction:
    """Started deviation h_s(i, .) = P_s(i, .) / (f pi) - 1/f.

    Mean-zero under the conjugated projection for every chain; for
    reversible chains its squared L2(nu) norm collapses to the return
    probability expression P_{2s}(i,i)/pi_i - 1, independent of f.
    """

    s: float
    i: int
    values: NDArray[np.float64]


class TransformedSemigroup:
    """Conjugated semigroup Pf_t = diag(1/f) P_t diag(f) with reference
    measure nu = f^2 pi.

    Not a Markov semigroup in general (rows need not sum to one); it is
    nu-reversible exactly when the base chain is pi-reversible.
    """

    def __init__(self, spec: ChainSpec):
        self.base = spec
        self.prop = Propagator(spec)

    @cached_property
    def nu(self) -> NDArray[np.float64]:
        """Reference measure f^2 pi, formed on first use; ``Overflow`` when
        an entry leaves the double range, where every nu-weighted residual
        would be inf or nan."""
        with np.errstate(over="ignore"):
            nu = self.base.f**2 * self.base.pi
        if not np.all(np.isfinite(nu)):
            raise Overflow(f"reference measure nu = f^2 pi overflows (largest f {self.base.f.max():.3e})")
        return nu

    def _conjugate(self, M: NDArray[np.float64]) -> NDArray[np.float64]:
        """diag(1/f) M diag(f)."""
        return (M * self.base.f[None, :]) / self.base.f[:, None]

    @property
    def qf(self) -> NDArray[np.float64]:
        """Conjugated generator diag(1/f) Q diag(f)."""
        return self._conjugate(self.base.q)

    def pf_matrix(self, t: float) -> NDArray[np.float64]:
        """Matrix of the conjugated semigroup at time t."""
        return self._conjugate(self.prop.matrix(t))

    def pf_deviation(self, t: float) -> NDArray[np.float64]:
        """Pf_t minus the conjugated projection, computed from the base
        deviation so the spectral route's relative accuracy is kept."""
        return self._conjugate(self.prop.deviation(t))

    def pif(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rank-one projection (pif g)_i = (1/f_i) sum_j pi_j f_j g_j."""
        g = np.asarray(g, dtype=float)
        return float(np.dot(self.base.pi * self.base.f, g)) / self.base.f

    def inner_nu(self, a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
        return float(np.dot(self.nu * np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def transform(spec: ChainSpec) -> TransformedSemigroup:
    """Materialize the conjugated semigroup objects for a chain."""
    return TransformedSemigroup(spec)


def check_lemma31(
    T: TransformedSemigroup,
    t: float,
    s: float,
    g1: NDArray[np.float64],
    g2: NDArray[np.float64],
) -> tuple[LemmaReport, LemmaReport, LemmaReport]:
    """Structural identities of the conjugated family.

    Three residuals: (1) the semigroup law Pf_{t+s} g = Pf_t Pf_s g,
    (2) nu-self-adjointness of Pf_t and of the projection (expected to
    fail for irreversible base chains, and reported as such), and
    (3) the projection identities pif Pf_t g = Pf_t pif g = pif g.
    Each passes when its residual is within LEMMA_TOL of the largest
    compared entry (or of 1): the two vectors of (1), the four inner
    products of (2), the three vectors of (3).
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    Pf_ts, Pf_t, Pf_s = (T.pf_matrix(u) for u in (t + s, t, s))

    x, y = Pf_ts @ g1, Pf_t @ (Pf_s @ g1)
    r_semigroup = float(np.max(np.abs(x - y)))

    inner = np.array([
        T.inner_nu(Pf_t @ g1, g2), T.inner_nu(g1, Pf_t @ g2),
        T.inner_nu(T.pif(g1), g2), T.inner_nu(g1, T.pif(g2)),
    ])
    r_symmetry = float(max(abs(inner[0] - inner[1]), abs(inner[2] - inner[3])))

    a = T.pif(Pf_t @ g1)
    b = Pf_t @ T.pif(g1)
    c = T.pif(g1)
    r_projection = float(
        max(np.max(np.abs(a - c)), np.max(np.abs(b - c)), np.max(np.abs(a - b)))
    )

    inputs = {"t": t, "s": s}
    return (
        LemmaReport("lemma31.semigroup", inputs, None, None, r_semigroup, _within_tol(r_semigroup, x, y)),
        LemmaReport("lemma31.symmetry", inputs, None, None, r_symmetry, _within_tol(r_symmetry, inner)),
        LemmaReport("lemma31.projection", inputs, None, None, r_projection, _within_tol(r_projection, a, b, c)),
    )


def check_lemma32(T: TransformedSemigroup, t: float) -> LemmaReport:
    """Norm identity: the squared infinity-to-2 norm of the conjugated
    deviation at time t equals its infinity-to-1 norm at time 2t.

    Both sides are brute-forced over sign vertices (exact for these
    convex objectives); requires a reversible base chain and n <= 20.
    Passes when |lhs - rhs| <= LEMMA_TOL * max(1, lhs, rhs).
    """
    if not chain_analysis(T.base).reversible:
        raise ErgorateError("norm identity requires a reversible base chain")
    lhs = opnorm_inf_to_2(T.pf_deviation(t), T.nu) ** 2
    rhs = opnorm_inf_to_1(T.pf_deviation(2.0 * t), T.nu)
    residual = abs(lhs - rhs)
    return LemmaReport("lemma32", {"t": t}, float(lhs), float(rhs), float(residual), _within_tol(residual, lhs, rhs))


def check_lemma33(T: TransformedSemigroup, t: float) -> LemmaReport:
    """Bound: the infinity-to-1 norm of the conjugated deviation is at
    most the pi-f-weighted average of the per-state decay curve values,
    sum_i pi_i f_i || P_t(i,.) - pi ||_f.  Passes when the slack
    lhs - rhs is at most LEMMA_TOL * max(1, rhs)."""
    dev = T.prop.deviation(t)
    lhs = opnorm_inf_to_1(T._conjugate(dev), T.nu)
    spec = T.base
    rhs = float((spec.pi * spec.f) @ (np.abs(dev) @ spec.f))
    slack = lhs - rhs
    return LemmaReport("lemma33", {"t": t}, float(lhs), float(rhs), float(slack), _within_tol(slack, rhs))


def h_function(spec: ChainSpec, i: int, s: float) -> tuple[HFunction, float, float | None]:
    """The started deviation h_s(i, .) and its squared L2(nu) norm.

    Returns (h, norm_sq_direct, norm_sq_closed), read from one O(n^2)
    Propagator.row_deviations call of the row's deviation d = P_s(i, .) - pi:
    h = d / (f pi), norm_sq_direct = sum_j d_j^2 / pi_j, and on a
    reversible chain the closed form P_{2s}(i,i)/pi_i - 1, taken as
    (P_{2s}(i,i) - pi_i) / pi_i (None otherwise).  The norm is formed
    without f: in sum_j f_j^2 pi_j h_j^2 the weight cancels exactly, so
    it stays finite for any weight.  Deviations keep the spectral route's
    relative accuracy, which P / (f pi) - 1 / f cancels away at large s,
    so direct and closed agree to solver precision: the cancellation the
    convergence proof exploits.

    A start time s <= 0 is refused here; row_deviations checks the state
    and refuses a non-finite s or one past the time-rate bound.
    """
    if s <= 0.0:
        raise ErgorateError(f"start time must be positive, got {s}")
    reversible = chain_analysis(spec).reversible
    dev = Propagator(spec).row_deviations(i, np.array([s, 2.0 * s] if reversible else [s]))
    values = dev[0] / (spec.f * spec.pi)
    norm_sq = float(np.dot(dev[0], dev[0] / spec.pi))
    closed = float(dev[1, i] / spec.pi[i]) if reversible else None
    return HFunction(s=float(s), i=int(i), values=values), norm_sq, closed


def measured_l2_rate(T: TransformedSemigroup, t: float) -> float:
    """Measured exponential decay rate of the conjugated deviation in
    operator L2(nu) norm: -log ||Pf_t - pif||_{2(nu)} / t.

    The L2(nu) operator norm is the largest singular value of the
    deviation conjugated by sqrt(nu) = f sqrt(pi), whose f cancels the
    conjugation's exactly: it is taken from diag(sqrt(pi)) (P_t - pi)
    diag(1/sqrt(pi)), with no f formed.  For reversible chains this
    equals the variational gap exactly.
    """
    if t <= 0.0:
        raise ErgorateError("need t > 0 to measure a rate")
    root = np.sqrt(T.base.pi)
    M = (root[:, None] * T.prop.deviation(t)) / root[None, :]
    sigma = float(np.linalg.norm(M, ord=2))
    if sigma <= 0.0:
        raise ErgorateError("deviation norm underflowed; choose a smaller t")
    return -float(np.log(sigma)) / t
