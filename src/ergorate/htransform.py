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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray

from .chain_core import ChainSpec
from .errors import ErgorateError
from .semigroup import Propagator, f_norm, opnorm_inf_to_1, opnorm_inf_to_2
from .spectral import chain_analysis


@dataclass(frozen=True)
class LemmaReport:
    """One identity check, JSON-ready.

    ``lhs``/``rhs`` are the two compared scalars where the identity is a
    scalar comparison, else None (vector identities report only the
    residual).
    """

    lemma: str
    inputs: dict[str, Any]
    lhs: float | None
    rhs: float | None
    residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "pass": self.passed,
        }


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

    def __init__(self, spec: ChainSpec, propagator: Propagator | None = None):
        self.base = spec
        self.prop = propagator if propagator is not None else Propagator(spec)
        self.nu = spec.f**2 * spec.pi
        # projection matrix: row i is pi_j f_j / f_i
        self._pif_matrix = np.outer(1.0 / spec.f, spec.pi * spec.f)

    @property
    def qf(self) -> NDArray[np.float64]:
        """Conjugated generator diag(1/f) Q diag(f)."""
        f = self.base.f
        return (self.base.q * f[None, :]) / f[:, None]

    def pf_matrix(self, t: float) -> NDArray[np.float64]:
        """Matrix of the conjugated semigroup at time t."""
        f = self.base.f
        return (self.prop.matrix(t) * f[None, :]) / f[:, None]

    def pf_deviation(self, t: float) -> NDArray[np.float64]:
        """Pf_t minus the conjugated projection, computed from the base
        deviation so the spectral route's relative accuracy is kept."""
        f = self.base.f
        return (self.prop.deviation(t) * f[None, :]) / f[:, None]

    def apply_pf(self, t: float, g: NDArray[np.float64]) -> NDArray[np.float64]:
        return self.pf_matrix(t) @ np.asarray(g, dtype=float)

    def pif(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rank-one projection (pif g)_i = (1/f_i) sum_j pi_j f_j g_j."""
        g = np.asarray(g, dtype=float)
        return float(np.dot(self.base.pi * self.base.f, g)) / self.base.f

    def inner_nu(self, a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
        return float(np.dot(self.nu * np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def transform(spec: ChainSpec, propagator: Propagator | None = None) -> TransformedSemigroup:
    """Materialize the conjugated semigroup objects for a chain."""
    return TransformedSemigroup(spec, propagator)


def check_lemma31(
    T: TransformedSemigroup,
    t: float,
    s: float,
    g1: NDArray[np.float64],
    g2: NDArray[np.float64],
    tol: float = 1e-9,
) -> tuple[LemmaReport, LemmaReport, LemmaReport]:
    """Structural identities of the conjugated family.

    Three residuals: (1) the semigroup law Pf_{t+s} g = Pf_t Pf_s g,
    (2) nu-self-adjointness of Pf_t and of the projection (expected to
    fail for irreversible base chains, and reported as such), and
    (3) the projection identities pif Pf_t g = Pf_t pif g = pif g.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)

    lhs1 = T.apply_pf(t + s, g1)
    rhs1 = T.apply_pf(t, T.apply_pf(s, g1))
    r_semigroup = float(np.max(np.abs(lhs1 - rhs1)))

    r_sym_p = abs(T.inner_nu(T.apply_pf(t, g1), g2) - T.inner_nu(g1, T.apply_pf(t, g2)))
    r_sym_proj = abs(T.inner_nu(T.pif(g1), g2) - T.inner_nu(g1, T.pif(g2)))
    r_symmetry = float(max(r_sym_p, r_sym_proj))

    a = T.pif(T.apply_pf(t, g1))
    b = T.apply_pf(t, T.pif(g1))
    c = T.pif(g1)
    r_projection = float(
        max(np.max(np.abs(a - c)), np.max(np.abs(b - c)), np.max(np.abs(a - b)))
    )

    inputs = {"t": t, "s": s}
    return (
        LemmaReport("lemma31.semigroup", inputs, None, None, r_semigroup, r_semigroup <= tol),
        LemmaReport("lemma31.symmetry", inputs, None, None, r_symmetry, r_symmetry <= tol),
        LemmaReport("lemma31.projection", inputs, None, None, r_projection, r_projection <= tol),
    )


def check_lemma32(T: TransformedSemigroup, t: float, tol: float = 1e-9) -> LemmaReport:
    """Norm identity: the squared infinity-to-2 norm of the conjugated
    deviation at time t equals its infinity-to-1 norm at time 2t.

    Both sides are brute-forced over sign vertices (exact for these
    convex objectives); requires a reversible base chain and n <= 20.
    """
    if not chain_analysis(T.base).reversible:
        raise ErgorateError("norm identity requires a reversible base chain")
    lhs = opnorm_inf_to_2(T.pf_deviation(t), T.nu) ** 2
    rhs = opnorm_inf_to_1(T.pf_deviation(2.0 * t), T.nu)
    residual = abs(lhs - rhs)
    return LemmaReport("lemma32", {"t": t}, float(lhs), float(rhs), float(residual), residual <= tol)


def check_lemma33(T: TransformedSemigroup, t: float, tol: float = 1e-9) -> LemmaReport:
    """Bound: the infinity-to-1 norm of the conjugated deviation is at
    most the pi-f-weighted average of the per-state decay curve values,
    sum_i pi_i f_i || P_t(i,.) - pi ||_f."""
    lhs = opnorm_inf_to_1(T.pf_deviation(t), T.nu)
    dev = T.prop.deviation(t)
    spec = T.base
    rhs = float(sum(spec.pi[i] * spec.f[i] * f_norm(dev[i, :], spec.weight) for i in range(spec.n)))
    slack = lhs - rhs
    return LemmaReport("lemma33", {"t": t}, float(lhs), float(rhs), float(slack), slack <= tol)


def h_function(
    spec: ChainSpec, i: int, s: float, propagator: Propagator | None = None
) -> tuple[HFunction, float, float | None]:
    """The started deviation h_s(i, .) and its squared L2(nu) norm.

    Returns (h, norm_sq_direct, norm_sq_closed) where the closed form
    P_{2s}(i,i)/pi_i - 1 is evaluated only for reversible chains (None
    otherwise).  The direct and closed values agree to solver precision
    in the reversible case, which exercises the same cancellation the
    convergence proof exploits.
    """
    if s <= 0.0:
        raise ErgorateError(f"start time must be positive, got {s}")
    if not 0 <= i < spec.n:
        raise ErgorateError(f"state {i} out of range for {spec.n} states")
    prop = propagator if propagator is not None else Propagator(spec)
    P_s = prop.matrix(s)
    values = P_s[i, :] / (spec.f * spec.pi) - 1.0 / spec.f
    nu = spec.f**2 * spec.pi
    norm_sq = float(np.dot(nu, values**2))
    closed = None
    if chain_analysis(spec).reversible:
        closed = float(prop.matrix(2.0 * s)[i, i] / spec.pi[i] - 1.0)
    return HFunction(s=float(s), i=int(i), values=values), norm_sq, closed


def measured_l2_rate(T: TransformedSemigroup, t: float) -> float:
    """Measured exponential decay rate of the conjugated deviation in
    operator L2(nu) norm: -log ||Pf_t - pif||_{2(nu)} / t.

    The L2(nu) operator norm is the largest singular value of the
    deviation conjugated by sqrt(nu).  For reversible chains this equals
    the variational gap exactly.
    """
    if t <= 0.0:
        raise ErgorateError("need t > 0 to measure a rate")
    root = np.sqrt(T.nu)
    M = (root[:, None] * T.pf_deviation(t)) / root[None, :]
    sigma = float(np.linalg.norm(M, ord=2))
    if sigma <= 0.0:
        raise ErgorateError("deviation norm underflowed; choose a smaller t")
    return -float(np.log(sigma)) / t
