"""Semigroup evaluation, weighted-norm decay curves, and rate fitting.

The transition semigroup P_t = exp(tQ) is realized two ways: a spectral
route for reversible chains (eigendecomposition of the symmetrized
generator; doubles as an independent cross-check and yields the
deviation P_t - limit with *relative* accuracy at any magnitude, since
the stationary mode is removed analytically) and a Pade route for
general chains (deviation obtained by subtraction, so its noise floor is
absolute, near 1e-14).  The eigensystem comes from the chain's memoized
analysis (spectral.chain_analysis), so it is computed once per chain.

Decay curves need only the start state's row of P_t.  The spectral route
evaluates every grid time in one (G x n) @ (n x n) product.  The Pade
route takes a dense scaling-and-squaring exponential per grid time on
small chains; from _ROW_STEPPING_MIN_N states on, it propagates the unit
row along the grid with the action of the exponential
(scipy.sparse.linalg.expm_multiply) and never forms exp(tQ).

Rate fitting supports a plain log-linear mode for monotone curves and a
peak-envelope mode for oscillating ones.  Oscillating curves from
complex spectra carry several interleaved families of local maxima per
oscillation period; the peak mode detects the family structure from the
periodicity of peak spacings and fits through the family of the tallest
peak only, which restores an exactly log-linear point set.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.sparse.linalg import expm_multiply

from .chain_core import ChainSpec, WeightFunction, dual
from .errors import ErgorateError, InsufficientData, NoiseFloor, Overflow, TooLarge
from .spectral import chain_analysis, ergodicity_constant

# Beyond this the scaled matrix exponential is not trustworthy; far past
# any desk-scale use.
_MAX_TIME_RATE = 1e12

# Absolute accuracy of deviations obtained by subtracting the limit
# matrix from a Pade-computed exponential.
_PADE_FLOOR = 1e-14
# The spectral route computes deviations with relative accuracy; its
# floor is the edge of normal double range.
_SPECTRAL_FLOOR = 1e-300

_NEGATIVE_DUST = 1e-12

# Pade-route decay curves switch from one dense exp(tQ) per grid time to
# propagating the start row with expm_multiply at this many states.
# Measured on a 60-point default grid (2-vCPU x86 VM, 1 BLAS thread):
# the two cost about the same at n = 60, stepping is 3x cheaper at
# n = 100 and 6x at n = 130, and below n = 50 its fixed cost of about
# 0.2 ms per call loses.
_ROW_STEPPING_MIN_N = 60


@dataclass(frozen=True)
class SemigroupSnapshot:
    """The transition matrix at a single time.

    ``method`` records which route produced it ("spectral" or "pade").
    Entries in [-1e-12, 0) are floating-point dust and are clamped to 0;
    anything more negative triggers a warning and is left visible.
    """

    t: float
    P: NDArray[np.float64]
    method: str


@dataclass(frozen=True)
class DecayCurve:
    """Sampled weighted-norm distance to stationarity from one state.

    ``envelope`` is the theoretical bound constant * exp(-rate * t) with
    the per-state constant and the variational-gap rate;
    ``envelope_rate`` stores that rate for window defaults.
    ``noise_floor`` is the accuracy floor of the method that produced
    ``fnorms`` (absolute ~1e-14 for the subtraction route, edge of
    double range for the spectral route).
    """

    state: int
    times: NDArray[np.float64]
    fnorms: NDArray[np.float64]
    envelope: NDArray[np.float64]
    envelope_rate: float
    noise_floor: float
    method: str


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential-rate fit of a decay curve.

    ``intercept`` is the fitted log-line value at t = 0.  ``residual``
    is the max absolute deviation of log(fnorm) from the line over the
    fitted points (all window points in log-linear mode, the selected
    peak family in peak mode).
    """

    rate: float
    intercept: float
    window: tuple[float, float]
    residual: float
    mode: str
    n_points: int

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "intercept": self.intercept,
            "window": list(self.window),
            "residual": self.residual,
            "mode": self.mode,
            "n_points": self.n_points,
        }


class Propagator:
    """Evaluator for P_t and its deviation from the stationary limit.

    ``method`` is "spectral" (reversible chains), "pade", or "auto"
    (spectral when the chain passes the detailed-balance test).  The
    verdict and the eigensystem are read from the chain's memoized
    analysis, so building several propagators for one spec decomposes
    once.  ``matrix``, ``deviation`` and ``snapshot`` return full n x n
    matrices; snapshots at distinct times are independent (and may be
    taken concurrently).  Decay curves read only one row per time; see
    decay_curve.
    """

    def __init__(self, spec: ChainSpec, method: str = "auto"):
        if method not in ("auto", "spectral", "pade"):
            raise ErgorateError(f"unknown semigroup method {method!r}")
        self.spec = spec
        if method == "auto":
            method = "spectral" if chain_analysis(spec).reversible else "pade"
        self.method = method
        self._limit = np.outer(np.ones(spec.n), spec.pi)
        if method == "spectral":
            lam, V, d = chain_analysis(spec).eigensystem
            self._lam = lam
            self._psi = V / d[:, None]
            self._phi = (V * d[:, None]).T
            self.noise_floor = _SPECTRAL_FLOOR
        else:
            self.noise_floor = _PADE_FLOOR

    def _check_time(self, t: float) -> None:
        if t < 0.0:
            raise ErgorateError(f"time must be nonnegative, got {t}")
        if t * self.spec.rate_matrix.max_rate > _MAX_TIME_RATE:
            raise Overflow(f"time-rate product {t * self.spec.rate_matrix.max_rate:.3e} too large")

    def matrix(self, t: float) -> NDArray[np.float64]:
        """Raw exp(tQ) without clamping."""
        self._check_time(t)
        if self.method == "spectral":
            return (self._psi * np.exp(-t * self._lam)[None, :]) @ self._phi
        return scipy.linalg.expm(t * self.spec.q)

    def deviation(self, t: float) -> NDArray[np.float64]:
        """exp(tQ) minus the rank-one stationary limit.

        On the spectral route the zero mode is dropped analytically, so
        entries keep full relative accuracy however small they are; on
        the Pade route the limit is subtracted numerically and accuracy
        is absolute (~1e-14).
        """
        self._check_time(t)
        if self.method == "spectral":
            decay = np.exp(-t * self._lam[1:])
            return (self._psi[:, 1:] * decay[None, :]) @ self._phi[1:, :]
        return scipy.linalg.expm(t * self.spec.q) - self._limit

    def _row_deviations(self, i: int, times: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rows P_t(i, .) - pi for increasing ``times``, shape (G, n).

        Equals deviation(t)[i] for each t, without forming any other row.
        """
        for t in (times[0], times[-1]):
            self._check_time(float(t))
        spec = self.spec
        if self.method == "spectral":
            decay = np.exp(-np.outer(times, self._lam[1:]))
            return (self._psi[i, 1:] * decay) @ self._phi[1:, :]
        if spec.n < _ROW_STEPPING_MIN_N:
            return np.array([scipy.linalg.expm(t * spec.q)[i] for t in times]) - spec.pi
        # e_i P_t = (exp(t Q^T) e_i)^T, carried from each grid time to the
        # next.  expm_multiply's work grows linearly with ||h Q||_1, a dense
        # exponential's only with its log, so a step past n / 4 in that
        # norm is taken densely; this bounds the cost of long steps
        # (measured per step at n 130-300, expm_multiply is still the
        # cheaper one at n / 4).
        qt = spec.q.T
        norm = float(np.max(np.abs(qt).sum(axis=0)))
        v = np.zeros(spec.n)
        v[i] = 1.0
        rows = np.empty((times.size, spec.n))
        prev = 0.0
        for k, t in enumerate(times):
            h = float(t) - prev
            if h * norm > 0.25 * spec.n:
                v = v @ scipy.linalg.expm(h * spec.q)
            elif h > 0.0:
                v = expm_multiply(h * qt, v)
            rows[k] = v
            prev = float(t)
        return rows - spec.pi

    def snapshot(self, t: float) -> SemigroupSnapshot:
        """P_t with dust clamped, row-stochasticity enforced."""
        P = self.matrix(t)
        worst = float(P.min())
        if worst < -_NEGATIVE_DUST:
            warnings.warn(
                f"semigroup entry {worst:.3e} below the dust threshold at t={t}",
                RuntimeWarning,
                stacklevel=2,
            )
        P = np.where((P < 0.0) & (P >= -_NEGATIVE_DUST), 0.0, P)
        row_err = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
        if row_err > 1e-10:
            raise ErgorateError(f"semigroup rows deviate from stochastic by {row_err:.3e}")
        return SemigroupSnapshot(t=float(t), P=P, method=self.method)


def expm(spec: ChainSpec, t: float, method: str = "auto") -> SemigroupSnapshot:
    """One-off snapshot of exp(tQ); see Propagator for repeated use."""
    return Propagator(spec, method=method).snapshot(t)


def f_norm(nu: NDArray[np.float64], f: WeightFunction | NDArray[np.float64]) -> float:
    """Weighted total-variation norm sum_i f_i |nu_i| of a signed measure.

    With unit weights this is the ordinary total-variation norm.
    """
    fv = f.f if isinstance(f, WeightFunction) else np.asarray(f, dtype=float)
    return float(np.dot(fv, np.abs(np.asarray(nu, dtype=float))))


def default_time_grid(rate_guess: float, points: int = 60, tmax: float | None = None) -> NDArray[np.float64]:
    """Log-spaced grid on [0.01, 10/rate_guess] (or an explicit tmax)
    resolving both the transient and the asymptotic regime."""
    if rate_guess <= 0 and tmax is None:
        raise ErgorateError("need a positive rate guess or an explicit tmax")
    T = tmax if tmax is not None else 10.0 / rate_guess
    if T <= 0.01:
        raise ErgorateError(f"horizon {T} too short for the default grid")
    return np.geomspace(0.01, T, points)


def decay_curve(
    spec: ChainSpec,
    i: int,
    grid: NDArray[np.float64],
    propagator: Propagator | None = None,
) -> DecayCurve:
    """Weighted-norm distance of P_t(i, .) to stationarity over a grid,
    with the theoretical exponential envelope alongside.

    Only row i of P_t is computed (see Propagator's routes).  The
    envelope rate is the gap from the chain's memoized analysis.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0.0) or grid[0] < 0.0:
        raise ErgorateError("time grid must be strictly increasing and nonnegative")
    if not 0 <= i < spec.n:
        raise ErgorateError(f"state {i} out of range for {spec.n} states")
    prop = propagator if propagator is not None else Propagator(spec)
    fn = np.abs(prop._row_deviations(i, grid)) @ spec.f
    g = chain_analysis(spec).gap
    C = ergodicity_constant(spec.stationary, spec.weight)[i]
    env = C * np.exp(-g * grid)
    return DecayCurve(
        state=int(i),
        times=grid,
        fnorms=fn,
        envelope=env,
        envelope_rate=g,
        noise_floor=prop.noise_floor,
        method=prop.method,
    )


def _local_maxima(y: NDArray[np.float64]) -> NDArray[np.int_]:
    """Indices of strict 3-point local maxima."""
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def _select_peak_family(
    t: NDArray[np.float64], logy: NDArray[np.float64], pk: NDArray[np.int_]
) -> NDArray[np.int_]:
    """Reduce mixed-phase local maxima to a single-phase family.

    An oscillation with several sub-peaks per period produces a peak
    spacing sequence that repeats with the number of interleaved
    families F.  The smallest F whose shift leaves the spacing sequence
    invariant (within grid resolution) identifies the period; the family
    of the tallest peak is then extracted by phase.  If no periodicity
    is detected, all peaks are kept.
    """
    s = np.diff(t[pk])
    if len(s) < 2:
        return pk
    dt_grid = float(np.median(np.diff(t)))
    tol_s = 2.0 * dt_grid + 0.02 * float(np.mean(s))
    c0 = -np.polyfit(t[pk], logy[pk], 1)[0]
    height = logy[pk] + c0 * t[pk]
    for F in range(1, len(s) // 2 + 1):
        if np.all(np.abs(s[F:] - s[:-F]) <= tol_s):
            T = float(np.median(t[pk[F:]] - t[pk[:-F]]))
            anchor = t[pk[np.argmax(height)]]
            phase = np.mod(t[pk] - anchor + 0.5 * T, T) - 0.5 * T
            family = pk[np.abs(phase) <= max(3.0 * dt_grid, 0.1 * T)]
            if len(family) >= 3:
                return family
            break
    return pk


def fit_rate(
    curve: DecayCurve,
    window: tuple[float, float] | None = None,
    mode: str = "auto",
) -> RateFit:
    """Fit an exponential decay rate to a curve segment.

    Parameters
    ----------
    curve : DecayCurve
    window : (t_min, t_max), optional
        Fit window.  Defaults to [2, 6] / envelope_rate clipped to the
        grid and to the curve's noise floor.
    mode : {"auto", "loglinear", "peaks"}
        "auto" selects peak-envelope mode when the windowed curve is
        non-monotone (has a 3-point local maximum), else log-linear.

    In log-linear mode the rate is the negated slope of the least-squares
    line through (t, log fnorm) over all window points.  In peak mode
    the line goes through the dominant single-phase family of local
    maxima of the detrended curve, which for an exponentially damped
    oscillation lies exactly on a log-line with the true decay rate.

    Raises
    ------
    InsufficientData
        Fewer than 5 grid points in the window, or fewer than 3 peaks in
        peak mode.
    NoiseFloor
        An explicitly requested window contains values at or below the
        curve's noise floor.
    """
    if mode not in ("auto", "loglinear", "peaks"):
        raise ErgorateError(f"unknown fit mode {mode!r}")
    times, fn, floor = curve.times, curve.fnorms, curve.noise_floor
    defaulted = window is None
    if defaulted:
        rg = curve.envelope_rate
        if rg <= 0.0:
            raise ErgorateError("curve has no positive envelope rate; pass a window")
        window = (2.0 / rg, 6.0 / rg)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not t_hi > t_lo:
        raise ErgorateError(f"empty window {window}")

    def _masked(lo: float, hi: float, clip_floor: bool):
        m = (times >= lo) & (times <= hi)
        if clip_floor:
            m &= fn > floor
        return m

    mask = _masked(t_lo, t_hi, clip_floor=defaulted)
    if not defaulted and np.any(fn[_masked(t_lo, t_hi, False)] <= floor):
        raise NoiseFloor(f"window [{t_lo}, {t_hi}] touches the noise floor {floor:.1e}")
    if int(mask.sum()) < 5:
        raise InsufficientData(f"only {int(mask.sum())} usable grid points in window")

    t = times[mask]
    logy = np.log(fn[mask])

    if mode == "auto":
        mode = "peaks" if _local_maxima(fn[mask]).size > 0 else "loglinear"

    if mode == "loglinear":
        co = np.polyfit(t, logy, 1)
        fitted_t, fitted_y = t, logy
    else:
        # A damped oscillation's raw log-curve can be monotone; peaks
        # only become visible after removing the mean decay trend.
        def _detrended_peaks(tt, yy):
            slope = np.polyfit(tt, yy, 1)[0]
            return _local_maxima(yy - slope * tt)

        pk = _detrended_peaks(t, logy)
        if pk.size < 3 and defaulted:
            # widen to everything above the noise floor and retry
            mask = fn > floor
            if int(mask.sum()) >= 5:
                t = times[mask]
                logy = np.log(fn[mask])
                t_lo, t_hi = float(t[0]), float(t[-1])
                pk = _detrended_peaks(t, logy)
        if pk.size < 3:
            raise InsufficientData(f"peak mode needs >= 3 detrended peaks, found {pk.size}")
        sel = _select_peak_family(t, logy, pk)
        co = np.polyfit(t[sel], logy[sel], 1)
        fitted_t, fitted_y = t[sel], logy[sel]

    residual = float(np.max(np.abs(fitted_y - np.polyval(co, fitted_t))))
    return RateFit(
        rate=float(-co[0]),
        intercept=float(co[1]),
        window=(t_lo, t_hi),
        residual=residual,
        mode=mode,
        n_points=int(fitted_t.size),
    )


def mu_ft_norm(
    mu: NDArray[np.float64], spec: ChainSpec, t: float, propagator: Propagator | None = None
) -> tuple[float, float]:
    """Weighted-norm distance of mu P_t to stationarity, two ways.

    Returns (direct, via_dual): the direct value || mu P_t - pi ||_f and
    the same quantity through the time-reversal identity
    || f * (P*_t h - 1) ||_{L1(pi)} with h = mu / pi and P*_t the dual
    semigroup.  The two code paths share nothing past the chain spec, so
    their agreement is a genuine cross-check.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (spec.n,):
        raise ErgorateError(f"mu must have shape ({spec.n},)")
    if np.any(mu < 0.0) or abs(mu.sum() - 1.0) > 1e-10:
        raise ErgorateError("mu must be a probability vector")
    prop = propagator if propagator is not None else Propagator(spec)
    direct = f_norm(mu @ prop.deviation(t), spec.weight)

    Qhat = dual(spec.rate_matrix, spec.stationary)
    h = mu / spec.pi
    Pstar_h = scipy.linalg.expm(t * Qhat.q) @ h
    via_dual = float(np.dot(spec.pi, spec.f * np.abs(Pstar_h - 1.0)))
    return direct, via_dual


def _sign_blocks(n: int, block: int = 1 << 14):
    """Yield blocks of all sign vectors in {-1,+1}^n with first entry +1."""
    total = 1 << (n - 1)
    bits = np.arange(n - 1, dtype=np.uint64)
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.uint64)
        G = np.empty((codes.size, n))
        G[:, 0] = 1.0
        G[:, 1:] = np.where((codes[:, None] >> bits[None, :]) & np.uint64(1), 1.0, -1.0)
        yield G


def _vertex_max(A: NDArray[np.float64], nu: NDArray[np.float64], image) -> float:
    """max over g in {-1,+1}^n of sum_i nu_i image((A g)_i).

    For a convex image function the objective is convex in g, so its
    max over the cube |g| <= 1 sits at a vertex; enumerating sign vectors
    (2^(n-1) after the symmetry g -> -g) is exact.  Capped at n = 20.
    """
    A = np.asarray(A, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or nu.shape != (n,):
        raise ErgorateError("need a square operator and a matching measure vector")
    if n > 20:
        raise TooLarge(f"sign enumeration capped at n = 20, got {n}")
    best = 0.0
    for G in _sign_blocks(n):
        best = max(best, float((image(G @ A.T) @ nu).max()))
    return best


def opnorm_inf_to_1(A: NDArray[np.float64], nu: NDArray[np.float64]) -> float:
    """Exact operator norm from L-infinity(nu) to L1(nu), by vertex
    enumeration of max sum_i nu_i |(A g)_i| over |g| <= 1."""
    return _vertex_max(A, nu, np.abs)


def opnorm_inf_to_2(A: NDArray[np.float64], nu: NDArray[np.float64]) -> float:
    """Exact operator norm from L-infinity(nu) to L2(nu), same vertex
    enumeration (the squared image norm is a convex quadratic)."""
    return float(np.sqrt(_vertex_max(A, nu, np.square)))


def decay_curve_to_csv(curve: DecayCurve) -> str:
    """Serialize a decay curve to CSV with header t,fnorm,envelope at
    full double precision."""
    buf = io.StringIO()
    buf.write("t,fnorm,envelope\n")
    for t, fn, env in zip(curve.times, curve.fnorms, curve.envelope):
        buf.write(f"{t:.17g},{fn:.17g},{env:.17g}\n")
    return buf.getvalue()
