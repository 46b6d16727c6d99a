"""Semigroup evaluation, weighted-norm decay curves, and rate fitting.

The transition semigroup P_t = exp(tQ) has one propagator per chain, and
the chain's detailed-balance verdict picks its route.  A reversible chain
takes the spectral route: the eigen-expansion of the symmetrized
generator's n - 1 decaying modes, one orthonormal factor W with
P_t - pi = D^-1 W exp(-t lam) W^T D, D = diag(sqrt(pi)), which yields the
deviation with *relative* accuracy at any magnitude.  Any other chain
takes the uniformized route (Jensen 1953; Grassmann 1977): at the rate
Lam that the chain's analysis sets, its largest exit rate, P = I + Q / Lam
is stochastic and entrywise nonnegative, and
exp(tQ) = sum_k Pois(k; Lam t) P^k, weighted by Poisson probabilities
from the pmf recurrence.  On both, P_t is the deviation plus pi.  The
verdict, the expansion and the uniformized pieces come from the chain's
memoized analysis (spectral.chain_analysis), so they are computed once
per chain, and the expansion only when a deviation reads it.

On the uniformized route a whole deviation D(t) = P_t - 1 pi is summed
at a short time and squared up to t (_deviation; scaling and squaring,
Moler & Van Loan, SIAM Rev. 45, 2003), never formed by subtracting the
limit from an O(1) matrix, so its error stays small relative to D(t).

Decay curves need only the start state's row of P_t.  The spectral route
evaluates every grid time in one (G x n) @ (n x n) product.  The
uniformized route walks the grid carrying the row's deviation
v = e_i P_t - pi: every time within _UNIFORM_TERMS / Lam of the last time
reached comes from one sequence of row-vector products v, vPt, vPt^2, ...
with Pt = P - 1 pi, which deflates the stationary mode in each step, and a
longer gap is taken as v D(gap).  No step subtracts pi from an O(1) row;
the route keeps its absolute noise floor of 1e-14 for the fit.  A
reversible chain's curve on a grid short enough is swept the same way and
needs no eigenvector (decay_curve); on a reversible chain the analysis
raises the rate to the top of the spectrum, where no term cancels.

Rate fitting supports a plain log-linear mode for monotone curves and a
peak-envelope mode for oscillating ones.  Oscillating curves from
complex spectra carry several interleaved families of local maxima per
oscillation period; the peak mode detects the family structure from the
periodicity of peak spacings and fits through the family of the tallest
peak only, which restores an exactly log-linear point set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.typing import NDArray

from .chain_core import ChainSpec, WeightFunction, state_index
from .errors import ErgorateError, InsufficientData, NoiseFloor, Overflow, TooLarge
from .spectral import ChainAnalysis, chain_analysis, ergodicity_constant

# Beyond this the scaled matrix exponential is not trustworthy; far past
# any desk-scale use.
_MAX_TIME_RATE = 1e12

# Accuracy floor of the uniformized route's rows on an irreversible chain,
# whose Poisson sums can cancel.
_UNIFORMIZED_FLOOR = 1e-14
# The spectral route computes deviations with relative accuracy; its
# floor is the edge of normal double range.
_SPECTRAL_FLOOR = 1e-300

# Term budget B of one uniformization segment: a decay curve evaluates
# every grid time within B / (uniformization rate) of the last time
# reached from one sequence of row-vector products, and takes a longer gap
# with one whole deviation (_deviation).  A reversible curve is swept, in
# place of the expansion's eigh, only when its whole grid fits in
# min(n, B) terms' worth of rate times time: the sweep's cost grows with
# the terms, the eigh's with n^3.  Measured on a 2-vCPU x86 VM (numpy
# 2.4, one BLAS thread, best of 9) against a dense Pade exponential, not
# against _deviation, a one-time segment of Poisson mean B costs the
# same as one dense row exponential over its span at B ~ 20 for n = 50,
# ~ 100 for n = 80, ~ 450 for n = 130 and ~ 1200 for n = 200-300; at
# n <= 20 the dense step is cheaper for any B (0.02-0.05 ms against a
# segment's fixed 0.11 ms).  B is the crossover at n = 80, the middle
# of that range on a log scale.
_UNIFORM_TERMS = 100

# Upper Poisson tail left out of each uniformization segment.
_POISSON_TAIL = 1e-17


@dataclass(frozen=True)
class DecayCurve:
    """Sampled weighted-norm distance to stationarity from one state.

    ``envelope`` is the theoretical bound constant * exp(-rate * t) with
    the per-state constant and the variational-gap rate;
    ``envelope_rate`` stores that rate for window defaults.
    ``method`` names the route that produced ``fnorms``: "spectral" or
    "uniformized".  ``noise_floor`` is the accuracy floor of the chain's
    verdict, not of the method: the edge of double range on a reversible
    chain, whose curves keep relative accuracy on both routes (a swept
    one has no cancelling term), and 1e-14 otherwise.
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
    fitted points (all usable points in log-linear mode, the selected
    peak family in peak mode).
    """

    rate: float
    intercept: float
    window: tuple[float, float]
    residual: float
    mode: str
    n_points: int

    def to_dict(self) -> dict:
        return asdict(self)


class Propagator:
    """Evaluator for P_t and its deviation from the stationary limit.

    The chain's detailed-balance verdict picks the route, recorded in
    ``method``: "spectral" on a reversible chain, "uniformized" otherwise.  The
    verdict and the spectral factor are read from the chain's memoized
    analysis, so building a propagator does no O(n^2) work and takes no
    decomposition; the spectral deviations read the expansion of the
    decaying modes, built once per spec, on first use.
    ``deviation`` returns the full n x n P_t - pi, and ``matrix`` adds
    pi to it, for the identity checks and ``verify``.
    ``row_deviations`` is the one row path, read by h_function and by
    every decay curve that is not swept (decay_curve).
    """

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self._analysis = chain_analysis(spec)
        if self._analysis.reversible:
            self.method = "spectral"
            self.noise_floor = _SPECTRAL_FLOOR
        else:
            self.method = "uniformized"
            self.noise_floor = _UNIFORMIZED_FLOOR

    def _checked(self, times) -> NDArray[np.float64]:
        """``times`` as a float vector, once it passes the row path's
        contract on times (see row_deviations)."""
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
            raise ErgorateError("time grid must be a nonempty vector of finite times")
        if np.any(np.diff(times) <= 0.0) or times[0] < 0.0:
            raise ErgorateError("time grid must be strictly increasing and nonnegative")
        top = times[-1] * self.spec.rate_matrix.max_rate
        if top > _MAX_TIME_RATE:
            raise Overflow(f"time-rate product {top:.3e} too large")
        return times

    def matrix(self, t: float) -> NDArray[np.float64]:
        """The transition matrix exp(tQ), as deviation(t) + pi."""
        return self.deviation(t) + self.spec.pi

    def deviation(self, t: float) -> NDArray[np.float64]:
        """exp(tQ) minus the rank-one stationary limit.

        On the spectral route only the decaying modes are summed, so
        entries keep full relative accuracy however small they are; on
        the uniformized route the deviation is squared up from a short
        time (_deviation), so its error is small relative to its norm.
        ``t`` is checked as a one-time grid, so a non-scalar, negative,
        non-finite or too large time is refused.
        """
        t = self._checked([t])[0]
        if self.method == "spectral":
            lam, W, d = self._analysis.expansion
            return ((W * np.exp(-t * lam)) @ W.T) * (d / d[:, None])
        return _deviation(self._analysis, t)

    def row_deviations(self, i: int, times: NDArray[np.float64]) -> NDArray[np.float64]:
        """Rows P_t(i, .) - pi for increasing ``times``, shape (G, n).

        Equals deviation(t)[i] for each t, without forming any other row:
        one O(G n^2) product on the spectral route; on the uniformized
        route row-vector products with Poisson weights, and one whole
        deviation per grid gap longer than _UNIFORM_TERMS over the chain's
        uniformization rate.

        This is where the row path's input is checked, for decay_curve and
        h_function alike: ``ErgorateError`` unless ``i`` is an integer
        (a numpy integer included) with 0 <= i < n and ``times`` is a
        nonempty vector of finite, nonnegative, strictly increasing times,
        and ``Overflow`` past the time-rate bound.
        """
        i, times = state_index(i, self.spec.n), self._checked(times)
        if self.method == "spectral":
            lam, W, d = self._analysis.expansion
            return ((W[i] * np.exp(-np.outer(times, lam))) @ W.T) * (d / d[i])
        return _uniformized_rows(self._analysis, i, times)


def _poisson_weights(mu: NDArray[np.float64]) -> NDArray[np.float64]:
    """Poisson probabilities Pois(k; mu_g), shape (K, G): one column per
    mean, k = 0..K-1, by the pmf recurrence w_0 = e^-mu, w_k = w_{k-1} mu / k.

    A segment's mean is at most _UNIFORM_TERMS = 100, so e^-mu >= 3.7e-44
    cannot underflow.  K is the first count whose upper tail, for the
    largest mean, holds less than _POISSON_TAIL; smaller means have
    smaller tails.  Each column is normalized by its sum.
    """
    top = float(mu.max())
    k = np.arange(1, int(np.ceil(top + 9.0 * np.sqrt(top))) + 40)[:, None]
    w = np.cumprod(np.vstack([np.exp(-mu), mu / k]), axis=0)
    w /= w.sum(axis=0)
    tail = np.cumsum(w[::-1, -1])[::-1]
    return w[: int(np.argmax(tail < _POISSON_TAIL))]


def _deviation(a: ChainAnalysis, t: float) -> NDArray[np.float64]:
    """exp(tQ) - 1 pi for the chain of analysis ``a``, t >= 0.

    With (Lam, Pt = P - 1 pi) the chain's memoized uniformized pair
    (ChainAnalysis._uniformized), take s = 0 if Lam t <= 1, else
    ceil(log2(Lam t)), and tau = t / 2^s.  Then
    D(tau) = sum_k Pois(k; Lam tau) (I - 1 pi) Pt^k: each term is the
    last one times Pt, starting from I - 1 pi, which is formed per call.
    Squaring s times gives D(t), because D(2 tau) = D(tau)^2 (1 pi
    commutes with P_t, and (1 pi)^2 = 1 pi).  No step subtracts the limit from an O(1) matrix,
    so the error stays small relative to D(t) as it decays.
    """
    lam, tilde = a._uniformized
    term = np.eye(tilde.shape[0]) - a.stationary.p
    s = int(np.ceil(np.log2(lam * t))) if lam * t > 1.0 else 0
    weights = _poisson_weights(np.array([lam * t / 2.0**s]))[:, 0]
    dev = weights[0] * term
    for w in weights[1:]:
        term = term @ tilde
        dev += w * term
    for _ in range(s):
        dev = dev @ dev
    return dev


def _uniformized_rows(a: ChainAnalysis, i: int, times: NDArray[np.float64]) -> NDArray[np.float64]:
    """Deviations e_i exp(tQ) - pi for increasing nonnegative ``times``,
    shape (G, n), of the chain of analysis ``a``.

    Uniformization at the rate Lam that the analysis sets, with
    Pt = P - 1 pi, both read from the memo ChainAnalysis._uniformized:
    e_i exp(tQ) - pi = sum_k Pois(k; Lam t) (e_i - pi) Pt^k.  The
    deviation itself is carried, and each step deflates the stationary
    mode, so no step subtracts pi from an O(1) row.  The row is carried
    along the grid from the last time reached: all grid times within
    _UNIFORM_TERMS / Lam of it come from one sequence v, vPt, ..., vPt^K
    and one (G x K) @ (K x n) product; a longer gap is taken as
    v _deviation(gap).
    """
    pi = a.stationary.p
    lam, tilde = a._uniformized
    n = pi.size
    span = _UNIFORM_TERMS / lam
    rows = np.empty((times.size, n))
    v = -pi
    v[i] += 1.0
    t0 = 0.0
    j = 0
    while j < times.size:
        end = int(np.searchsorted(times, t0 + span, side="right"))
        if end == j:
            rows[j] = v @ _deviation(a, times[j] - t0)
            end = j + 1
        else:
            w = _poisson_weights(lam * (times[j:end] - t0))
            powers = np.empty((w.shape[0], n))
            powers[0] = v
            for k in range(1, w.shape[0]):
                np.dot(powers[k - 1], tilde, out=powers[k])
            rows[j:end] = w.T @ powers
        t0 = float(times[end - 1])
        v = rows[end - 1]
        j = end
    return rows


def f_norm(nu: NDArray[np.float64], f: WeightFunction | NDArray[np.float64]) -> float:
    """Weighted total-variation norm sum_i f_i |nu_i| of a signed measure.

    With unit weights this is the ordinary total-variation norm.
    """
    fv = f.f if isinstance(f, WeightFunction) else np.asarray(f, dtype=float)
    return float(np.dot(fv, np.abs(np.asarray(nu, dtype=float))))


def default_time_grid(rate_guess: float, points: int = 60, tmax: float | None = None) -> NDArray[np.float64]:
    """Log-spaced grid on [0.01, 10/rate_guess] (or an explicit tmax)
    resolving both the transient and the asymptotic regime."""
    if not rate_guess > 0 and tmax is None:
        raise ErgorateError("need a positive rate guess or an explicit tmax")
    T = tmax if tmax is not None else 10.0 / rate_guess
    if not np.isfinite(T):
        raise ErgorateError(f"horizon {T} is not finite")
    if T <= 0.01:
        raise ErgorateError(f"horizon {T} too short for the default grid")
    return np.geomspace(0.01, T, points)


def decay_curve(spec: ChainSpec, i: int, grid: NDArray[np.float64]) -> DecayCurve:
    """Weighted-norm distance of P_t(i, .) to stationarity over a grid,
    with the theoretical exponential envelope alongside.

    Only row i of P_t is computed, by one of two mechanisms.  A reversible
    chain whose grid ends at t_max with lam_max t_max > min(n,
    _UNIFORM_TERMS), lam_max the top of the symmetrized spectrum, reads
    the expansion (Propagator.row_deviations).  Every other curve is
    uniformized (_uniformized_rows) at the rate the chain's analysis sets:
    an irreversible chain at its largest exit rate Lam, and a reversible
    one, swept with no eigenvector computed, at Lam' = max(Lam, lam_max).
    lam_max is at least the symmetrized matrix's largest diagonal entry
    -q_ii, so Lam' is lam_max up to the row-sum tolerance and the rule
    reads lam_max.  At Lam' every mode's multiplier 1 - lam_k / Lam' lies
    in [0, 1]: no term of the sweep cancels, and the curve keeps the
    spectral route's relative accuracy and noise floor.  The rule reads
    only the verdict, n, lam_max and the grid, never what the analysis
    has memoized, so a curve does not depend on what was computed before
    it.  ``method`` names the route that made the rows.
    The state and the grid are checked as row_deviations checks them.
    The envelope rate is the gap from the chain's memoized analysis.
    """
    prop = Propagator(spec)
    i, grid = state_index(i, spec.n), prop._checked(grid)
    a = chain_analysis(spec)
    if a.reversible and a._rates[-1] * grid[-1] > min(spec.n, _UNIFORM_TERMS):
        method, rows = "spectral", prop.row_deviations(i, grid)
    else:
        method, rows = "uniformized", _uniformized_rows(a, i, grid)
    C = ergodicity_constant(spec.stationary, spec.weight)[i]
    return DecayCurve(
        state=i,
        times=grid,
        fnorms=np.abs(rows) @ spec.f,
        envelope=C * np.exp(-a.gap * grid),
        envelope_rate=a.gap,
        noise_floor=prop.noise_floor,
        method=method,
    )


def _local_maxima(y: NDArray[np.float64]) -> NDArray[np.int_]:
    """Indices of strict 3-point local maxima."""
    return np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def _detrended_peaks(t: NDArray[np.float64], logy: NDArray[np.float64]) -> NDArray[np.int_]:
    """Local maxima of a log-curve less its least-squares line: a damped
    oscillation's raw log-curve can be monotone, and its peaks only show
    once the mean decay trend is removed."""
    slope = np.polyfit(t, logy, 1)[0]
    return _local_maxima(logy - slope * t)


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

    The usable points are the window's grid points above the noise
    floor.  In log-linear mode the rate is the negated slope of the
    least-squares line through all of them in (t, log fnorm).  In peak
    mode the line goes through the dominant single-phase family of local
    maxima of the detrended curve (a default window with fewer than 3 is
    widened to every point above the floor), which for an exponentially
    damped oscillation lies on a log-line with the true decay rate.

    Raises
    ------
    ErgorateError
        A window end that is not finite, or an empty window.
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
    if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
        raise ErgorateError(f"window {window} needs two finite ends")
    if not t_hi > t_lo:
        raise ErgorateError(f"empty window {window}")

    in_window = (times >= t_lo) & (times <= t_hi)
    above = fn > floor
    if not defaulted and np.any(in_window & ~above):
        raise NoiseFloor(f"window [{t_lo}, {t_hi}] touches the noise floor {floor:.1e}")
    usable = in_window & above
    if int(usable.sum()) < 5:
        raise InsufficientData(f"only {int(usable.sum())} usable grid points in window")

    t, logy = times[usable], np.log(fn[usable])
    if mode == "auto":
        mode = "peaks" if _local_maxima(fn[usable]).size > 0 else "loglinear"
    if mode == "peaks":
        pk = _detrended_peaks(t, logy)
        if pk.size < 3 and defaulted:
            # widen to every point above the noise floor, a superset of the usable ones
            t, logy = times[above], np.log(fn[above])
            t_lo, t_hi = float(t[0]), float(t[-1])
            pk = _detrended_peaks(t, logy)
        if pk.size < 3:
            raise InsufficientData(f"peak mode needs >= 3 detrended peaks, found {pk.size}")
        family = _select_peak_family(t, logy, pk)
        t, logy = t[family], logy[family]

    co = np.polyfit(t, logy, 1)
    residual = float(np.max(np.abs(logy - np.polyval(co, t))))
    return RateFit(
        rate=float(-co[0]),
        intercept=float(co[1]),
        window=(t_lo, t_hi),
        residual=residual,
        mode=mode,
        n_points=int(t.size),
    )


def mu_ft_norm(mu: NDArray[np.float64], spec: ChainSpec, t: float) -> tuple[float, float]:
    """Weighted-norm distance of mu P_t to stationarity, two ways.

    Returns (direct, via_dual): the direct value || mu P_t - pi ||_f and
    the same quantity through the time-reversal identity
    || f * (P*_t h - 1) ||_{L1(pi)} with h = mu / pi and P*_t the dual
    semigroup.  With D and D* the deviations of P_t and P*_t, and pi . h
    = sum(mu) = 1, these are f . |mu D(t)| and pi . f |D*(t) h|: both are
    formed from deviations, so they keep relative accuracy as they decay.
    The two sides share the algorithm, not the matrix: the dual side runs
    on the dual generator, which the direct side never reads, so their
    agreement is a genuine cross-check.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (spec.n,):
        raise ErgorateError(f"mu must have shape ({spec.n},)")
    # written so that NaN fails
    if not (np.all(mu >= 0.0) and abs(mu.sum() - 1.0) <= 1e-10):
        raise ErgorateError("mu must be a probability vector")
    direct = f_norm(mu @ Propagator(spec).deviation(t), spec.weight)
    h = mu / spec.pi
    via_dual = float(np.dot(spec.pi, spec.f * np.abs(_deviation(chain_analysis(spec)._dual, t) @ h)))
    return direct, via_dual


# The exact operator norms enumerate 2^(n-1) sign vectors; larger n is refused.
MAX_ENUMERATED_STATES = 20

# Free sign coordinates enumerated as one table; the rest are looped over.
# At 12 the table's image is 4096 x n doubles (640 kB at n = 20).
_LOW_SIGNS = 12


def _sign_table(k: int) -> NDArray[np.float64]:
    """All 2^k vectors of {-1,+1}^k, one per row."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return bits * 2.0 - 1.0


def _vertex_max(A: NDArray[np.float64], nu: NDArray[np.float64], image) -> float:
    """max over g in {-1,+1}^n of sum_i nu_i image((A g)_i).

    For a convex image function the objective is convex in g, so its
    max over the cube |g| <= 1 sits at a vertex; enumerating sign vectors
    (2^(n-1) after the symmetry g -> -g, which fixes g_0 = +1) is exact.
    Capped at n = MAX_ENUMERATED_STATES.  The low free coordinates'
    products ``Y`` are formed once; each pattern of the high ones adds
    one row vector to them.
    """
    A = np.asarray(A, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or nu.shape != (n,):
        raise ErgorateError("need a square operator and a matching measure vector")
    if n > MAX_ENUMERATED_STATES:
        raise TooLarge(f"sign enumeration capped at n = {MAX_ENUMERATED_STATES}, got {n}")
    low = min(n - 1, _LOW_SIGNS)
    Y = _sign_table(low) @ A[:, 1 : 1 + low].T
    shifts = A[:, 0] + _sign_table(n - 1 - low) @ A[:, 1 + low :].T
    best = 0.0
    for shift in shifts:
        best = max(best, float((image(Y + shift) @ nu).max()))
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
    row = "{:.17g},{:.17g},{:.17g}\n".format
    return "t,fnorm,envelope\n" + "".join(
        map(row, curve.times.tolist(), curve.fnorms.tolist(), curve.envelope.tolist())
    )
