"""Matrix exponentials, decay curves, rate fitting, brute-force norms."""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_detailed_balance, random_irreversible

from ergorate import semigroup, spectral
from ergorate.chain_core import (
    build_birth_death,
    build_example21,
    chain_spec,
    dual,
    stationary,
    validate,
    weight_function,
)
from ergorate.errors import (
    ErgorateError,
    InsufficientData,
    NoiseFloor,
    Overflow,
    TooLarge,
)
from ergorate.htransform import h_function
from ergorate.semigroup import (
    DecayCurve,
    Propagator,
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    f_norm,
    fit_rate,
    mu_ft_norm,
    opnorm_inf_to_1,
    opnorm_inf_to_2,
)
from ergorate.spectral import chain_analysis, gap, spectral_report


def two_state():
    return chain_spec(validate([[-1.0, 1.0], [1.0, -1.0]]), weight_function([1.0, 1.0]))


# -------------------------------------------------------------- propagator

def test_expm_time_zero_is_identity(ex22):
    P = Propagator(ex22).matrix(0.0)
    assert np.max(np.abs(P - np.eye(3))) <= 1e-14


def test_expm_two_state_closed_form():
    spec = two_state()
    # the chain's own (spectral) route, the uniformized deviation directly,
    # and scipy's Pade exponential, the oracle of other tests
    uniformized = semigroup._deviation(chain_analysis(spec), 1.0) + spec.pi
    for P in (Propagator(spec).matrix(1.0), uniformized, scipy.linalg.expm(spec.q)):
        assert P[0, 0] == pytest.approx(0.5 + 0.5 * np.exp(-2.0), abs=1e-13)
        assert P[0, 1] == pytest.approx(0.5 - 0.5 * np.exp(-2.0), abs=1e-13)


def test_expm_methods_agree(ex21):
    prop = Propagator(ex21)
    assert prop.method == "spectral"
    for t in (0.1, 1.0, 5.0):
        Ps, Pp = prop.matrix(t), scipy.linalg.expm(t * ex21.q)
        assert np.max(np.abs(Ps - Pp)) <= 1e-12


def test_expm_long_time_limit(ex22):
    P = Propagator(ex22).matrix(40.0)
    assert np.max(np.abs(P - np.outer(np.ones(3), ex22.pi))) <= 1e-9


def test_matrix_rows_stochastic(bd6):
    # no entry is clamped: the computed matrix itself is nonnegative
    for t in (0.05, 0.7, 12.0):
        P = Propagator(bd6).matrix(t)
        assert np.all(P >= 0.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10


def test_propagator_records_method(ex21, ex22):
    assert Propagator(ex21).method == "spectral"
    assert Propagator(ex22).method == "uniformized"


def test_propagator_rejects_negative_time(ex21):
    with pytest.raises(ErgorateError, match="nonnegative"):
        Propagator(ex21).matrix(-0.5)


def test_propagator_rejects_huge_time(ex21):
    with pytest.raises(Overflow):
        Propagator(ex21).matrix(1e13)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_an_input_error(ex21, ex22, t):
    for spec in (ex21, ex22):
        with pytest.raises(ErgorateError):
            Propagator(spec).matrix(t)
        with pytest.raises(ErgorateError):
            Propagator(spec).deviation(t)


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
def test_row_deviations_rejects_a_state_out_of_range(request, chain):
    # a negative index must not read a row counted from the end
    spec = request.getfixturevalue(chain)
    for i in (-1, spec.n):
        with pytest.raises(ErgorateError, match=f"^state {i} out of range for {spec.n} states$"):
            Propagator(spec).row_deviations(i, np.array([0.5, 1.0]))


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
@pytest.mark.parametrize("i", [1.5, 2.9, 1.0, np.float64(1.0), "1", None])
def test_a_state_that_is_not_an_integer_is_an_input_error(request, chain, i):
    # a float state once raised numpy's untyped IndexError
    spec = request.getfixturevalue(chain)
    grid = np.array([0.5, 1.0])
    with pytest.raises(ErgorateError, match=r"^state .* is not an integer$"):
        Propagator(spec).row_deviations(i, grid)
    with pytest.raises(ErgorateError, match=r"^state .* is not an integer$"):
        decay_curve(spec, i, grid)


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
def test_a_numpy_integer_state_is_a_state(request, chain):
    spec = request.getfixturevalue(chain)
    grid = np.array([0.5, 1.0])
    prop = Propagator(spec)
    assert np.array_equal(prop.row_deviations(np.int64(1), grid), prop.row_deviations(1, grid))
    curve = decay_curve(spec, np.int32(2), grid)
    assert curve.state == 2 and type(curve.state) is int


FINITE = "time grid must be a nonempty vector of finite times"
INCREASING = "time grid must be strictly increasing and nonnegative"


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
@pytest.mark.parametrize(
    "times, message",
    [
        ([], FINITE),
        ([[0.5, 1.0]], FINITE),
        ([0.5, np.nan, 1.0], FINITE),
        ([0.5, -1.0, 1.0], INCREASING),
        ([-1.0, 0.5], INCREASING),
        ([1.0, 0.5], INCREASING),
        ([150.0, 1.0], INCREASING),
        ([0.5, 0.5], INCREASING),
    ],
    ids=["empty", "2-D", "nan", "negative-inside", "negative-first", "decreasing", "150-then-1", "repeated"],
)
def test_row_deviations_rejects_a_bad_grid(request, chain, times, message):
    # every time is checked, not only the first and the last
    with pytest.raises(ErgorateError, match=f"^{message}$"):
        Propagator(request.getfixturevalue(chain)).row_deviations(0, np.array(times))


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
def test_row_deviations_rejects_a_time_past_the_rate_bound(request, chain):
    with pytest.raises(Overflow):
        Propagator(request.getfixturevalue(chain)).row_deviations(0, np.array([0.5, 1e13]))


@pytest.mark.parametrize("chain", ["ex21", "ex22"])
@pytest.mark.parametrize("t", [[0.5, 1.0], [[1.0]]])
def test_deviation_rejects_a_non_scalar_time(request, chain, t):
    with pytest.raises(ErgorateError, match=f"^{FINITE}$"):
        Propagator(request.getfixturevalue(chain)).deviation(np.array(t))


def test_chapman_kolmogorov(ex22):
    prop = Propagator(ex22)
    lhs = prop.matrix(1.3)
    rhs = prop.matrix(0.4) @ prop.matrix(0.9)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_stationarity_preserved(bd6):
    prop = Propagator(bd6)
    for t in (0.3, 2.0, 9.0):
        assert np.max(np.abs(bd6.pi @ prop.matrix(t) - bd6.pi)) <= 1e-10


def test_deviation_plus_limit_is_matrix(ex22):
    prop = Propagator(ex22)
    limit = np.outer(np.ones(3), ex22.pi)
    for t in (0.2, 1.7):
        assert np.max(np.abs(prop.deviation(t) + limit - prop.matrix(t))) <= 1e-12


def test_spectral_deviation_keeps_relative_accuracy(ex21):
    # analytic zero-mode removal: entries stay accurate far below 1e-16
    prop = Propagator(ex21)
    assert prop.method == "spectral"
    dev = prop.deviation(80.0)
    expected = np.exp(-80.0) * (np.eye(3) - np.outer(np.ones(3), ex21.pi))
    assert np.max(np.abs(dev - expected)) <= 1e-12 * np.exp(-80.0)


def test_spectral_deviation_rows_are_mean_zero():
    # the lemma chain of verify --n 300: eigh's zero-mode vector is off
    # sqrt(pi) enough that the other modes leaked 8.6e-12 into row sums
    n = 300
    rng = np.random.default_rng(13)
    b = rng.uniform(0.5, 2.0, n - 1)
    d = rng.uniform(0.5, 2.0, n - 1)
    fw = rng.uniform(1.0, 3.0, n)
    prop = Propagator(build_birth_death(b, d, fw))
    assert prop.method == "spectral"
    assert np.max(np.abs(prop.deviation(0.5).sum(axis=1))) <= 1e-13


def test_spectral_matrix_reaches_the_limit_at_the_longest_time(bd6):
    # the zero mode's eigenvalue is exactly 0: eigh's 2.9e-16 once put
    # exp(-t lam0) into the limit and P off it by 2e-5 at this time
    t = 0.9e12 / bd6.rate_matrix.max_rate
    assert np.max(np.abs(Propagator(bd6).matrix(t) - bd6.pi)) <= 1e-15


# ----------------------------------------------------------------- f_norm

def test_f_norm_unit_weight_is_total_variation():
    nu = np.array([1.0, 0.0]) - np.array([0.5, 0.5])
    assert f_norm(nu, np.array([1.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_f_norm_initial_distance_closed_form():
    p0, beta = 0.5, 2.0
    spec = build_example21([p0, 0.25, 0.25], beta)
    nu = np.eye(3)[0] - spec.pi
    assert f_norm(nu, spec.weight) == pytest.approx((1.0 + beta) * (1.0 - p0), abs=1e-14)


def test_f_norm_accepts_weight_object_and_array(bd6):
    nu = np.eye(bd6.n)[2] - bd6.pi
    assert f_norm(nu, bd6.weight) == f_norm(nu, bd6.f)


# -------------------------------------------------------------- time grid

def test_default_time_grid_shape():
    grid = default_time_grid(2.0, points=50)
    assert grid.shape == (50,)
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(5.0)
    assert np.all(np.diff(grid) > 0)


def test_default_time_grid_explicit_horizon():
    grid = default_time_grid(0.0, points=10, tmax=3.0)
    assert grid[-1] == pytest.approx(3.0)


def test_default_time_grid_rejects_degenerate():
    with pytest.raises(ErgorateError):
        default_time_grid(0.0)
    with pytest.raises(ErgorateError):
        default_time_grid(1e9)


@pytest.mark.parametrize(
    "rate_guess, tmax, message",
    [
        (np.nan, None, "need a positive rate guess or an explicit tmax"),
        (1.0, np.nan, "horizon nan is not finite"),
        (1.0, np.inf, "horizon inf is not finite"),
        (1.0, -np.inf, "horizon -inf is not finite"),
    ],
)
def test_default_time_grid_rejects_a_non_finite_horizon(rate_guess, tmax, message):
    with pytest.raises(ErgorateError, match=f"^{message}$"):
        default_time_grid(rate_guess, tmax=tmax)


# ------------------------------------------------------------- decay curve

def test_decay_curve_initial_value(ex21):
    curve = decay_curve(ex21, 0, np.array([1e-9, 1.0]))
    assert curve.fnorms[0] == pytest.approx(1.5, abs=1e-6)  # (1+2)*(1-1/2)


def test_decay_curve_two_state_is_exact_exponential():
    spec = two_state()
    grid = np.linspace(0.05, 4.0, 40)
    curve = decay_curve(spec, 0, grid)
    assert np.max(np.abs(curve.fnorms - np.exp(-2.0 * grid))) <= 1e-12
    # envelope C_0 = 1, rate = gap = 2: coincides with the curve here
    assert np.max(np.abs(curve.envelope - curve.fnorms)) <= 1e-12
    assert curve.envelope_rate == pytest.approx(2.0, abs=1e-12)


def test_decay_curve_monotone_for_resampling_family(ex21):
    curve = decay_curve(ex21, 1, default_time_grid(1.0))
    assert np.all(np.diff(curve.fnorms) < 0)


def test_decay_curve_below_envelope(bd6):
    for i in range(bd6.n):
        curve = decay_curve(bd6, i, default_time_grid(1.0, tmax=20.0))
        assert np.all(curve.fnorms <= curve.envelope + 1e-9)


def test_decay_curve_noise_floor_depends_on_method(ex21, ex22):
    assert decay_curve(ex21, 0, np.array([0.5, 1.0])).noise_floor == 1e-300
    assert decay_curve(ex22, 0, np.array([0.5, 1.0])).noise_floor == 1e-14


def test_decay_curve_rejects_bad_grid(ex21):
    with pytest.raises(ErgorateError):
        decay_curve(ex21, 0, np.array([1.0, 0.5]))
    with pytest.raises(ErgorateError):
        decay_curve(ex21, 5, np.array([0.5, 1.0]))


@pytest.mark.parametrize("grid", [[0.5, np.nan, 1.0], [np.nan], [0.5, 1.0, np.inf], [np.nan, 1.0]])
def test_decay_curve_rejects_a_non_finite_grid_on_both_routes(ex21, ex22, grid):
    for spec in (ex21, ex22):
        with pytest.raises(ErgorateError, match="^time grid must be a nonempty vector of finite times$"):
            decay_curve(spec, 0, np.array(grid))


# --------------------------------------------------------------- fit_rate

def test_fit_rate_pure_exponential_exact():
    spec = two_state()
    curve = decay_curve(spec, 0, default_time_grid(2.0))
    fit = fit_rate(curve)
    assert fit.mode == "loglinear"
    assert abs(fit.rate - 2.0) <= 1e-10 * 2.0
    assert fit.residual <= 1e-12


def test_fit_rate_resampling_family(ex21):
    curve = decay_curve(ex21, 0, default_time_grid(1.0))
    fit = fit_rate(curve)
    assert abs(fit.rate - 1.0) <= 1e-6


def test_fit_rate_intercept_matches_amplitude():
    spec = two_state()
    curve = decay_curve(spec, 0, default_time_grid(2.0))
    fit = fit_rate(curve)
    # curve is exactly exp(-2t): log-line intercept at t=0 is 0
    assert abs(fit.intercept) <= 1e-10


def synthetic_peaked_curve():
    """Damped modulated curve whose peaks sit exactly on a log-line."""
    times = np.arange(0.0, 30.0 + 1e-9, 0.1)
    modulation = np.array([2.0, 1.5, 1.2, 1.0, 0.9, 0.85, 0.9, 1.0, 1.2, 1.5])
    fnorms = np.exp(-0.8 * times) * modulation[np.arange(times.size) % 10]
    return DecayCurve(
        state=0,
        times=times,
        fnorms=fnorms,
        envelope=2.0 * np.exp(-0.8 * times),
        envelope_rate=0.8,
        noise_floor=1e-300,
        method="spectral",
    )


def test_fit_rate_peak_family_exact():
    fit = fit_rate(synthetic_peaked_curve(), mode="peaks")
    assert fit.mode == "peaks"
    assert abs(fit.rate - 0.8) <= 1e-12
    assert fit.residual <= 1e-12


def test_fit_rate_auto_selects_peaks_on_oscillation():
    fit = fit_rate(synthetic_peaked_curve())
    assert fit.mode == "peaks"
    assert abs(fit.rate - 0.8) <= 1e-12


def test_fit_rate_auto_selects_loglinear_on_monotone(ex21):
    curve = decay_curve(ex21, 0, default_time_grid(1.0))
    assert fit_rate(curve).mode == "loglinear"


def test_fit_rate_explicit_window():
    curve = synthetic_peaked_curve()
    fit = fit_rate(curve, window=(5.0, 25.0), mode="peaks")
    assert abs(fit.rate - 0.8) <= 1e-12
    assert fit.window == (5.0, 25.0)


def test_fit_rate_insufficient_points():
    curve = synthetic_peaked_curve()
    with pytest.raises(InsufficientData):
        fit_rate(curve, window=(5.0, 5.3))


def test_fit_rate_window_below_floor(ex22):
    grid = np.linspace(0.5, 40.0, 120)
    curve = decay_curve(ex22, 0, grid)  # uniformized route, floor 1e-14
    assert curve.noise_floor == 1e-14
    with pytest.raises(NoiseFloor):
        fit_rate(curve, window=(30.0, 40.0))


def test_fit_rate_rejects_bad_mode(ex21):
    curve = decay_curve(ex21, 0, default_time_grid(1.0))
    with pytest.raises(ErgorateError, match="mode"):
        fit_rate(curve, mode="robust")
    with pytest.raises(ErgorateError, match="window"):
        fit_rate(curve, window=(3.0, 1.0))


@pytest.mark.parametrize("window", [(0.5, np.inf), (np.nan, 5.0), (-np.inf, 5.0), (1.0, np.nan)])
def test_fit_rate_window_ends_must_be_finite(ex21, window):
    # (0.5, inf) was fitted and reported an infinite end, which JSON
    # cannot hold; (nan, 5) was refused only as an empty window
    curve = decay_curve(ex21, 0, default_time_grid(1.0))
    with pytest.raises(ErgorateError, match=rf"^window \({window[0]}, {window[1]}\) needs two finite ends$"):
        fit_rate(curve, window=window)


def test_fit_rate_to_dict():
    d = fit_rate(synthetic_peaked_curve()).to_dict()
    assert set(d) == {"rate", "intercept", "window", "residual", "mode", "n_points"}


def test_fit_rate_peaks_widen_a_short_default_window():
    # envelope rate 4 puts the default window at [0.5, 1.5], one period
    # of the modulation: too few peaks, so the fit widens to every point
    # above the floor and finds the 0.8 family there
    curve = replace(synthetic_peaked_curve(), envelope_rate=4.0)
    fit = fit_rate(curve, mode="peaks")
    assert fit.window == (0.0, 30.0)
    assert abs(fit.rate - 0.8) <= 1e-12
    assert fit.n_points == 29


def test_fit_rate_peaks_widened_still_without_peaks():
    # log fnorm is strictly convex, so no detrended point set has a peak
    times = np.arange(0.0, 30.0 + 1e-9, 0.1)
    fnorms = np.exp(-times + 0.02 * times**2)
    curve = replace(synthetic_peaked_curve(), fnorms=fnorms, envelope=fnorms, envelope_rate=1.0)
    with pytest.raises(InsufficientData, match=r"^peak mode needs >= 3 detrended peaks, found 0$"):
        fit_rate(curve, mode="peaks")


def test_fit_rate_needs_a_positive_envelope_rate_without_a_window():
    curve = replace(synthetic_peaked_curve(), envelope_rate=0.0)
    with pytest.raises(ErgorateError, match=r"^curve has no positive envelope rate; pass a window$"):
        fit_rate(curve)
    assert abs(fit_rate(curve, window=(5.0, 25.0)).rate - 0.8) <= 1e-12


def test_select_peak_family_keeps_all_peaks_without_two_spacings():
    t = np.arange(0.0, 10.0 + 1e-9, 0.1)
    pk = np.array([10, 40])
    assert np.array_equal(semigroup._select_peak_family(t, -0.5 * t, pk), pk)


def test_select_peak_family_keeps_all_peaks_without_a_period():
    t = np.arange(0.0, 10.0 + 1e-9, 0.1)
    pk = np.array([5, 12, 30, 33, 60, 90])  # spacings 0.7, 1.8, 0.3, 2.7, 3.0
    assert np.array_equal(semigroup._select_peak_family(t, -0.5 * t, pk), pk)


def test_select_peak_family_keeps_all_peaks_when_the_period_family_is_short():
    # spacings 1.0, 1.2, ..., 2.2 repeat within tolerance at shift 1, but
    # the phase drifts: only the anchor peak at t = 0 and the one at 11.2
    # lie within 0.3 of the median period's phase
    t = np.arange(0.0, 12.0 + 1e-9, 0.1)
    logy = -0.5 * t
    logy[0] += 1.0
    pk = np.array([0, 10, 22, 36, 52, 70, 90, 112])
    assert np.array_equal(semigroup._select_peak_family(t, logy, pk), pk)


# ------------------------------------------------------------- mu_ft_norm

def test_mu_ft_norm_two_routes_agree(bd6):
    rng = np.random.default_rng(13)
    mu = rng.uniform(0.1, 1.0, bd6.n)
    mu /= mu.sum()
    direct, via_dual = mu_ft_norm(mu, bd6, 0.7)
    assert abs(direct - via_dual) <= 1e-10


@pytest.mark.parametrize("chain", [None, 5, "bd6", "reversible-5"])
def test_mu_ft_norm_sides_agree_far_past_the_time_scale(ex22, bd6, chain):
    # at 25 / rho both sides are near 1e-11, each formed from a deviation
    # (of Q, and of its dual) that keeps relative accuracy; exp(tQ) - pi
    # would leave them 1e-5 apart.  None is example 2.2 and 5 a dense
    # irreversible chain; on the reversible ones the dual is uniformized
    # at the top of its spectrum
    spec = {None: ex22, 5: dense_chain(False, 5), "bd6": bd6, "reversible-5": dense_chain(True, 5)}[chain]
    rng = np.random.default_rng(29)
    rho = chain_analysis(spec).true_decay_rate
    for _ in range(5):
        mu = rng.dirichlet(np.ones(spec.n))
        direct, via_dual = mu_ft_norm(mu, spec, 25.0 / rho)
        assert 1e-13 < direct < 1e-10
        assert abs(direct - via_dual) <= 1e-12 * direct


def test_mu_ft_norm_stationary_start_is_zero(bd6):
    direct, via_dual = mu_ft_norm(bd6.pi, bd6, 1.3)
    assert direct <= 1e-12
    assert via_dual <= 1e-12


def test_mu_ft_norm_point_mass_matches_curve(ex22):
    t = 0.9
    direct, _ = mu_ft_norm(np.eye(3)[1], ex22, t)
    curve = decay_curve(ex22, 1, np.array([t]))
    assert direct == pytest.approx(curve.fnorms[0], abs=1e-13)


def test_mu_ft_norm_rejects_non_probability(bd6, ex22):
    with pytest.raises(ErgorateError):
        mu_ft_norm(np.full(bd6.n, 0.5), bd6, 1.0)
    with pytest.raises(ErgorateError):
        mu_ft_norm(np.zeros(3), bd6, 1.0)
    # NaN once failed both comparisons and came back as (nan, nan)
    for bad in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan]):
        with pytest.raises(ErgorateError, match="^mu must be a probability vector$"):
            mu_ft_norm(np.array(bad), ex22, 1.0)


def test_mu_ft_norm_dual_route_uses_time_reversal(ex22):
    # for an irreversible chain the dual generator differs from Q, yet
    # the identity still holds
    rng = np.random.default_rng(99)
    mu = rng.uniform(0.1, 1.0, 3)
    mu /= mu.sum()
    Qhat = dual(ex22.rate_matrix, ex22.stationary)
    assert np.max(np.abs(Qhat.q - ex22.q)) > 0.1
    direct, via_dual = mu_ft_norm(mu, ex22, 1.1)
    assert abs(direct - via_dual) <= 1e-10


# --------------------------------------------------------- operator norms

def brute_opnorms(A, nu):
    """Oracle: enumerate every sign vector with itertools."""
    best1 = best2 = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=A.shape[0]):
        img = A @ np.array(signs)
        best1 = max(best1, float(np.dot(nu, np.abs(img))))
        best2 = max(best2, float(np.sqrt(np.dot(nu, img**2))))
    return best1, best2


def test_opnorm_zero_operator():
    nu = np.array([0.3, 0.7])
    assert opnorm_inf_to_1(np.zeros((2, 2)), nu) == 0.0
    assert opnorm_inf_to_2(np.zeros((2, 2)), nu) == 0.0


def test_opnorm_identity_probability_measure(bd6):
    nu = bd6.pi
    I = np.eye(bd6.n)
    assert opnorm_inf_to_1(I, nu) == pytest.approx(1.0, abs=1e-14)
    assert opnorm_inf_to_2(I, nu) == pytest.approx(1.0, abs=1e-14)


def test_opnorm_matches_itertools_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        nu = rng.uniform(0.1, 1.0, 4)
        b1, b2 = brute_opnorms(A, nu)
        assert opnorm_inf_to_1(A, nu) == pytest.approx(b1, rel=1e-13)
        assert opnorm_inf_to_2(A, nu) == pytest.approx(b2, rel=1e-13)


def blocked_vertex_max(A, nu, image, block=1 << 14):
    """Reference enumerator: every sign vector with g_0 = +1, rebuilt
    from the bits of its code, block by block."""
    n = A.shape[0]
    total = 1 << (n - 1)
    bits = np.arange(n - 1, dtype=np.uint64)
    best = 0.0
    for start in range(0, total, block):
        codes = np.arange(start, min(start + block, total), dtype=np.uint64)
        G = np.empty((codes.size, n))
        G[:, 0] = 1.0
        G[:, 1:] = np.where((codes[:, None] >> bits[None, :]) & np.uint64(1), 1.0, -1.0)
        best = max(best, float((image(G @ A.T) @ nu).max()))
    return best


@pytest.mark.parametrize("image", [np.abs, np.square])
def test_vertex_max_matches_blocked_enumerator(image):
    rng = np.random.default_rng(33)
    for n in range(1, 19):
        A = rng.standard_normal((n, n))
        nu = rng.uniform(0.1, 1.0, n)
        ref = blocked_vertex_max(A, nu, image)
        assert abs(semigroup._vertex_max(A, nu, image) - ref) <= 1e-14 * ref


def test_opnorm_size_cap():
    A = np.eye(21)
    nu = np.full(21, 1.0 / 21)
    with pytest.raises(TooLarge):
        opnorm_inf_to_1(A, nu)
    with pytest.raises(TooLarge):
        opnorm_inf_to_2(A, nu)


def test_opnorm_shape_mismatch():
    with pytest.raises(ErgorateError):
        opnorm_inf_to_1(np.zeros((2, 3)), np.ones(2))


def test_weighted_deviation_contracts_at_gap_rate(bd6):
    g = gap(bd6.rate_matrix, bd6.stationary)
    prop = Propagator(bd6)
    d = np.sqrt(bd6.pi)
    for t in (0.5, 2.0):
        M = (d[:, None] * prop.deviation(t)) / d[None, :]
        top = np.linalg.svd(M, compute_uv=False)[0]
        assert top == pytest.approx(np.exp(-g * t), rel=1e-10)


# ------------------------------------------- one analysis, row-only curves

# a size well above the small chains of these checks
ABOVE = 80


def dense_chain(reversible, n, seed=3):
    rng = np.random.default_rng(seed)
    q = (random_detailed_balance if reversible else random_irreversible)(rng, n) / n
    return chain_spec(validate(q), weight_function(rng.uniform(1.0, 3.0, n)))


# irreversible chains from KRYLOV states on take the true rate from the
# restarted Arnoldi; one eig per restart cycle, counted for these chains
KRYLOV = spectral._KRYLOV_MIN_STATES
ARNOLDI_CYCLES = {KRYLOV: 2, 200: 3}


@pytest.mark.parametrize(
    "reversible, n",
    [pytest.param(r, n, id=f"{n}-{r}") for r in (True, False) for n in (3, 7, ABOVE, 200)]
    + [pytest.param(False, KRYLOV - 1, id=f"{KRYLOV - 1}-False")],
)
def test_one_decomposition_per_analysis_op(decomposition_counts, reversible, n):
    spec = dense_chain(reversible, n)
    rep = spectral_report(spec)
    grid = default_time_grid(rep.gap if rep.reversible else rep.true_decay_rate)
    curve = decay_curve(spec, 1, grid)
    fit_rate(curve)
    # default-grid curves take no dense exponential on either route; every
    # chain takes its gap from a values-only eigvalsh, and a reversible one
    # its spectrum too.  A reversible default grid is swept from n = ABOVE
    # on, with no eigenvector; below, it is too long to sweep and the curve
    # reads the expansion's eigh.  An irreversible chain below KRYLOV takes
    # one eigvals, and from KRYLOV on none: its true rate is the Arnoldi's.
    if reversible:
        counts = {"eigh": int(n < ABOVE), "eigvalsh": 1, "eigvals": 0, "eig": 0}
    else:
        counts = {"eigh": 0, "eigvalsh": 1, "eigvals": int(n < KRYLOV), "eig": ARNOLDI_CYCLES.get(n, 0)}
    assert decomposition_counts == {**counts, "expm": 0}
    assert curve.method == ("uniformized" if not reversible or n >= ABOVE else "spectral")
    # the analysis is memoized on the spec; the per-generator functions are not
    assert chain_analysis(spec) is chain_analysis(spec)
    assert spectral_report(spec).to_dict() == rep.to_dict()
    # the report's eigenvalues are taken when first read
    if not reversible and n >= KRYLOV:
        counts["eigvals"] = 1
    assert decomposition_counts == {**counts, "expm": 0}
    gap(spec.rate_matrix, spec.stationary)
    assert decomposition_counts == {**counts, "eigvalsh": 2, "expm": 0}


@pytest.mark.parametrize("reversible", [True, False])
@pytest.mark.parametrize("n", [3, 7, ABOVE, 200])
# the uniformized route keeps the id "pade", as in the test_pade_* names
@pytest.mark.parametrize("method", ["spectral", pytest.param("uniformized", id="pade")])
def test_row_curve_matches_full_deviation(reversible, n, method):
    spec = dense_chain(reversible, n)
    prop = Propagator(spec)
    if method == "spectral" and not reversible:
        # the verdict picks the route: the eigen-expansion, which would
        # propagate the reversibilization, never runs on an irreversible chain
        assert prop.method == "uniformized"
        return
    grid = default_time_grid(chain_analysis(spec).gap)
    if method == prop.method:
        curve = decay_curve(spec, 2, grid)
        # decay_curve sweeps a reversible chain's default grid from n = ABOVE on
        assert curve.method == ("uniformized" if reversible and n >= ABOVE else method)
        fnorms = curve.fnorms
    else:
        # the uniformized path on a reversible chain, called directly
        fnorms = np.abs(semigroup._uniformized_rows(chain_analysis(spec), 2, grid)) @ spec.f
    if method == "spectral":
        full = [f_norm(prop.deviation(t)[2], spec.weight) for t in grid]
    else:
        # uniformized rows and deviations share _poisson_weights: scipy's
        # Pade exponential is the independent oracle
        full = [f_norm(scipy.linalg.expm(t * spec.q)[2] - spec.pi, spec.weight) for t in grid]
    assert np.max(np.abs(fnorms - full)) <= 1e-12 * spec.f.sum()


def test_irreversible_chain_propagates_q_itself(ex22):
    prop = Propagator(ex22)
    assert prop.method == "uniformized"
    assert np.max(np.abs(prop.matrix(1.0) - scipy.linalg.expm(ex22.q))) <= 1e-14


@pytest.mark.parametrize("n", [3, 7, ABOVE, 200])
def test_uniformized_deviation_matches_scipys_exponential(n):
    # where expm(tQ) - pi is still accurate, up to 13 over the true rate,
    # the two agree to its absolute accuracy
    spec = dense_chain(False, n)
    prop = Propagator(spec)
    assert prop.method == "uniformized"
    rho = chain_analysis(spec).true_decay_rate
    for t in (0.0, 0.5 / rho, 3.0 / rho, 13.0 / rho):
        assert np.max(np.abs(prop.deviation(t) - (scipy.linalg.expm(t * spec.q) - spec.pi))) <= 1e-14


@pytest.mark.parametrize("chain", ["bd6", "dense", "ex22"])
def test_matrix_is_deviation_plus_pi(request, chain):
    spec = dense_chain(True, ABOVE) if chain == "dense" else request.getfixturevalue(chain)
    prop = Propagator(spec)
    for t in (0.0, 0.3, 4.0):
        assert np.array_equal(prop.matrix(t), prop.deviation(t) + spec.pi)


def test_propagators_of_one_chain_share_the_expansion(decomposition_counts):
    spec = dense_chain(True, ABOVE)
    first, second = Propagator(spec), Propagator(spec)
    # building a propagator takes no decomposition; the factors are built
    # once per chain, when a deviation first reads them
    assert decomposition_counts["eigh"] == 0
    first.deviation(1.0)
    second.row_deviations(0, np.array([1.0]))
    assert decomposition_counts["eigh"] == 1


@pytest.mark.parametrize("n", [3, 7, ABOVE, 200])
def test_pade_rows_match_spectral_rows(n):
    # on a reversible chain the spectral route's deviations carry
    # relative accuracy, so they are the oracle for the uniformized route's rows
    spec = dense_chain(True, n)
    grid = default_time_grid(chain_analysis(spec).gap)
    spectral = Propagator(spec)
    assert spectral.method == "spectral"
    for i in (0, n - 1):
        rows = semigroup._uniformized_rows(chain_analysis(spec), i, grid)
        err = np.abs(rows - spectral.row_deviations(i, grid))
        assert np.max(err) <= 1e-14


@pytest.mark.parametrize("reversible", [True, False])
def test_pade_curve_on_a_grid_from_time_zero(reversible):
    spec = dense_chain(reversible, 7)
    grid = np.linspace(0.0, 10.0 / chain_analysis(spec).gap, 40)
    rows = semigroup._uniformized_rows(chain_analysis(spec), 2, grid)
    unit = np.zeros(spec.n)
    unit[2] = 1.0
    assert np.array_equal(rows[0], unit - spec.pi)
    full = np.array([scipy.linalg.expm(t * spec.q)[2] for t in grid]) - spec.pi
    assert np.max(np.abs(rows - full)) <= 1e-14
    curve = decay_curve(spec, 2, grid)
    assert curve.fnorms[0] == pytest.approx(f_norm(unit - spec.pi, spec.weight), rel=1e-15)


@pytest.fixture
def segment_sizes(monkeypatch):
    """Grid times evaluated by each uniformization segment, in order."""
    sizes = []
    original = semigroup._poisson_weights

    def counted(mu):
        sizes.append(mu.size)
        return original(mu)

    monkeypatch.setattr(semigroup, "_poisson_weights", counted)
    return sizes


@pytest.fixture
def deviation_calls(monkeypatch):
    """Live count of semigroup._deviation calls: whole-matrix deviations
    on the uniformized route."""
    calls = [0]
    original = semigroup._deviation

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(semigroup, "_deviation", counted)
    return calls


def expm_rows(spec, i, grid):
    """Rows exp(tQ)[i] - pi from scipy's Pade exponential: an oracle for
    the uniformized route that shares none of its code."""
    return np.array([scipy.linalg.expm(t * spec.q)[i] for t in grid]) - spec.pi


def stiff_chain(seed=5, n=12):
    # exit rates spanning 1e4
    rng = np.random.default_rng(seed)
    q = random_irreversible(rng, n) * np.geomspace(1.0, 1e4, n)[:, None]
    return chain_spec(validate(q), weight_function(rng.uniform(1.0, 3.0, n)))


def test_stiff_chain_is_uniformized_in_segments(segment_sizes, decomposition_counts):
    # the fine grid spans many term budgets of the fastest state: each
    # segment covers at most _UNIFORM_TERMS / (largest exit rate)
    spec = stiff_chain()
    grid = np.linspace(0.0, 0.05, 200)
    prop = Propagator(spec)
    rows = prop.row_deviations(0, grid)
    assert prop.method == "uniformized"
    lam = float(np.max(-np.diag(spec.q)))
    assert len(segment_sizes) >= lam * grid[-1] / semigroup._UNIFORM_TERMS > 3
    assert sum(segment_sizes) == grid.size
    assert decomposition_counts["expm"] == 0
    full = expm_rows(spec, 0, grid)
    assert np.max(np.abs(rows - full)) <= 1e-12


def test_stiff_chain_takes_coarse_gaps_densely(segment_sizes, deviation_calls):
    # fine steps, then steps far beyond the term budget while the slow
    # states are still far from equilibrium: segments and dense gaps alternate
    spec = stiff_chain()
    grid = np.concatenate([np.linspace(0.0, 0.01, 50), np.geomspace(0.02, 0.5, 8)])
    prop = Propagator(spec)
    rows = prop.row_deviations(0, grid)
    assert segment_sizes and deviation_calls[0] == 8
    full = expm_rows(spec, 0, grid)
    assert np.abs(full[-1]).max() > 1e-3
    assert np.max(np.abs(rows - full)) <= 1e-12


def test_reversible_chain_forced_to_pade_steps_the_row(segment_sizes, decomposition_counts):
    spec = dense_chain(True, ABOVE)
    grid = default_time_grid(chain_analysis(spec).gap)
    semigroup._uniformized_rows(chain_analysis(spec), 0, grid)
    # the default grid lies within one term budget: one segment
    assert segment_sizes == [grid.size]
    assert decomposition_counts["expm"] == 0


def test_row_stepping_takes_long_steps_densely(deviation_calls):
    # steps far beyond the chain's time scale: a uniformization segment's
    # cost grows with the step, so these go through one whole deviation each
    spec = dense_chain(False, ABOVE)
    grid = np.geomspace(0.01, 1e6, 12)
    curve = decay_curve(spec, 0, grid)
    assert deviation_calls[0] > 0
    full = [f_norm(row, spec.weight) for row in expm_rows(spec, 0, grid)]
    assert np.max(np.abs(curve.fnorms - full)) <= 1e-12 * spec.f.sum()


def test_poisson_weights_match_a_40_digit_reference():
    """Segment means from 0 to the term budget: every weight >= 1e-20 to
    5e-15 relative against mpmath at 40 digits, and each column sums to 1
    within 1e-15."""
    mp = pytest.importorskip("mpmath")
    means = np.array([0.0, 1e-3, 0.5, 1.0, 7.3, 20.0, 50.0, 99.9, 100.0])
    w = semigroup._poisson_weights(means)
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= 1e-15
    with mp.workdps(40):
        for g, mean in enumerate(means):
            m = mp.mpf(mean)
            for k in range(w.shape[0]):
                ref = mp.exp(-m) * m**k / mp.factorial(k)
                if ref >= 1e-20:
                    assert abs(mp.mpf(w[k, g]) - ref) <= 5e-15 * ref


@pytest.mark.parametrize("n", [None, 5, 8])
def test_pade_rows_match_a_40_digit_exponential(ex22, n):
    """Uniformized rows of example 2.2 and of two random irreversible
    chains, at five default-grid times, to 1e-14 per entry against
    mpmath's expm at 40 digits.  Q's diagonal is rebuilt in mpmath from
    the off-diagonals: the float diagonal leaves row sums near 1e-16,
    which a high-precision exponential would drift by."""
    mp = pytest.importorskip("mpmath")
    spec = ex22 if n is None else dense_chain(False, n)
    prop = Propagator(spec)
    assert prop.method == "uniformized"
    grid = default_time_grid(chain_analysis(spec).gap)
    picks = [0, 15, 30, 45, 59]
    with mp.workdps(40):
        Q = mp.matrix(spec.q.tolist())
        for k in range(spec.n):
            Q[k, k] = -mp.fsum(Q[k, j] for j in range(spec.n) if j != k)
        exact = [mp.expm(mp.mpf(grid[g]) * Q) for g in picks]
    for i in range(spec.n):
        rows = prop.row_deviations(i, grid)[picks] + spec.pi
        for P, row in zip(exact, rows):
            assert max(abs(float(P[i, j]) - row[j]) for j in range(spec.n)) <= 1e-14


@pytest.mark.parametrize("n", [None, 5, 8])
def test_uniformized_deviation_matches_a_40_digit_exponential(ex22, n):
    """Whole deviations P_t - pi of example 2.2 and of two random
    irreversible chains at 13, 25 and 40 over the true decay rate, to
    1e-13 normwise-relative (largest entry) against mpmath at 40 digits,
    where expm(tQ) - pi reads 1e-10, 1e-5 and 1e2.  Q's diagonal is
    rebuilt in mpmath from the off-diagonals, and the reference pi solves
    pi Q = 0 at 40 digits."""
    mp = pytest.importorskip("mpmath")
    spec = ex22 if n is None else dense_chain(False, n)
    prop = Propagator(spec)
    assert prop.method == "uniformized"
    rho = chain_analysis(spec).true_decay_rate
    m = spec.n
    with mp.workdps(40):
        Q = mp.matrix(spec.q.tolist())
        for k in range(m):
            Q[k, k] = -mp.fsum(Q[k, j] for j in range(m) if j != k)
        # pi Q = 0 and sum(pi) = 1: Q^T pi = 0 with its last equation replaced
        A = Q.T
        for j in range(m):
            A[m - 1, j] = 1
        pi = mp.lu_solve(A, mp.matrix([0] * (m - 1) + [1]))
        for c in (13.0, 25.0, 40.0):
            t = c / rho
            P = mp.expm(mp.mpf(t) * Q)
            exact = np.array([[float(P[i, j] - pi[j]) for j in range(m)] for i in range(m)])
            err = np.max(np.abs(prop.deviation(t) - exact)) / np.max(np.abs(exact))
            assert err <= 1e-13, (c, err)


def mp_deviations(spec, times):
    """P_t - pi at each of ``times`` from mpmath's expm at 40 digits, Q's
    diagonal rebuilt from the off-diagonals and pi solving pi Q = 0 at 40
    digits, as float arrays."""
    mp = pytest.importorskip("mpmath")
    m = spec.n
    with mp.workdps(40):
        Q = mp.matrix(spec.q.tolist())
        for k in range(m):
            Q[k, k] = -mp.fsum(Q[k, j] for j in range(m) if j != k)
        A = Q.T
        for j in range(m):
            A[m - 1, j] = 1
        pi = mp.lu_solve(A, mp.matrix([0] * (m - 1) + [1]))
        out = []
        for t in times:
            P = mp.expm(mp.mpf(t) * Q)
            out.append(np.array([[float(P[i, j] - pi[j]) for j in range(m)] for i in range(m)]))
    return out


@pytest.mark.parametrize("chain", ["two_state", "ex21", "bd6", 5, 8])
def test_swept_reversible_curves_match_a_40_digit_exponential(request, chain):
    """A reversible chain swept at Lam' = max(Lam, top of the spectrum),
    every mode's multiplier in [0, 1], keeps relative accuracy: curves
    from every state at 5, 13 and 25 over the gap within 1e-13 relative
    of mpmath.  The two-state chain has gap 2 Lam (swept at its exit rate,
    its one multiplier is -1); example 2.1's gap exceeds its largest exit
    rate."""
    if chain == "two_state":
        spec = two_state()
    elif isinstance(chain, int):
        spec = dense_chain(True, chain)
    else:
        spec = request.getfixturevalue(chain)
    a = chain_analysis(spec)
    top = -a.spectrum[-1].real
    rho = a.gap
    exits = float(np.max(-np.diag(spec.q)))
    assert top >= exits
    if chain == "two_state":
        assert rho == pytest.approx(2.0 * exits, rel=1e-15)
    if chain == "ex21":
        assert rho > exits
    times = np.array([5.0, 13.0, 25.0]) / rho
    exact = mp_deviations(spec, times)
    for i in range(spec.n):
        rows = semigroup._uniformized_rows(a, i, times)
        curve = np.abs(rows) @ spec.f
        ref = np.array([np.abs(D[i]) @ spec.f for D in exact])
        assert np.max(np.abs(curve - ref) / ref) <= 1e-13


@pytest.mark.parametrize("n, bound", [(None, 1e-12), (5, 1e-13), (8, 1e-13)])
def test_deflated_irreversible_rows_match_a_40_digit_exponential(ex22, n, bound):
    """The uniformized rows carry the deviation, so at 13 over the true
    decay rate, where subtracting pi from the law's row lost 3e-11 to
    7e-11 relative on example 2.2, each row is within ``bound``
    normwise-relative (largest entry) of mpmath.  Example 2.2 reads 3e-13
    to 6e-13: every decaying mode of its P = I + Q / Lam has |mu| = 0.71,
    so the Poisson sum's terms fall like exp(-0.29 t) while the row falls
    like exp(-1.25 t), and rounding is amplified by their ratio, 2e4 at
    13 / 1.25."""
    spec = ex22 if n is None else dense_chain(False, n)
    prop = Propagator(spec)
    assert prop.method == "uniformized"
    t = 13.0 / chain_analysis(spec).true_decay_rate
    (exact,) = mp_deviations(spec, [t])
    for i in range(spec.n):
        row = prop.row_deviations(i, np.array([t]))[0]
        assert np.max(np.abs(row - exact[i])) <= bound * np.max(np.abs(exact[i]))


def mm1(n=200, load=0.9):
    """A stiff M/M/1 queue truncated at n states: gap about 2.6e-3 against
    a top rate about 3.8."""
    return build_birth_death(np.full(n - 1, load), np.ones(n - 1), np.ones(n))


@pytest.mark.parametrize("n", [ABOVE, 200])
def test_a_sweepable_reversible_curve_takes_no_eigenvector(decomposition_counts, n):
    spec = dense_chain(True, n)
    grid = default_time_grid(chain_analysis(spec).gap)
    curve = decay_curve(spec, 1, grid)
    assert curve.method == "uniformized" and curve.noise_floor == 1e-300
    assert decomposition_counts == {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}
    # the same rows from the expansion, which is built only now
    full = np.abs(Propagator(spec).row_deviations(1, grid)) @ spec.f
    assert decomposition_counts["eigh"] == 1
    assert np.max(np.abs(curve.fnorms - full) / full) <= 1e-12


@pytest.mark.parametrize("chain", ["ex21", "bd6", "reversible-80", "ex22", "irreversible-5"])
def test_the_analysis_sets_the_uniformization_rate(request, chain):
    # a reversible chain is uniformized at max(Lam, lam_max), the top of its
    # spectrum up to rounding (example 2.1's exceeds its largest exit rate
    # Lam), any other chain at Lam; P - 1 pi is taken at that rate
    if chain.startswith(("reversible", "irreversible")):
        kind, n = chain.split("-")
        spec = dense_chain(kind == "reversible", int(n))
    else:
        spec = request.getfixturevalue(chain)
    a = chain_analysis(spec)
    rate, tilde = a._uniformized
    exits = float(np.max(-np.diag(spec.q)))
    if a.reversible:
        top = -a.spectrum[-1].real
        assert rate >= top and rate == pytest.approx(max(exits, top), rel=1e-15)
        if chain == "ex21":
            assert top > exits
    else:
        assert rate == pytest.approx(exits, rel=1e-15)
    expected = np.eye(spec.n) + spec.q / rate - spec.pi
    assert np.max(np.abs(tilde - expected)) <= 1e-15


def test_swept_curves_read_one_uniformized_matrix():
    # the sweep reads the analysis's memo: two curves leave one P - 1 pi
    spec = dense_chain(True, ABOVE)
    a = chain_analysis(spec)
    grid = default_time_grid(a.gap)
    assert "_uniformized" not in a.__dict__
    first = decay_curve(spec, 0, grid)
    memo = a.__dict__["_uniformized"]
    second = decay_curve(spec, 1, grid)
    assert first.method == second.method == "uniformized"
    assert a.__dict__["_uniformized"] is memo


@pytest.mark.parametrize("reader", ["mm1-curve", "h_function", "deviation", "matrix"])
def test_readers_that_keep_the_expansion(decomposition_counts, reader):
    # h_function divides its rows by pi and whole matrices need every row,
    # so both read the expansion whatever the time; so does a curve whose
    # grid is too long to sweep (the stiff M/M/1 queue's default grid)
    if reader == "mm1-curve":
        spec = mm1()
        curve = decay_curve(spec, 0, default_time_grid(chain_analysis(spec).gap))
        assert curve.method == "spectral"
        assert -chain_analysis(spec).spectrum[-1].real * curve.times[-1] > spec.n
    else:
        spec = dense_chain(True, ABOVE)
        prop = Propagator(spec)
        {"h_function": lambda: h_function(spec, 0, 1.0), "deviation": lambda: prop.deviation(1.0),
         "matrix": lambda: prop.matrix(1.0)}[reader]()
    assert decomposition_counts["eigh"] == 1


@pytest.mark.parametrize("n", [7, ABOVE])
@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_scaling_the_generator_keeps_the_route(n, c):
    # Q -> cQ scales Lam' by c and the default grid by 1 / c: the rule
    # reads their product, so the route and the curve stay
    spec = dense_chain(True, n)
    scaled = chain_spec(validate(c * spec.q), spec.weight)
    grid = default_time_grid(chain_analysis(spec).gap)
    base, moved = decay_curve(spec, 1, grid), decay_curve(scaled, 1, grid / c)
    assert moved.method == base.method == ("uniformized" if n >= ABOVE else "spectral")
    assert np.max(np.abs(moved.fnorms - base.fnorms) / base.fnorms) <= 1e-12


# --------------------------------------------------------------------- CSV

def test_decay_curve_csv_round_trip(ex21):
    curve = decay_curve(ex21, 0, default_time_grid(1.0, points=20))
    text = decay_curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "t,fnorm,envelope"
    data = np.loadtxt(text.strip().split("\n")[1:], delimiter=",")
    assert np.allclose(data[:, 0], curve.times, rtol=0, atol=0)
    assert np.allclose(data[:, 1], curve.fnorms, rtol=1e-16)
    assert np.allclose(data[:, 2], curve.envelope, rtol=1e-16)


def test_decay_curve_csv_is_the_f_string_of_each_row(ex21):
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e300, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(3)
    t, fn, env = (rng.permutation(values) for _ in range(3))
    curve = replace(decay_curve(ex21, 0, np.arange(9.0)), times=t, fnorms=fn, envelope=env)
    rows = "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(t, fn, env))
    assert decay_curve_to_csv(curve) == "t,fnorm,envelope\n" + rows


# --------------------------------------------------------------- property

@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    t=st.floats(min_value=0.0, max_value=5.0),
)
def test_semigroup_identities_random_reversible(seed, t):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    spec = chain_spec(
        validate(random_detailed_balance(rng, n)), weight_function(np.ones(n))
    )
    prop = Propagator(spec)
    P = prop.matrix(t)
    assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9
    assert np.max(np.abs(spec.pi @ P - spec.pi)) <= 1e-9
    limit = np.outer(np.ones(n), spec.pi)
    assert np.max(np.abs(prop.deviation(t) + limit - P)) <= 1e-10
