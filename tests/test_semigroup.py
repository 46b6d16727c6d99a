"""Matrix exponentials, decay curves, rate fitting, brute-force norms."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_detailed_balance, random_irreversible

from ergorate import semigroup
from ergorate.chain_core import (
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
from ergorate.semigroup import (
    DecayCurve,
    Propagator,
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    expm,
    f_norm,
    fit_rate,
    mu_ft_norm,
    opnorm_inf_to_1,
    opnorm_inf_to_2,
)
from ergorate.spectral import chain_analysis, gap, spectral_report


def two_state():
    return chain_spec(validate([[-1.0, 1.0], [1.0, -1.0]]), weight_function([1.0, 1.0]))


# ------------------------------------------------------------------- expm

def test_expm_time_zero_is_identity(ex22):
    snap = expm(ex22, 0.0)
    assert np.max(np.abs(snap.P - np.eye(3))) <= 1e-14


def test_expm_two_state_closed_form():
    spec = two_state()
    for method in ("spectral", "pade"):
        P = expm(spec, 1.0, method=method).P
        assert P[0, 0] == pytest.approx(0.5 + 0.5 * np.exp(-2.0), abs=1e-13)
        assert P[0, 1] == pytest.approx(0.5 - 0.5 * np.exp(-2.0), abs=1e-13)


def test_expm_methods_agree(ex21):
    for t in (0.1, 1.0, 5.0):
        Ps = expm(ex21, t, method="spectral").P
        Pp = expm(ex21, t, method="pade").P
        assert np.max(np.abs(Ps - Pp)) <= 1e-12


def test_expm_long_time_limit(ex22):
    P = expm(ex22, 40.0).P
    assert np.max(np.abs(P - np.outer(np.ones(3), ex22.pi))) <= 1e-9


def test_snapshot_rows_stochastic(bd6):
    for t in (0.05, 0.7, 12.0):
        P = expm(bd6, t).P
        assert np.all(P >= 0.0)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-10


def test_snapshot_records_method(ex21, ex22):
    assert expm(ex21, 1.0).method == "spectral"
    assert expm(ex22, 1.0).method == "pade"


def test_propagator_rejects_negative_time(ex21):
    with pytest.raises(ErgorateError, match="nonnegative"):
        Propagator(ex21).matrix(-0.5)


def test_propagator_rejects_huge_time(ex21):
    with pytest.raises(Overflow):
        Propagator(ex21).matrix(1e13)


def test_propagator_rejects_unknown_method(ex21):
    with pytest.raises(ErgorateError, match="method"):
        Propagator(ex21, method="magic")


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
    prop = Propagator(ex21, method="spectral")
    dev = prop.deviation(80.0)
    expected = np.exp(-80.0) * (np.eye(3) - np.outer(np.ones(3), ex21.pi))
    assert np.max(np.abs(dev - expected)) <= 1e-12 * np.exp(-80.0)


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
    curve = decay_curve(ex22, 0, grid)  # pade route, floor 1e-14
    assert curve.noise_floor == 1e-14
    with pytest.raises(NoiseFloor):
        fit_rate(curve, window=(30.0, 40.0))


def test_fit_rate_rejects_bad_mode(ex21):
    curve = decay_curve(ex21, 0, default_time_grid(1.0))
    with pytest.raises(ErgorateError, match="mode"):
        fit_rate(curve, mode="robust")
    with pytest.raises(ErgorateError, match="window"):
        fit_rate(curve, window=(3.0, 1.0))


def test_fit_rate_to_dict():
    d = fit_rate(synthetic_peaked_curve()).to_dict()
    assert set(d) == {"rate", "intercept", "window", "residual", "mode", "n_points"}


# ------------------------------------------------------------- mu_ft_norm

def test_mu_ft_norm_two_routes_agree(bd6):
    rng = np.random.default_rng(13)
    mu = rng.uniform(0.1, 1.0, bd6.n)
    mu /= mu.sum()
    direct, via_dual = mu_ft_norm(mu, bd6, 0.7)
    assert abs(direct - via_dual) <= 1e-10


def test_mu_ft_norm_stationary_start_is_zero(bd6):
    direct, via_dual = mu_ft_norm(bd6.pi, bd6, 1.3)
    assert direct <= 1e-12
    assert via_dual <= 1e-12


def test_mu_ft_norm_point_mass_matches_curve(ex22):
    t = 0.9
    direct, _ = mu_ft_norm(np.eye(3)[1], ex22, t)
    curve = decay_curve(ex22, 1, np.array([t]))
    assert direct == pytest.approx(curve.fnorms[0], abs=1e-13)


def test_mu_ft_norm_rejects_non_probability(bd6):
    with pytest.raises(ErgorateError):
        mu_ft_norm(np.full(bd6.n, 0.5), bd6, 1.0)
    with pytest.raises(ErgorateError):
        mu_ft_norm(np.zeros(3), bd6, 1.0)


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

ABOVE = semigroup._ROW_STEPPING_MIN_N + 20


def dense_chain(reversible, n, seed=3):
    rng = np.random.default_rng(seed)
    q = (random_detailed_balance if reversible else random_irreversible)(rng, n) / n
    return chain_spec(validate(q), weight_function(rng.uniform(1.0, 3.0, n)))


@pytest.mark.parametrize("reversible", [True, False])
@pytest.mark.parametrize("n", [7, ABOVE])
def test_one_decomposition_per_analysis_op(decomposition_counts, reversible, n):
    spec = dense_chain(reversible, n)
    rep = spectral_report(spec)
    grid = default_time_grid(rep.gap if rep.reversible else rep.true_decay_rate)
    fit_rate(decay_curve(spec, 1, grid))
    # small irreversible chains keep one dense expm per grid time
    expm_calls = 60 if n < semigroup._ROW_STEPPING_MIN_N and not reversible else 0
    assert decomposition_counts == {"eigh": 1, "eigvals": 1, "expm": expm_calls}
    # the analysis is memoized on the spec; the per-generator functions are not
    assert chain_analysis(spec) is chain_analysis(spec)
    assert spectral_report(spec).to_dict() == rep.to_dict()
    assert decomposition_counts["eigh"] == 1 and decomposition_counts["eigvals"] == 1
    gap(spec.rate_matrix, spec.stationary)
    assert decomposition_counts["eigh"] == 2


@pytest.mark.parametrize("reversible", [True, False])
@pytest.mark.parametrize("n", [7, ABOVE])
@pytest.mark.parametrize("method", ["spectral", "pade"])
def test_row_curve_matches_full_deviation(reversible, n, method):
    spec = dense_chain(reversible, n)
    prop = Propagator(spec, method=method)
    grid = default_time_grid(chain_analysis(spec).gap)
    curve = decay_curve(spec, 2, grid, propagator=prop)
    full = [f_norm(prop.deviation(t)[2], spec.weight) for t in grid]
    assert curve.method == method
    assert np.max(np.abs(curve.fnorms - full)) <= 1e-12 * spec.f.sum()


def test_reversible_chain_forced_to_pade_steps_the_row(monkeypatch, decomposition_counts):
    spec = dense_chain(True, ABOVE)
    steps = []
    original = semigroup.expm_multiply

    def counted(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(semigroup, "expm_multiply", counted)
    grid = default_time_grid(chain_analysis(spec).gap)
    curve = decay_curve(spec, 0, grid, propagator=Propagator(spec, method="pade"))
    assert curve.method == "pade"
    assert curve.noise_floor == 1e-14
    assert len(steps) == grid.size
    assert decomposition_counts["expm"] == 0


def test_row_stepping_takes_long_steps_densely(decomposition_counts):
    # steps far beyond the chain's time scale: expm_multiply's cost grows
    # with the step, so these go through one dense exponential each
    spec = dense_chain(False, ABOVE)
    grid = np.geomspace(0.01, 1e6, 12)
    prop = Propagator(spec)
    curve = decay_curve(spec, 0, grid, propagator=prop)
    assert decomposition_counts["expm"] > 0
    full = [f_norm(prop.deviation(t)[0], spec.weight) for t in grid]
    assert np.max(np.abs(curve.fnorms - full)) <= 1e-12 * spec.f.sum()


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
