"""Weight-conjugated semigroup identities and the started deviation."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergorate.chain_core import (
    build_birth_death,
    build_example21,
    build_example22,
    chain_spec,
    distribution,
    weight_function,
)
from ergorate.errors import ErgorateError, Overflow, TooLarge
from ergorate.htransform import (
    TransformedSemigroup,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    h_function,
    measured_l2_rate,
    transform,
)
from ergorate.semigroup import Propagator, f_norm
from ergorate.spectral import gap


# ----------------------------------------------------- conjugation algebra

def test_unit_weight_degenerates_to_base(ex22):
    T = transform(ex22)  # f is identically 1
    assert np.array_equal(T.qf, ex22.q)
    assert np.max(np.abs(T.pf_matrix(0.7) - T.prop.matrix(0.7))) == 0.0
    assert np.array_equal(T.nu, ex22.pi)
    g = np.array([1.0, -2.0, 0.5])
    assert np.allclose(T.pif(g), np.full(3, np.dot(ex22.pi, g)))


def test_reference_measure_closed_form(ex21):
    T = transform(ex21)
    pi = ex21.pi
    assert np.allclose(T.nu, [pi[0], 4.0 * pi[1], 4.0 * pi[2]], atol=1e-15)


def test_conjugated_generator_two_orders(bd6):
    T = transform(bd6)
    explicit = np.diag(1.0 / bd6.f) @ bd6.q @ np.diag(bd6.f)
    assert np.max(np.abs(T.qf - explicit)) <= 1e-12


def test_conjugated_semigroup_is_exp_of_conjugated_generator(bd6):
    import scipy.linalg

    T = transform(bd6)
    t = 0.8
    assert np.max(np.abs(T.pf_matrix(t) - scipy.linalg.expm(t * T.qf))) <= 1e-10


def test_deviation_is_matrix_minus_projection(bd6):
    T = transform(bd6)
    t = 1.1
    projection = np.outer(1.0 / bd6.f, bd6.pi * bd6.f)  # row i is pi_j f_j / f_i
    assert np.max(np.abs(T.pf_deviation(t) - (T.pf_matrix(t) - projection))) <= 1e-12


def test_projection_matrix_is_idempotent(bd6):
    T = transform(bd6)
    M = np.outer(1.0 / bd6.f, bd6.pi * bd6.f)
    assert np.max(np.abs(M @ M - M)) <= 1e-14
    g = np.array([0.3, -1.0, 2.0, 0.0, 1.0, -0.5])
    assert np.max(np.abs(T.pif(T.pif(g)) - T.pif(g))) <= 1e-14


# ---------------------------------------------------- structural identities

def test_lemma31_reversible_chain(bd6):
    rng = np.random.default_rng(31)
    T = transform(bd6)
    g1, g2 = rng.standard_normal(6), rng.standard_normal(6)
    reports = check_lemma31(T, 0.9, 0.4, g1, g2)
    assert [r.lemma for r in reports] == [
        "lemma31.semigroup",
        "lemma31.symmetry",
        "lemma31.projection",
    ]
    for r in reports:
        assert r.passed, r.lemma
        assert r.residual <= 1e-9
        assert r.lhs is None and r.rhs is None


def test_lemma31_zero_times(bd6):
    T = transform(bd6)
    g = np.ones(6)
    for r in check_lemma31(T, 0.0, 0.0, g, np.arange(6.0)):
        assert r.passed


def test_lemma31_symmetry_fails_for_irreversible(ex22):
    rng = np.random.default_rng(77)
    T = transform(ex22)
    sem, sym, proj = check_lemma31(T, 0.8, 0.3, rng.standard_normal(3), rng.standard_normal(3))
    assert sem.passed
    assert proj.passed
    assert not sym.passed
    assert sym.residual > 1e-3


# ------------------------------------------ bounds that scale with the weight

def lemma_battery(T, g1, g2):
    """Every identity check of a reversible chain, at verify's times."""
    return [*check_lemma31(T, 0.7, 0.3, g1, g2), check_lemma32(T, 0.5), check_lemma33(T, 0.5)]


@pytest.mark.parametrize("beta", [2.0, 1e6, 1e9])
def test_lemma_checks_pass_under_a_large_weight(beta):
    # the compared terms grow like the weight: under an absolute bound of
    # 1e-9, lemma31.symmetry and lemma32 failed at 1e6 and every lemma 3.1
    # residual and lemma32 at 1e9, on correct numbers
    T = transform(build_example21([0.5, 0.25, 0.25], beta))
    rng = np.random.default_rng(17)
    for _ in range(5):
        g1, g2 = rng.standard_normal((2, 3))
        for rep in lemma_battery(T, g1, g2):
            assert rep.passed, (rep.lemma, rep.residual)


@settings(max_examples=40, deadline=None)
@given(log_beta=st.floats(min_value=np.log10(2.0), max_value=12.0), seed=st.integers(0, 2**31))
def test_lemma_checks_pass_for_weights_from_2_to_1e12(log_beta, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.2, 1.0, 3)
    T = transform(build_example21(p / p.sum(), 10.0**log_beta))
    g1, g2 = rng.standard_normal((2, 3))
    for rep in lemma_battery(T, g1, g2):
        assert rep.passed, (rep.lemma, rep.residual)


@pytest.mark.parametrize("beta", [2.0, 1e6, 1e9, 1e12])
def test_a_semigroup_perturbed_by_1e_6_fails(beta):
    # a scaled bound must not become a loose one: every P_t and deviation
    # off by a fixed entrywise 1e-6 relative pattern
    T = transform(build_example21([0.5, 0.25, 0.25], beta))
    E = 1.0 + 1e-6 * np.random.default_rng(5).uniform(-1.0, 1.0, (3, 3))
    matrix, deviation = T.prop.matrix, T.prop.deviation
    T.prop.matrix = lambda u: matrix(u) * E
    T.prop.deviation = lambda u: deviation(u) * E
    g1, g2 = np.random.default_rng(17).standard_normal((2, 3))
    sem, _, proj, l32, _ = lemma_battery(T, g1, g2)
    assert not sem.passed and not proj.passed and not l32.passed


@pytest.mark.parametrize("beta", [2.0, 1e6, 1e9, 1e12])
def test_a_non_stationary_pi_fails(beta):
    # the same semigroup, with nu and the projection built from a pi off
    # by 1e-6 relative
    spec = build_example21([0.5, 0.25, 0.25], beta)
    T = transform(spec)
    p = spec.pi.copy()
    p[:2] += np.array([1.0, -1.0]) * 1e-6 * p[0]
    T.base = replace(spec, stationary=distribution(p))
    g1, g2 = np.random.default_rng(17).standard_normal((2, 3))
    _, sym, proj = check_lemma31(T, 0.7, 0.3, g1, g2)
    assert not sym.passed and not proj.passed


# ------------------------------------------------------------ norm identity

def test_lemma32_resampling_family():
    rng = np.random.default_rng(32)
    p = rng.uniform(0.2, 1.0, 5)
    spec = build_example21(p / p.sum(), 2.0)
    for t in (0.3, 1.0, 2.5):
        rep = check_lemma32(transform(spec), t)
        assert rep.passed
        assert rep.residual <= 1e-9
        assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)


def test_lemma32_birth_death(bd6):
    rep = check_lemma32(transform(bd6), 0.6)
    assert rep.passed
    assert rep.residual <= 1e-9


def test_lemma32_time_zero(bd6):
    rep = check_lemma32(transform(bd6), 0.0)
    assert rep.passed


def test_lemma32_rejects_irreversible(ex22):
    with pytest.raises(ErgorateError, match="reversible"):
        check_lemma32(transform(ex22), 1.0)


def test_lemma32_size_cap():
    rng = np.random.default_rng(5)
    spec = build_birth_death(rng.uniform(0.5, 1.5, 20), rng.uniform(0.5, 1.5, 20))
    with pytest.raises(TooLarge):
        check_lemma32(transform(spec), 1.0)


# ------------------------------------------------------------- curve bound

def test_lemma33_bound_holds(bd6):
    T = transform(bd6)
    for t in (0.2, 1.0, 5.0):
        rep = check_lemma33(T, t)
        assert rep.passed
        assert rep.lhs <= rep.rhs + 1e-9
        assert rep.residual == pytest.approx(rep.lhs - rep.rhs, abs=1e-15)


def test_lemma33_large_time_both_sides_vanish(bd6):
    rep = check_lemma33(transform(bd6), 150.0)  # gap ~0.212, e^{-gap t} ~1.6e-14
    assert rep.passed
    assert rep.lhs <= 1e-10
    assert rep.rhs <= 1e-10


def test_lemma33_two_state_unit_weight_is_equality():
    from ergorate.chain_core import chain_spec, validate, weight_function

    spec = chain_spec(validate([[-1.0, 1.0], [1.0, -1.0]]), weight_function([1.0, 1.0]))
    rep = check_lemma33(transform(spec), 0.7)
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-12)


def test_lemma33_irreversible_allowed(ex22):
    rep = check_lemma33(transform(ex22), 0.9)
    assert rep.passed


# -------------------------------------------------------- started deviation

def test_h_function_closed_form(bd6):
    for i in (0, 2, 5):
        for s in (0.2, 0.7, 2.0):
            _, direct, closed = h_function(bd6, i, s)
            assert closed is not None
            assert abs(direct - closed) <= 1e-10


def test_h_function_closed_form_none_for_irreversible(ex22):
    _, direct, closed = h_function(ex22, 0, 0.5)
    assert closed is None
    assert direct > 0.0


def test_h_function_vanishes_at_large_start(bd6):
    h, norm_sq, closed = h_function(bd6, 1, 120.0)  # gap ~0.212
    assert np.max(np.abs(h.values)) <= 1e-9
    assert norm_sq <= 1e-18
    assert abs(closed) <= 1e-12


def test_h_function_mean_zero(bd6, ex22):
    for spec in (bd6, ex22):
        h, _, _ = h_function(spec, 0, 0.4)
        assert abs(np.dot(spec.pi * spec.f, h.values)) <= 1e-12
        T = transform(spec)
        assert np.max(np.abs(T.pif(h.values))) <= 1e-12


def test_h_function_rejects_bad_inputs(bd6):
    with pytest.raises(ErgorateError):
        h_function(bd6, 0, 0.0)
    with pytest.raises(ErgorateError):
        h_function(bd6, 99, 0.5)


@pytest.mark.parametrize("chain", ["bd6", "ex22"])
@pytest.mark.parametrize("i", [1.5, 2.0, np.float64(1.0)])
def test_h_function_refuses_a_state_that_is_not_an_integer(request, chain, i):
    # a float state once raised numpy's untyped IndexError
    with pytest.raises(ErgorateError, match=r"^state .* is not an integer$"):
        h_function(request.getfixturevalue(chain), i, 0.5)


def test_h_function_definition_matches_entries(bd6):
    s, i = 0.6, 3
    h, _, _ = h_function(bd6, i, s)
    # bd6 is reversible: h_function reads its row at s and 2s in one call
    expected = Propagator(bd6).row_deviations(i, np.array([s, 2.0 * s]))[0] / (bd6.f * bd6.pi)
    assert np.max(np.abs(h.values - expected)) == 0.0


def test_h_function_matches_a_60_digit_reference(bd6):
    """h, ||h||^2 and the closed form to 1e-12 relative, against mpmath at
    60 digits.  Q's diagonal and pi are rebuilt in mpmath (row sums of the
    float diagonal are ~1e-16, which a long-time reference would drift by),
    pi by the birth-death recursion.  P / (f pi) - 1 / f once lost every
    digit here: the closed form was off by 2.5 at s = 60."""
    mp = pytest.importorskip("mpmath")
    n = bd6.n
    with mp.workdps(60):
        Q = mp.matrix(bd6.q.tolist())
        for k in range(n):
            Q[k, k] = -mp.fsum(Q[k, j] for j in range(n) if j != k)
        pi = [mp.mpf(1)]
        for k in range(n - 1):
            pi.append(pi[-1] * Q[k, k + 1] / Q[k + 1, k])
        pi = [p / mp.fsum(pi) for p in pi]
        f = [mp.mpf(x) for x in bd6.f]
        for s in (0.6, 5.0, 20.0, 60.0, 120.0):
            P_s, P_2s = mp.expm(s * Q), mp.expm(2 * s * Q)
            for i in range(n):
                h, norm_sq, closed = h_function(bd6, i, s)
                ref = [P_s[i, j] / (f[j] * pi[j]) - 1 / f[j] for j in range(n)]
                ref_norm = mp.fsum(f[j] ** 2 * pi[j] * ref[j] ** 2 for j in range(n))
                ref_closed = P_2s[i, i] / pi[i] - 1
                assert max(abs((h.values[j] - ref[j]) / ref[j]) for j in range(n)) <= 1e-12
                assert abs((norm_sq - ref_norm) / ref_norm) <= 1e-12
                assert abs((closed - ref_closed) / ref_closed) <= 1e-12


def test_started_deviation_drives_curve_bound(bd6):
    """Full proof chain: curve(t) <= sqrt(pi(f^2)) e^{-gap (t-s)} ||h_s||."""
    g = gap(bd6.rate_matrix, bd6.stationary)
    prop = Propagator(bd6)
    mass = float(np.dot(bd6.pi, bd6.f**2))
    for i in range(bd6.n):
        for s, t in ((0.3, 3.0), (0.5, 1.0), (1.0, 4.0)):
            _, norm_sq, _ = h_function(bd6, i, s)
            curve_val = f_norm(prop.deviation(t)[i, :], bd6.weight)
            bound = np.sqrt(mass) * np.exp(-g * (t - s)) * np.sqrt(norm_sq)
            assert curve_val <= bound + 1e-12


def test_started_deviation_contracts_at_gap_rate(bd6):
    g = gap(bd6.rate_matrix, bd6.stationary)
    for s, t in ((0.3, 3.0), (0.2, 6.0)):
        _, ns_s, _ = h_function(bd6, 2, s)
        _, ns_t, _ = h_function(bd6, 2, t)
        assert np.sqrt(ns_t) <= np.exp(-g * (t - s)) * np.sqrt(ns_s) + 1e-12


# ----------------------------------------------------------- measured rate

def test_nu_reversibility_entrywise(bd6):
    T = transform(bd6)
    M = T.pf_matrix(0.9)
    flux = T.nu[:, None] * M
    assert np.max(np.abs(flux - flux.T)) <= 1e-10


def test_l2_contraction_at_gap_rate(bd6):
    T = transform(bd6)
    g = gap(bd6.rate_matrix, bd6.stationary)
    root = np.sqrt(T.nu)
    for t in (0.5, 2.0, 8.0):
        M = (root[:, None] * T.pf_deviation(t)) / root[None, :]
        sigma = np.linalg.norm(M, ord=2)
        assert sigma <= np.exp(-g * t) + 1e-9


def test_measured_l2_rate_equals_gap(bd6):
    T = transform(bd6)
    g = gap(bd6.rate_matrix, bd6.stationary)
    for t in (0.5, 3.0):
        assert abs(measured_l2_rate(T, t) - g) <= 1e-9


def test_measured_l2_rate_rejects_zero_time(bd6):
    with pytest.raises(ErgorateError):
        measured_l2_rate(transform(bd6), 0.0)


def test_measured_l2_rate_irreversible_at_least_gap(ex22):
    T = transform(ex22)
    g = gap(ex22.rate_matrix, ex22.stationary)
    assert measured_l2_rate(T, 25.0) >= g - 1e-3


# ------------------------------------------------------------ huge weights

def lemma_chain(n):
    """The seed-13 birth-death chain ``ergorate verify --n`` checks."""
    rng = np.random.default_rng(13)
    b = rng.uniform(0.5, 2.0, n - 1)
    d = rng.uniform(0.5, 2.0, n - 1)
    return build_birth_death(b, d, rng.uniform(1.0, 3.0, n))


def battery_example21_n7():
    p = np.random.default_rng(90210).uniform(0.5, 1.5, 7)
    return build_example21(p / p.sum(), 3.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_birth_death([1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2]),
        lambda: build_example21([0.5, 0.25, 0.25], 2.0),
        battery_example21_n7,
        lambda: lemma_chain(6),
        lambda: lemma_chain(50),
        lambda: lemma_chain(300),
        lambda: lemma_chain(600),
    ],
    ids=["bd6", "example21.n3", "example21.n7", "lemma.n6", "lemma.n50", "lemma.n300", "lemma.n600"],
)
def test_f_free_numbers_are_bit_identical_under_a_huge_weight(build):
    """||h_s||^2, its closed form and the L2(nu) rate do not depend on f,
    and are formed without it: f -> 1e200 f, whose square overflows,
    leaves them bit-identical (they were nan before)."""
    spec = build()
    big = chain_spec(spec.rate_matrix, weight_function(1e200 * spec.f), pi=spec.stationary)
    for i in sorted({0, spec.n // 2, spec.n - 1}):
        for s in (0.25, 0.8):
            _, norm_sq, closed = h_function(spec, i, s)
            _, norm_sq_big, closed_big = h_function(big, i, s)
            assert norm_sq_big == norm_sq and np.isfinite(norm_sq)
            assert closed_big == closed
    rate = measured_l2_rate(transform(spec), 0.5)
    assert measured_l2_rate(transform(big), 0.5) == rate
    assert abs(rate - gap(spec.rate_matrix, spec.stationary)) <= 1e-9


def test_nu_weighted_checks_raise_overflow_when_nu_leaves_the_double_range():
    spec = build_example21([0.5, 0.25, 0.25], 1e200)  # nu = 2.5e399 at states 1, 2
    T = transform(spec)  # building it reads no nu
    g = np.array([1.0, -1.0, 0.5])
    with pytest.raises(Overflow, match=r"nu = f\^2 pi overflows \(largest f 1.000e\+200\)"):
        T.nu
    with pytest.raises(Overflow):
        check_lemma31(T, 0.7, 0.3, g, g)
    with pytest.raises(Overflow):
        check_lemma32(T, 0.5)
    with pytest.raises(Overflow):
        check_lemma33(T, 0.5)


# ------------------------------------------------------------------- JSON

def test_lemma_report_to_dict(bd6):
    rep = check_lemma32(transform(bd6), 0.5)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert set(blob) == {"lemma", "inputs", "lhs", "rhs", "residual", "pass"}
    assert blob["pass"] is True
    assert blob["inputs"] == {"t": 0.5}


def test_lemma31_report_null_sides(bd6):
    rep = check_lemma31(transform(bd6), 0.1, 0.1, np.ones(6), np.ones(6))[0]
    blob = rep.to_dict()
    assert blob["lhs"] is None and blob["rhs"] is None


def test_custom_weight_on_cycle_chain():
    spec = build_example22([1.0, 2.0, 1.5])
    T = transform(spec)
    assert np.allclose(T.nu, spec.f**2 * spec.pi)
    sem, _, proj = check_lemma31(
        T, 0.5, 0.2, np.array([1.0, 0.0, -1.0]), np.array([0.2, 1.0, 0.4])
    )
    assert sem.passed and proj.passed
