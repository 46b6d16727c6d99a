"""End-to-end acceptance checks, one test per numbered criterion.

Each test is self-contained (pinned seeds, explicit tolerances) and
asserts the exact quantitative claims the package is built to certify.
"""

from __future__ import annotations

import json

import numpy as np

from ergorate.chain_core import (
    build_birth_death,
    build_example21,
    build_example22,
    chain_spec,
    stationary,
    validate,
    weight_function,
)
from ergorate.cli import main
from ergorate.htransform import (
    check_lemma31,
    check_lemma32,
    check_lemma33,
    h_function,
    transform,
)
from ergorate.montecarlo import empirical_fnorm, sample_paths
from ergorate.semigroup import (
    Propagator,
    decay_curve,
    default_time_grid,
    f_norm,
    fit_rate,
    mu_ft_norm,
)
from ergorate.spectral import (
    ergodicity_constant,
    eigenvalues,
    gap,
    spectral_report,
    symmetric_eigendecomposition,
    true_decay_rate,
)


def resampling_battery():
    """Five random-stationary resampling chains at each size 3, 10, 50."""
    chains = []
    for n in (3, 10, 50):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            p = rng.uniform(0.2, 1.0, n)
            chains.append(build_example21(p / p.sum(), 2.0))
    return chains


def random_reversible_battery():
    """Twenty reversible chains (alternating birth-death and dense
    detailed-balance), n up to 30, random weights in [1, 4]."""
    rng = np.random.default_rng(20260823)
    chains = []
    for trial in range(20):
        n = int(rng.integers(3, 31))
        if trial % 2 == 0:
            birth = rng.uniform(0.5, 2.0, n - 1)
            death = rng.uniform(0.5, 2.0, n - 1)
            f = rng.uniform(1.0, 4.0, n)
            chains.append(build_birth_death(birth, death, f))
        else:
            p = rng.uniform(0.2, 1.0, n)
            p /= p.sum()
            W = rng.uniform(0.2, 1.0, (n, n))
            W = 0.5 * (W + W.T)
            q = W / p[:, None]
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            f = rng.uniform(1.0, 4.0, n)
            chains.append(chain_spec(validate(q), weight_function(f)))
    return chains


def test_criterion_1_resampling_gap_is_one_and_fit_recovers_it():
    for spec in resampling_battery():
        g = gap(spec.rate_matrix, spec.stationary)
        assert abs(g - 1.0) <= 1e-9, f"n={spec.n}: gap {g}"
        curve = decay_curve(spec, 0, default_time_grid(1.0))
        fit = fit_rate(curve)
        assert abs(fit.rate - 1.0) <= 1e-6, f"n={spec.n}: fitted rate {fit.rate}"


def test_criterion_2_constants_closed_form_and_envelope_dominates():
    for spec in resampling_battery():
        p = spec.pi
        expected = np.sqrt(p[0] + 4.0 * (1.0 - p[0])) * np.sqrt(1.0 / p - 1.0)
        C = ergodicity_constant(spec.stationary, spec.weight)
        assert np.max(np.abs(C - expected)) <= 1e-12
    # the beta dependence of the constant
    rng = np.random.default_rng(212)
    p = rng.uniform(0.2, 1.0, 6)
    p /= p.sum()
    beta = 3.7
    spec = build_example21(p, beta)
    expected = np.sqrt(p[0] + beta**2 * (1.0 - p[0])) * np.sqrt(1.0 / p - 1.0)
    C = ergodicity_constant(spec.stationary, spec.weight)
    assert np.max(np.abs(C - expected)) <= 1e-12
    # the curve never crosses the envelope, any state, any grid point
    grid = default_time_grid(1.0)
    for spec in resampling_battery():
        for i in range(spec.n):
            curve = decay_curve(spec, i, grid)
            assert np.all(curve.fnorms <= curve.envelope), f"n={spec.n} state {i}"


def test_criterion_3_drift_coefficient_closed_form(capsys):
    rng = np.random.default_rng(303)
    cases = [([0.5, 0.25, 0.25], 2.0), ([0.1, 0.6, 0.3], 5.0)]
    for _ in range(3):
        p = rng.uniform(0.1, 1.0, int(rng.integers(3, 9)))
        cases.append((list(p / p.sum()), float(rng.uniform(1.2, 6.0))))
    for p, beta in cases:
        pi_str = ",".join(repr(float(x)) for x in p)
        code = main(["drift", "--family", "example21", "--pi", pi_str, "--beta", repr(beta)])
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        p_parsed = [float(x) for x in pi_str.split(",")]
        expected = p_parsed[0] * (1.0 - 1.0 / beta)
        assert abs(blob["c_max"] - expected) <= 1e-12
        assert blob["c_max"] < 1.0


def test_criterion_4_cycle_chain_spectrum_and_oscillating_rate():
    spec = build_example22()
    exact_pi = np.array([0.5, 0.25, 0.25])
    assert np.max(np.abs(spec.pi - exact_pi)) <= 1e-12
    assert np.max(np.abs(stationary(spec.rate_matrix).p - exact_pi)) <= 1e-12
    lam = eigenvalues(spec.rate_matrix, spec.stationary)
    expected = [0.0, complex(-1.25, -np.sqrt(7.0) / 4.0), complex(-1.25, np.sqrt(7.0) / 4.0)]
    for z, w in zip(lam, expected):
        assert abs(z - w) <= 1e-9
    assert abs(gap(spec.rate_matrix, spec.stationary) - 1.0) <= 1e-9

    grid = np.arange(0.0, 20.0 + 1e-12, 0.01)
    curve = decay_curve(spec, 0, grid)
    fit = fit_rate(curve, window=(1.0, 20.0), mode="peaks")
    assert abs(fit.rate - 1.25) <= 1e-3, f"unit weight: rate {fit.rate}"
    rng = np.random.default_rng(7)
    for trial in range(3):
        f = rng.uniform(1.0, 3.0, 3)
        spec_f = build_example22(f)
        curve = decay_curve(spec_f, trial % 3, grid)
        fit = fit_rate(curve, window=(1.0, 20.0), mode="peaks")
        assert abs(fit.rate - 1.25) <= 1e-3, f"f={f}: rate {fit.rate}"


def test_criterion_5_random_reversible_fit_matches_gap_and_bound_holds():
    for spec in random_reversible_battery():
        lam, V, d = symmetric_eigendecomposition(spec.rate_matrix, spec.stationary)
        g = lam[1]
        delta = lam[2] - lam[1]
        # late window past third-mode contamination, inside double range
        t1 = 2.0 / g if delta <= 0 else min(max(12.0 / delta, 2.0 / g), 600.0 / g)
        t2 = t1 + 8.0 / g
        i_star = int(np.argmax(np.abs(V[:, 1] / d)))
        curve = decay_curve(spec, i_star, np.linspace(t1, t2, 40))
        fit = fit_rate(curve, window=(t1, t2), mode="loglinear")
        assert abs(fit.rate - g) / g <= 1e-4, f"n={spec.n}: rate {fit.rate} vs gap {g}"

        grid = default_time_grid(g)
        for i in range(spec.n):
            c = decay_curve(spec, i, grid)
            assert np.all(c.fnorms <= c.envelope + 1e-9), f"n={spec.n} state {i}"


def test_criterion_6_conjugated_semigroup_identities():
    rng = np.random.default_rng(606)
    chains = []
    for trial in range(10):
        n = int(rng.integers(3, 9))
        f = rng.uniform(1.0, 3.0, n)
        if trial % 2 == 0:
            chains.append(
                build_birth_death(rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1), f)
            )
        else:
            p = rng.uniform(0.2, 1.0, n)
            p /= p.sum()
            W = rng.uniform(0.2, 1.0, (n, n))
            W = 0.5 * (W + W.T)
            q = W / p[:, None]
            np.fill_diagonal(q, 0.0)
            np.fill_diagonal(q, -q.sum(axis=1))
            chains.append(chain_spec(validate(q), weight_function(f)))

    for spec in chains:
        T = transform(spec)
        t, s = rng.uniform(0.0, 3.0, 2)
        g1, g2 = rng.standard_normal((2, spec.n))
        for rep in check_lemma31(T, float(t), float(s), g1, g2):
            assert rep.passed and rep.residual <= 1e-9, rep.lemma
        rep32 = check_lemma32(T, float(rng.uniform(0.0, 1.5)))
        assert rep32.passed and rep32.residual <= 1e-9
        rep33 = check_lemma33(T, float(rng.uniform(0.0, 3.0)))
        assert rep33.passed and rep33.residual <= 1e-9

    for _ in range(20):
        spec = chains[int(rng.integers(0, len(chains)))]
        mu = rng.dirichlet(np.ones(spec.n))
        t = float(rng.uniform(0.1, 3.0))
        direct, via_dual = mu_ft_norm(mu, spec, t)
        assert abs(direct - via_dual) <= 1e-10

    for spec in chains:
        i = int(rng.integers(0, spec.n))
        s = float(rng.uniform(0.1, 2.0))
        _, direct, closed = h_function(spec, i, s)
        assert closed is not None
        assert abs(direct - closed) <= 1e-10


def test_criterion_7_irreversible_rate_ordering_and_bound():
    rng = np.random.default_rng(707)
    for _ in range(10):
        n = int(rng.integers(3, 13))
        q = rng.uniform(0.05, 1.0, (n, n))
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        f = rng.uniform(1.0, 3.0, n)
        spec = chain_spec(validate(q), weight_function(f))
        g = gap(spec.rate_matrix, spec.stationary)
        tdr = true_decay_rate(spec.rate_matrix, spec.stationary)
        assert tdr >= g - 1e-9, f"n={n}: true rate {tdr} below gap {g}"
        grid = default_time_grid(g)
        for i in range(n):
            c = decay_curve(spec, i, grid)
            assert np.all(c.fnorms <= c.envelope + 1e-9), f"n={n} state {i}"


def test_criterion_8_monte_carlo_agrees_with_matrix_exponential():
    def dense_reversible_4():
        rng = np.random.default_rng(20260831)
        p = rng.uniform(0.2, 1.0, 4)
        p /= p.sum()
        W = rng.uniform(0.2, 1.0, (4, 4))
        W = 0.5 * (W + W.T)
        q = W / p[:, None]
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        return chain_spec(validate(q), weight_function(rng.uniform(1.0, 2.0, 4)))

    def resampling_5():
        rng = np.random.default_rng(20260832)
        p = rng.uniform(0.2, 1.0, 5)
        return build_example21(p / p.sum(), 3.0)

    chains = [
        build_example21([0.5, 0.25, 0.25], 2.0),
        build_example22(),
        build_birth_death(
            [1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2]
        ),
        dense_reversible_4(),
        resampling_5(),
    ]
    total = ok = 0
    for idx, spec in enumerate(chains):
        report = spectral_report(spec)
        rate = report.gap if report.reversible else report.true_decay_rate
        times = np.linspace(0.3 / rate, 3.0 / rate, 10)
        ens = sample_paths(spec, 0, times, 100000, seed=8001 + idx)
        emp = empirical_fnorm(ens, spec.stationary, spec.weight)
        prop = Propagator(spec)
        for k, t in enumerate(times):
            exact = f_norm(prop.deviation(t)[0, :], spec.weight)
            total += 1
            ok += abs(emp.estimates[k] - exact) <= 4.0 * emp.stderrs[k]
    assert total == 50
    assert ok >= 48, f"only {ok}/{total} cells within 4 standard errors"


def test_criterion_9_long_time_limit_rows():
    P = Propagator(build_example22()).matrix(40.0)
    target = np.array([0.5, 0.25, 0.25])
    for i in range(3):
        assert np.max(np.abs(P[i, :] - target)) <= 1e-9
