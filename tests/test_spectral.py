"""Spectral gap, eigenvalues, decay constants, drift coefficients."""

from __future__ import annotations

import gc
import itertools
import json
import math
import warnings
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lifted_cycle, random_detailed_balance, random_irreversible

from ergorate import chain_core, spectral
from ergorate.chain_core import (
    RateMatrix,
    Tolerances,
    build_birth_death,
    build_example21,
    build_example22,
    chain_spec,
    distribution,
    dual,
    is_reversible,
    reversibilize,
    stationary,
    validate,
    weight_function,
)
from ergorate.errors import EigenFailure, ErgorateError, NoDrift
from ergorate.semigroup import Propagator, mu_ft_norm
from ergorate.spectral import (
    ChainAnalysis,
    DriftReport,
    chain_analysis,
    drift_condition,
    eigenvalues,
    ergodicity_constant,
    gap,
    spectral_report,
    symmetric_eigendecomposition,
    true_decay_rate,
)

SQRT7_OVER_4 = np.sqrt(7.0) / 4.0


# ---------------------------------------------------------------------- gap

@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.4, 1.9), (3.0, 0.2)])
def test_gap_two_state_closed_form(a, b):
    Q = validate([[-a, a], [b, -b]])
    assert gap(Q, stationary(Q)) == pytest.approx(a + b, rel=1e-12)


@pytest.mark.parametrize("n", [3, 10])
def test_gap_resampling_family_is_one(n):
    rng = np.random.default_rng(n)
    p = rng.uniform(0.2, 1.0, n)
    spec = build_example21(p / p.sum(), 2.0)
    assert abs(gap(spec.rate_matrix, spec.stationary) - 1.0) <= 1e-9


def test_gap_of_cycle_chain_via_symmetrization(ex22):
    assert abs(gap(ex22.rate_matrix, ex22.stationary) - 1.0) <= 1e-9


def test_gap_equals_gap_of_dual(ex22):
    pi = ex22.stationary
    g1 = gap(ex22.rate_matrix, pi)
    g2 = gap(dual(ex22.rate_matrix, pi), pi)
    assert abs(g1 - g2) <= 1e-9


def test_symmetric_eigendecomposition_zero_mode(bd6):
    lam, V, d = symmetric_eigendecomposition(bd6.rate_matrix, bd6.stationary)
    assert abs(lam[0]) <= 1e-12
    assert np.all(np.diff(lam) > 0) or np.all(np.diff(lam) >= 0)
    v0 = V[:, 0] * np.sign(V[0, 0])
    assert np.max(np.abs(v0 - d)) <= 1e-10


def test_symmetric_eigendecomposition_rejects_double_zero():
    q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    q.setflags(write=False)
    Q = RateMatrix(n=4, q=q)
    with pytest.raises(EigenFailure):
        symmetric_eigendecomposition(Q, distribution([0.25] * 4))


def test_gap_variational_lower_bound(bd6):
    """The gap is the best constant in gap * Var(g) <= Dirichlet(g)."""
    pi = bd6.pi
    Q = bd6.q
    g_val = gap(bd6.rate_matrix, bd6.stationary)
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.standard_normal(bd6.n)
        var = float(np.dot(pi, g**2) - np.dot(pi, g) ** 2)
        dirichlet = float(-g @ (pi[:, None] * Q) @ g)
        assert dirichlet >= g_val * var - 1e-10


def test_gap_variational_bound_attained(bd6):
    lam, V, d = symmetric_eigendecomposition(bd6.rate_matrix, bd6.stationary)
    g = V[:, 1] / d
    pi = bd6.pi
    var = float(np.dot(pi, g**2) - np.dot(pi, g) ** 2)
    dirichlet = float(-g @ (pi[:, None] * bd6.q) @ g)
    assert dirichlet == pytest.approx(lam[1] * var, rel=1e-10)


# --------------------------------------------------------------- eigenvalues

def test_eigenvalues_cycle_chain(ex22):
    lam = eigenvalues(ex22.rate_matrix, ex22.stationary)
    expected = [0.0, complex(-1.25, -SQRT7_OVER_4), complex(-1.25, SQRT7_OVER_4)]
    assert len(lam) == 3
    for z, w in zip(lam, expected):
        assert abs(z - w) <= 1e-9


def test_eigenvalues_sorted_descending_real_then_imag(ex22):
    lam = eigenvalues(ex22.rate_matrix, ex22.stationary)
    reals = [z.real for z in lam]
    assert reals == sorted(reals, reverse=True)
    assert lam[1].imag < lam[2].imag


def test_eigenvalues_two_state():
    Q = validate([[-1.0, 1.0], [1.0, -1.0]])
    lam = eigenvalues(Q, stationary(Q))
    assert abs(lam[0]) <= 1e-12
    assert abs(lam[1] - (-2.0)) <= 1e-12


def test_eigenvalues_reversible_are_real(bd6):
    lam = eigenvalues(bd6.rate_matrix, bd6.stationary)
    assert max(abs(z.imag) for z in lam) <= 1e-9


def test_reversible_spectrum_is_an_exact_zero_then_the_decaying_rates(bd6):
    lam, _, _ = symmetric_eigendecomposition(bd6.rate_matrix, bd6.stationary, vectors=False)
    ev = spectral_report(bd6).eigenvalues
    # the eigvalsh's own lam[0] is rounding noise; the report's zero is exact
    assert ev[0] == 0j and np.copysign(1.0, ev[0].real) == 1.0
    assert np.array_equal(np.array(ev[1:]), (-lam[1:]).astype(complex))
    # the expansion holds only the n - 1 decaying modes: one orthonormal
    # factor W, orthogonal to d = sqrt(pi)
    rates, W, d = chain_analysis(bd6).expansion
    assert rates.shape == (bd6.n - 1,) and W.shape == (bd6.n, bd6.n - 1)
    assert np.array_equal(d, np.sqrt(bd6.pi))
    assert np.max(np.abs(W.T @ W - np.eye(bd6.n - 1))) <= 1e-14
    assert np.max(np.abs(d @ W)) <= 1e-15


def test_eigenvalues_nonzero_have_negative_real_part(ex22, bd6):
    for spec in (ex22, bd6):
        lam = eigenvalues(spec.rate_matrix, spec.stationary)
        assert all(z.real < 0 for z in lam[1:])


def test_eigenvalues_reject_double_zero():
    q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    q.setflags(write=False)
    # reversible: the eigh of the symmetrized generator finds the double zero
    with pytest.raises(EigenFailure, match="zero eigenvalue is not simple"):
        eigenvalues(RateMatrix(n=4, q=q), distribution([0.25] * 4))
    # two disjoint one-way 3-cycles, irreversible: the eigvals of Q finds it
    cycle = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    q = np.zeros((6, 6))
    q[:3, :3], q[3:, 3:] = cycle, cycle
    q.setflags(write=False)
    Q, pi = RateMatrix(n=6, q=q), distribution([1.0 / 6.0] * 6)
    assert not is_reversible(Q, pi)[0]
    with pytest.raises(EigenFailure, match="expected one zero eigenvalue, found 2"):
        eigenvalues(Q, pi)


# ----------------------------------------------------------- true decay rate

def test_true_decay_rate_cycle_chain(ex22):
    assert true_decay_rate(ex22.rate_matrix, ex22.stationary) == pytest.approx(1.25, abs=1e-9)


def test_true_decay_rate_equals_gap_when_reversible(bd6):
    tdr = true_decay_rate(bd6.rate_matrix, bd6.stationary)
    g = gap(bd6.rate_matrix, bd6.stationary)
    # both are lam[1] of the same eigh
    assert tdr == g


def test_true_decay_rate_two_state():
    Q = validate([[-1.0, 1.0], [1.0, -1.0]])
    assert true_decay_rate(Q, stationary(Q)) == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_true_decay_rate_at_least_gap(seed):
    rng = np.random.default_rng(seed)
    q = random_irreversible(rng, int(rng.integers(3, 10)))
    Q = validate(q)
    pi = stationary(Q)
    assert true_decay_rate(Q, pi) >= gap(Q, pi) - 1e-9


# ------------------------------------------------------------------ constants

def test_ergodicity_constant_resampling_closed_form():
    rng = np.random.default_rng(11)
    p = rng.uniform(0.1, 1.0, 6)
    p /= p.sum()
    beta = 2.5
    spec = build_example21(p, beta)
    expected = np.sqrt(p[0] + beta**2 * (1.0 - p[0])) * np.sqrt(1.0 / p - 1.0)
    C = ergodicity_constant(spec.stationary, spec.weight)
    assert np.max(np.abs(C - expected)) <= 1e-12


def test_ergodicity_constant_cycle_weights():
    pi = distribution([0.5, 0.25, 0.25])
    f = weight_function([1.0, 2.0, 2.0])
    C = ergodicity_constant(pi, f)
    # pi(f^2) = 1/2 + 1 + 1 = 5/2 and 1/pi_0 - 1 = 1
    assert C[0] == pytest.approx(np.sqrt(2.5), abs=1e-14)
    assert C[1] == pytest.approx(np.sqrt(2.5) * np.sqrt(3.0), abs=1e-13)


def test_ergodicity_constant_unit_weight_uniform():
    n = 4
    C = ergodicity_constant(distribution([1.0 / n] * n), weight_function([1.0] * n))
    assert np.allclose(C, np.sqrt(n - 1.0))


def test_ergodicity_constant_survives_a_weight_whose_square_overflows():
    spec = build_example21([0.5, 0.5], 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = ergodicity_constant(spec.stationary, spec.weight)
    # pi(f^2) = (1 + 1e400) / 2 and 1/pi_i - 1 = 1
    assert np.allclose(C, np.sqrt(0.5) * 1e200, rtol=1e-15, atol=0.0)


# -------------------------------------------------------------------- report

def test_spectral_report_reversible(ex21):
    rep = spectral_report(ex21)
    assert rep.reversible
    assert rep.rate_epsilon_max == rep.gap
    assert abs(rep.gap - 1.0) <= 1e-9
    assert abs(rep.true_decay_rate - rep.gap) <= 1e-9
    assert len(rep.eigenvalues) == ex21.n
    assert rep.constants.shape == (ex21.n,)


def test_spectral_report_irreversible(ex22):
    rep = spectral_report(ex22)
    assert not rep.reversible
    assert abs(rep.gap - 1.0) <= 1e-9
    assert rep.true_decay_rate == pytest.approx(1.25, abs=1e-9)
    assert rep.true_decay_rate >= rep.rate_epsilon_max


def test_spectral_report_to_dict_serializable(ex22):
    d = spectral_report(ex22).to_dict()
    blob = json.loads(json.dumps(d))
    assert blob["reversible"] is False
    assert len(blob["eigenvalues"]) == 3
    assert all(len(pair) == 2 for pair in blob["eigenvalues"])


def test_spectral_report_matches_per_generator_functions(ex21, ex22, bd6):
    q = random_irreversible(np.random.default_rng(40), 40)
    irr40 = chain_spec(validate(q), weight_function(np.ones(40)))
    assert not chain_analysis(irr40).reversible
    for spec in (ex21, ex22, bd6, irr40):
        Q, pi = spec.rate_matrix, spec.stationary
        rep = spectral_report(spec)
        # one code path per number: equal, not merely close, on either verdict
        assert (rep.reversible, chain_analysis(spec).violation) == is_reversible(Q, pi)
        assert rep.gap == gap(Q, pi)
        assert rep.eigenvalues == eigenvalues(Q, pi)
        assert rep.true_decay_rate == true_decay_rate(Q, pi)
        if rep.reversible:
            # the spectrum is read from the eigh: its slowest mode is the gap
            assert rep.true_decay_rate == rep.gap


@pytest.mark.parametrize("reader", [gap, eigenvalues, true_decay_rate], ids=lambda f: f.__name__)
@pytest.mark.parametrize("chain", ["bd6", "ex22"])
def test_public_readers_run_one_decomposition(request, decomposition_counts, reader, chain):
    spec = request.getfixturevalue(chain)
    reader(spec.rate_matrix, spec.stationary)
    if chain == "bd6":
        # reversible: every number is read from one values-only eigvalsh
        expected = {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}
    elif reader is gap:
        expected = {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}
    else:
        expected = {"eigh": 0, "eigvalsh": 0, "eigvals": 1, "eig": 0, "expm": 0}
    assert decomposition_counts == expected


def test_chain_analysis_is_freed_with_its_spec():
    # the memo must not form a reference cycle: freed without the collector
    spec = build_example22()
    spectral_report(spec)
    ref = weakref.ref(chain_analysis(spec))
    gc.disable()
    try:
        del spec
        assert ref() is None
    finally:
        gc.enable()


VERDICT_READERS = {
    "report": lambda spec: spectral_report(spec).reversible,
    "propagator": lambda spec: Propagator(spec).method == "spectral",
    "is_reversible": lambda spec: is_reversible(spec.rate_matrix, spec.stationary, spec.tol)[0],
}


@pytest.mark.parametrize("order", list(itertools.permutations(VERDICT_READERS)))
def test_reversibility_verdict_follows_the_spec_tolerance(order):
    # one process, two example22 specs: each memo judges at its own rev_tol,
    # whichever reader fills it first
    strict = build_example22()
    loose = build_example22(tol=Tolerances(rev_tol=2.0))  # violation 0.25 now inside
    assert loose.tol.rev_tol == 2.0 and strict.tol == Tolerances()
    for name in order:
        assert VERDICT_READERS[name](strict) is False
        assert VERDICT_READERS[name](loose) is True


@pytest.mark.parametrize("reversible", [True, False])
def test_a_report_runs_the_detailed_balance_test_once(monkeypatch, decomposition_counts, reversible):
    # counted at both bindings ergorate calls it through
    calls = []

    def counted(*args, _orig=chain_core.is_reversible):
        calls.append(args)
        return _orig(*args)

    for module in (chain_core, spectral):
        monkeypatch.setattr(module, "is_reversible", counted)
    q = (random_detailed_balance if reversible else random_irreversible)(np.random.default_rng(30), 30)
    spec = chain_spec(validate(q), weight_function(np.ones(30)))
    # a reversible chain's law ran it inside stationary; an irreversible
    # chain leaves at the stationary residual, before the test
    assert len(calls) == (1 if reversible else 0)
    rep = spectral_report(spec)
    assert rep.reversible is reversible
    assert chain_analysis(spec).violation <= (1e-12 if reversible else 1.0)
    assert len(calls) == 1
    # the dual's analysis takes its chain's verdict and symmetrized rates
    mu_ft_norm(np.full(30, 1.0 / 30), spec, 0.5)
    assert len(calls) == 1
    assert decomposition_counts["eigvalsh"] == 1


def test_a_law_made_for_one_generator_is_tested_again_with_another():
    # the birth-death law stationary made keeps the test it passed; paired
    # with the same chain plus a one-way edge 38 -> 0, whose residual it
    # still passes, it is tested again, and the edge fails it
    q = build_birth_death(np.ones(39), np.geomspace(1.0, 1e2, 39)).q.copy()
    law = stationary(validate(q))
    q[38, 0], q[38, 38] = 1.0, q[38, 38] - 1.0
    a = chain_analysis(chain_spec(validate(q), weight_function(np.ones(40)), pi=law))
    assert (a.reversible, a.violation) == (False, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=60),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_report_rate_is_gap_for_random_reversible(seed, n, log_scale):
    rng = np.random.default_rng(seed)
    q = random_detailed_balance(rng, n) * 10.0**log_scale
    spec = chain_spec(validate(q), weight_function(np.ones(n)))
    rep = spectral_report(spec)
    assert rep.reversible
    assert abs(rep.rate_epsilon_max - rep.gap) == 0.0
    # the spectrum is read from the eigh: the memoized tuple, real, sorted
    # descending, and its slowest mode is the gap itself
    lam = chain_analysis(spec).spectrum
    assert lam is rep.eigenvalues
    z = np.array(lam)
    assert np.all(z.imag == 0.0)
    assert np.all(np.diff(z.real) <= 0.0)
    ref = np.sort_complex(np.linalg.eigvals(q))[::-1]
    assert np.max(np.abs(z - ref)) <= 1e-12 * spec.rate_matrix.max_rate
    assert rep.true_decay_rate == rep.gap


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=60),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_values_only_gap_matches_the_eigensystem_for_random_irreversible(seed, n, log_scale):
    rng = np.random.default_rng(seed)
    q = random_irreversible(rng, n) * 10.0**log_scale
    spec = chain_spec(validate(q), weight_function(np.ones(n)))
    # every two-state chain is reversible; larger random ones are not
    assert chain_analysis(spec).reversible is (n == 2)
    rep = spectral_report(spec)
    pi = spec.stationary
    lam, _, _ = symmetric_eigendecomposition(reversibilize(spec.rate_matrix, pi), pi)
    assert abs(rep.gap - lam[1]) <= 1e-13 * spec.rate_matrix.max_rate
    assert rep.gap == gap(spec.rate_matrix, pi) == rep.rate_epsilon_max


def test_near_reducible_irreversible_chain_fails_on_the_values_only_path(decomposition_counts):
    # two irreversible 3-cycles joined by rates of about 1e-14: the
    # symmetrized zero eigenvalue is not simple at EIG_TOL
    cycle = np.array([[0.0, 1.0, 0.5], [0.5, 0.0, 1.0], [1.0, 0.5, 0.0]])
    q = np.zeros((6, 6))
    q[:3, :3], q[3:, 3:] = cycle, 2.0 * cycle
    q[2, 3], q[5, 0] = 1e-14, 2e-14
    np.fill_diagonal(q, -q.sum(axis=1))
    spec = chain_spec(validate(q), weight_function(np.ones(6)))
    assert not chain_analysis(spec).reversible
    with pytest.raises(EigenFailure, match="not simple"):
        spectral_report(spec)
    # raised by the gap's eigvalsh, before any eigh or eigvals
    assert decomposition_counts == {"eigh": 0, "eigvalsh": 1, "eigvals": 0, "eig": 0, "expm": 0}


# --------------------------------------------- the Arnoldi's true rate

KRYLOV = spectral._KRYLOV_MIN_STATES


def fresh_analysis(q):
    Q = validate(q)
    return ChainAnalysis(Q, stationary(Q), Tolerances())


def spectrum_rate(a):
    """Minus the largest real part of the nonzero spectrum: eigvals' rate."""
    tol = spectral._zero_tol(a.rate_matrix)
    return -max(z.real for z in a.spectrum if abs(z) > tol)


def check_arnoldi_rate(q):
    """The route's rate is eigvals' within 1e-12 relative, or it fell back
    to eigvals; it is never below the gap, and a second analysis of the
    same chain takes the same route to the same bits."""
    a = fresh_analysis(q)
    route = a.decay_route
    assert not a.reversible
    if q.shape[0] < KRYLOV:
        assert (route.route, route.matvecs) == ("eigvals", 0)
    ref = spectrum_rate(a)
    if route.route == "krylov":
        assert abs(route.rate - ref) <= 1e-12 * ref
        assert route.residual <= 10.0 * spectral._KRYLOV_TOL * route.rate / a._uniformized[0]
    else:
        assert route.route == "eigvals" and route.rate == ref
    assert route.rate >= a.gap
    np.testing.assert_equal(astuple(fresh_analysis(q).decay_route), astuple(route))
    return route


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=KRYLOV, max_value=200),
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
)
def test_arnoldi_rate_matches_eigvals_on_random_irreversible(seed, n, log_scale):
    check_arnoldi_rate(random_irreversible(np.random.default_rng(seed), n) * 10.0**log_scale)


@settings(max_examples=15, deadline=None)
@given(N=st.integers(min_value=32, max_value=64), log_flip=st.floats(min_value=-0.3, max_value=0.3))
def test_arnoldi_rate_matches_eigvals_on_lifted_cycles(N, log_flip):
    # 64-128 states; from N = 40 on the Arnoldi's
    check_arnoldi_rate(lifted_cycle(N, 10.0**log_flip / N))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=KRYLOV, max_value=200))
def test_arnoldi_rate_matches_eigvals_on_benchmark_style_chains(seed, n):
    # rates uniform(0.05, 1) / n, as perfbench's dense-irreversible workload
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.05, 1.0, (n, n)) / n
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    check_arnoldi_rate(q)


def test_an_arnoldi_with_no_residual_test_fails_on_the_lifted_cycle(monkeypatch):
    # the mutant: one unrestarted basis of 40, its rightmost Ritz value taken
    # with no residual test.  On the lifted 64-cycle it is 69% off; the
    # route with its test agrees with eigvals or falls back.
    q = lifted_cycle(64)
    check_arnoldi_rate(q)
    monkeypatch.setattr(spectral, "_KRYLOV_TOL", math.inf)
    a = fresh_analysis(q)
    mutant = a.decay_route
    assert (mutant.route, mutant.matvecs) == ("krylov", spectral._KRYLOV_BASIS)
    assert abs(mutant.rate - spectrum_rate(a)) > 0.5 * spectrum_rate(a)


def test_a_rate_the_residual_cannot_certify_falls_back_to_eigvals(decomposition_counts):
    # flips at 1e-5: rho / Lam is 2e-5, so the residual test asks for 2e-18,
    # below the rounding of any product; the budget runs out, and the
    # analysis keeps what the Arnoldi spent
    a = fresh_analysis(lifted_cycle(50, 1e-5))
    route = a.decay_route
    assert route.route == "eigvals" and route.rate == spectrum_rate(a)
    assert route.matvecs >= a.rate_matrix.n
    assert spectral._KRYLOV_TOL * route.rate / a._uniformized[0] < route.residual < 1e-14
    assert decomposition_counts["eigvals"] == 1


def test_an_arnoldi_that_breaks_down_falls_back_to_eigvals():
    # a 3-cycle run alongside a 30-state resampling chain (Kronecker sum, 90
    # states): only five distinct decaying modes, so the sixth product
    # leaves the Krylov space nothing new, and the route takes eigvals
    cycle = np.array([[-1.5, 1.0, 0.5], [0.5, -1.5, 1.0], [1.0, 0.5, -1.5]])
    p = np.random.default_rng(1).uniform(0.5, 1.5, 30)
    resample = np.tile(p / p.sum(), (30, 1))
    np.fill_diagonal(resample, 0.0)
    np.fill_diagonal(resample, -resample.sum(axis=1))
    a = fresh_analysis(np.kron(cycle, np.eye(30)) + np.kron(np.eye(3), resample))
    route = a.decay_route
    assert (route.route, route.matvecs) == ("eigvals", 5) and math.isnan(route.residual)
    assert route.rate == spectrum_rate(a) == pytest.approx(1.0, rel=1e-12)


def test_the_true_rate_takes_one_route_whatever_was_read_first():
    q = random_irreversible(np.random.default_rng(7), 120) / 120
    first, second = fresh_analysis(q), fresh_analysis(q)
    first.spectrum
    assert first.decay_route.route == "krylov"
    assert first.true_decay_rate == second.true_decay_rate
    np.testing.assert_equal(astuple(first.decay_route), astuple(second.decay_route))
    # where no route but eigvals runs, the rate is the spectrum's
    small = fresh_analysis(random_irreversible(np.random.default_rng(7), KRYLOV - 1))
    assert small.decay_route.route == "eigvals" and small.true_decay_rate == spectrum_rate(small)
    assert fresh_analysis(random_detailed_balance(np.random.default_rng(7), 120)).decay_route.route == "eigvalsh"


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_the_arnoldi_rate_scales_with_the_generator(c):
    q = random_irreversible(np.random.default_rng(11), 150) / 150
    route, scaled = fresh_analysis(q).decay_route, fresh_analysis(c * q).decay_route
    assert route.route == scaled.route == "krylov"
    assert scaled.rate == pytest.approx(c * route.rate, rel=1e-12)


# --------------------------------------------------------------------- drift

def test_drift_resampling_closed_form():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.1, 1.0, 7)
    p /= p.sum()
    beta = 2.0
    spec = build_example21(p, beta)
    rep = drift_condition(spec, small_set=(0,))
    c_expected = p[0] * (1.0 - 1.0 / beta)
    b_expected = beta * (1.0 - p[0]) + (p[0] + c_expected - 1.0)
    assert rep.c_max == pytest.approx(c_expected, abs=1e-12)
    assert rep.b_min == pytest.approx(b_expected, abs=1e-12)
    assert rep.small_set == (0,)


def test_drift_coefficient_below_one():
    spec = build_example21([0.5, 0.25, 0.25], 2.0)
    rep = drift_condition(spec)
    assert 0.0 < rep.c_max < 1.0


def test_drift_inequality_holds_pointwise():
    from ergorate.chain_core import build_birth_death

    spec = build_birth_death([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1, 2, 3, 4])
    rep = drift_condition(spec, small_set=(0,))
    assert rep.c_max == pytest.approx(1.0 / 3.0, abs=1e-12)
    Qf = spec.q @ spec.f
    bound = -rep.c_max * spec.f
    bound[0] += rep.b_min
    assert np.all(Qf <= bound + 1e-12)


def test_drift_constant_weight_carries_no_information(ex22):
    # a constant weight makes min(-Qf/f) = -0.0, which once printed as -0.000e+00
    with pytest.raises(NoDrift, match=r"^best drift coefficient 0\.000e\+00 is not positive$"):
        drift_condition(ex22)


def test_drift_small_set_out_of_range(ex21):
    with pytest.raises(ErgorateError, match="out of range"):
        drift_condition(ex21, small_set=(0, 9))


def test_drift_small_set_covering_everything(ex21):
    with pytest.raises(ErgorateError, match="every state"):
        drift_condition(ex21, small_set=(0, 1, 2))


def test_drift_report_type(ex21):
    assert isinstance(drift_condition(ex21), DriftReport)
