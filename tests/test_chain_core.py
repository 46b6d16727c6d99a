"""Chain construction, validation, stationary solve, dual, truncation."""

from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import random_detailed_balance, random_irreversible

from ergorate import chain_core
from ergorate.chain_core import (
    STAT_TOL,
    ChainSpec,
    Distribution,
    RateMatrix,
    build_birth_death,
    build_example21,
    build_example22,
    chain_spec,
    distribution,
    dual,
    is_reversible,
    load_chain_file,
    parse_chain_dict,
    reversibilize,
    stationary,
    stationary_residual,
    truncate,
    validate,
    weight_function,
)
from ergorate.errors import (
    EigenFailure,
    ErgorateError,
    InvalidBeta,
    NegativeRate,
    NonConservative,
    Reducible,
    SingularSystem,
    ZeroRate,
)
from ergorate.spectral import chain_analysis

CYCLE_Q = [[-0.5, 0.5, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]


# ----------------------------------------------------------------- validate

def test_validate_symmetric_two_state():
    Q = validate([[-1.0, 1.0], [1.0, -1.0]])
    assert Q.n == 2
    assert Q.max_rate == 1.0


def test_validate_cycle_chain():
    Q = validate(CYCLE_Q)
    assert Q.n == 3
    assert np.allclose(Q.q, CYCLE_Q)


def test_validate_rejects_absorbing_state():
    with pytest.raises(Reducible):
        validate([[-1.0, 1.0], [0.0, 0.0]])


def test_validate_rejects_negative_rate():
    with pytest.raises(NegativeRate, match=r"q\[0,1\]"):
        validate([[1.0, -1.0], [1.0, -1.0]])


def test_validate_rejects_bad_row_sum():
    with pytest.raises(NonConservative, match="row 1"):
        validate([[-1.0, 1.0], [0.5, 0.2]])


def test_validate_repair_recomputes_diagonal():
    Q = validate([[999.0, 1.0], [2.0, -123.0]], repair=True)
    assert Q.q[0, 0] == -1.0
    assert Q.q[1, 1] == -2.0


def test_validate_rejects_nonsquare():
    with pytest.raises(NonConservative):
        validate([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])


def test_validate_rejects_single_state():
    with pytest.raises(Reducible):
        validate([[0.0]])


def test_validate_rejects_nonfinite():
    with pytest.raises(NonConservative):
        validate([[-np.inf, np.inf], [1.0, -1.0]])


def rates_on(adj, rng):
    """Conservative rate matrix with random positive rates on the edges of adj."""
    q = np.where(adj, rng.uniform(0.1, 2.0, adj.shape), 0.0)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def one_way_blocks(sizes, edge):
    """Two directed cycles on consecutive states joined by the one edge given."""
    adj = np.zeros((sum(sizes),) * 2, dtype=bool)
    lo = 0
    for size in sizes:
        block = np.arange(lo, lo + size)
        adj[block, np.roll(block, -1)] = True
        lo += size
    adj[edge] = True
    return adj


@pytest.mark.parametrize(
    "edge, message",
    [
        ((2, 3), "state 3 cannot reach state 0"),
        ((3, 2), "state 3 is not reachable from state 0"),
    ],
)
def test_validate_names_a_state_cut_off_by_a_one_way_edge(edge, message):
    q = rates_on(one_way_blocks((3, 3), edge), np.random.default_rng(0))
    with pytest.raises(Reducible, match=message):
        validate(q)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    shape=st.sampled_from(["empty", "path", "cycle", "two_blocks"]),
    density=st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_validate_reducible_iff_not_strongly_connected(n, shape, density, seed):
    rng = np.random.default_rng(seed)
    if shape == "two_blocks":
        # each block strongly connected, one edge from one into the other,
        # extra edges only inside the blocks
        k = int(rng.integers(1, n))
        edge = (int(rng.integers(0, k)), int(rng.integers(k, n)))
        adj = one_way_blocks((k, n - k), edge if rng.random() < 0.5 else edge[::-1])
        inside = np.zeros((n, n), dtype=bool)
        inside[:k, :k] = inside[k:, k:] = True
        adj |= inside & (rng.random((n, n)) < density)
    else:
        adj = rng.random((n, n)) < density
        states = np.arange(n)
        if shape == "path":
            adj[states[:-1], states[1:]] = True
        elif shape == "cycle":
            adj[states, np.roll(states, -1)] = True
    perm = rng.permutation(n)
    adj = adj[np.ix_(perm, perm)]
    strongly_connected = connected_components(adj, connection="strong")[0] == 1
    q = rates_on(adj, rng)
    if strongly_connected:
        assert validate(q).n == n
    else:
        with pytest.raises(Reducible):
            validate(q)


def test_rate_matrix_is_read_only():
    Q = validate(CYCLE_Q)
    with pytest.raises(ValueError):
        Q.q[0, 0] = 5.0


def test_max_rate_is_computed_once(monkeypatch):
    Q = validate(CYCLE_Q)
    assert Q.max_rate == 1.0
    # later reads come from the instance, not from another scan of q
    monkeypatch.setattr(np, "abs", None)
    assert Q.max_rate == 1.0


# --------------------------------------------------------------- stationary

@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.3, 2.7), (5.0, 0.1)])
def test_stationary_two_state_closed_form(a, b):
    Q = validate([[-a, a], [b, -b]])
    pi = stationary(Q)
    expected = np.array([b, a]) / (a + b)
    assert np.allclose(pi.p, expected, atol=1e-14)


def test_stationary_cycle_chain():
    pi = stationary(validate(CYCLE_Q))
    assert np.max(np.abs(pi.p - [0.5, 0.25, 0.25])) <= 1e-12


def test_stationary_symmetric_circulant_is_uniform():
    n = 6
    q = np.zeros((n, n))
    for i in range(n):
        q[i, (i + 1) % n] = 1.0
        q[i, (i - 1) % n] = 1.0
        q[i, i] = -2.0
    pi = stationary(validate(q))
    assert np.allclose(pi.p, np.full(n, 1.0 / n), atol=1e-14)


def test_stationary_rejects_block_diagonal():
    # bypasses validate on purpose: two disconnected blocks give a
    # two-dimensional null space and the solve must refuse
    q = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    frozen = q.copy()
    frozen.setflags(write=False)
    with pytest.raises(SingularSystem):
        stationary(RateMatrix(n=4, q=frozen))


def test_stationary_residual_scaled(bd6):
    r = float(np.max(np.abs(bd6.pi @ bd6.q)))
    assert r <= STAT_TOL * bd6.rate_matrix.max_rate


# ------------------------------------------------------------ reversibility

def test_is_reversible_verdicts(ex21, ex22, bd6):
    assert is_reversible(ex21.rate_matrix, ex21.stationary)[0]
    assert not is_reversible(ex22.rate_matrix, ex22.stationary)[0]
    assert is_reversible(bd6.rate_matrix, bd6.stationary)[0]


def test_is_reversible_symmetric_uniform():
    q = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    Q = validate(q)
    ok, violation = is_reversible(Q, stationary(Q))
    assert ok
    assert violation <= 1e-15


def test_is_reversible_reports_violation(ex22):
    _, violation = is_reversible(ex22.rate_matrix, ex22.stationary)
    # the cycle chain's edges are one-way: pi_0 q_01 = 1/4 against pi_1 q_10 = 0,
    # a relative defect of 1
    assert violation == 1.0


# ------------------------------------------------------------------- dual

def test_dual_cycle_chain_expected_matrix(ex22):
    expected = [[-0.5, 0.0, 0.5], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
    Qhat = dual(ex22.rate_matrix, ex22.stationary)
    assert np.max(np.abs(Qhat.q - expected)) <= 1e-14


def test_dual_fixes_reversible(bd6):
    Qhat = dual(bd6.rate_matrix, bd6.stationary)
    assert np.max(np.abs(Qhat.q - bd6.q)) <= 1e-12


def test_dual_two_state_is_identity_map():
    Q = validate([[-0.7, 0.7], [1.9, -1.9]])
    pi = stationary(Q)
    assert np.max(np.abs(dual(Q, pi).q - Q.q)) <= 1e-14


def test_dual_involution(ex22):
    pi = ex22.stationary
    Qhh = dual(dual(ex22.rate_matrix, pi), pi)
    rel = np.max(np.abs(Qhh.q - ex22.q)) / ex22.rate_matrix.max_rate
    assert rel <= 1e-12


def test_dual_preserves_stationary(ex22):
    Qhat = dual(ex22.rate_matrix, ex22.stationary)
    assert np.max(np.abs(ex22.pi @ Qhat.q)) <= 1e-13


# ----------------------------------------------------------- reversibilize

def test_reversibilize_cycle_chain_expected_matrix(ex22):
    expected = [[-0.5, 0.25, 0.25], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]]
    Qbar = reversibilize(ex22.rate_matrix, ex22.stationary)
    assert np.max(np.abs(Qbar.q - expected)) <= 1e-14


def test_reversibilize_output_reversible(ex22):
    Qbar = reversibilize(ex22.rate_matrix, ex22.stationary)
    ok, _ = is_reversible(Qbar, ex22.stationary)
    assert ok


def test_reversibilize_fixes_reversible(bd6):
    Qbar = reversibilize(bd6.rate_matrix, bd6.stationary)
    assert np.max(np.abs(Qbar.q - bd6.q)) <= 1e-12


def test_reversibilize_preserves_stationary(ex22):
    Qbar = reversibilize(ex22.rate_matrix, ex22.stationary)
    assert np.max(np.abs(stationary(Qbar).p - ex22.pi)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    density=st.sampled_from([0.0, 0.2, 1.0]),
    spread=st.sampled_from([0.0, 1.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_reversibilize_is_the_mean_of_q_and_its_dual(n, density, spread, seed):
    rng = np.random.default_rng(seed)
    states = np.arange(n)
    adj = rng.random((n, n)) < density
    adj[states, np.roll(states, -1)] = True
    # rates spanning 10^(2 spread), so the diagonals carry roundoff
    Q = validate(rates_on(adj, rng) * 10.0 ** rng.uniform(-spread, spread, (n, n)), repair=True)
    pi = stationary(Q)
    qbar = reversibilize(Q, pi).q
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(qbar[off], (0.5 * (Q.q + dual(Q, pi).q))[off])
    assert np.array_equal(np.diag(qbar), -np.where(off, qbar, 0.0).sum(axis=1))


# ---------------------------------------------------------------- builders

def test_build_example21_two_state_uniform():
    spec = build_example21([0.5, 0.5], 2.0)
    assert np.allclose(spec.q, [[-0.5, 0.5], [0.5, -0.5]])


def test_build_example21_stationary_round_trip():
    spec = build_example21([0.5, 0.25, 0.25], 2.0)
    assert np.max(np.abs(stationary(spec.rate_matrix).p - spec.pi)) <= 1e-14


def test_build_example21_weight_shape():
    spec = build_example21([0.2, 0.3, 0.5], 3.0)
    assert np.allclose(spec.f, [1.0, 3.0, 3.0])


def test_build_example21_rejects_beta(ex21):
    with pytest.raises(InvalidBeta):
        build_example21([0.5, 0.5], 1.0)


def test_build_example21_quadratic_form_is_variance():
    rng = np.random.default_rng(42)
    p = rng.uniform(0.1, 1.0, 8)
    spec = build_example21(p / p.sum(), 2.0)
    pi = spec.pi
    worst = 0.0
    for _ in range(50):
        g = rng.standard_normal(8)
        g = g - np.dot(pi, g)
        norm = np.sqrt(np.dot(pi, g**2))
        if norm > 0:
            g /= norm
        quad = float(-g @ (pi[:, None] * spec.q) @ g)
        var = float(np.dot(pi, g**2) - np.dot(pi, g) ** 2)
        worst = max(worst, abs(quad - var))
    assert worst <= 1e-10


def test_build_example22_fields(ex22):
    assert np.allclose(ex22.q, CYCLE_Q)
    assert np.allclose(ex22.pi, [0.5, 0.25, 0.25])
    assert np.allclose(ex22.f, [1.0, 1.0, 1.0])
    assert ex22.label == "example22"


def test_build_example22_custom_weight():
    spec = build_example22([1.0, 2.0, 1.5])
    assert np.allclose(spec.f, [1.0, 2.0, 1.5])


def test_build_birth_death_two_state():
    spec = build_birth_death([1.0], [1.0])
    assert np.allclose(spec.q, [[-1.0, 1.0], [1.0, -1.0]])


def test_build_birth_death_uniform_stationary():
    spec = build_birth_death([1.0, 1.0], [1.0, 1.0])
    assert np.allclose(spec.pi, [1.0 / 3.0] * 3, atol=1e-14)


def test_build_birth_death_always_reversible():
    rng = np.random.default_rng(3)
    spec = build_birth_death(rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7))
    assert is_reversible(spec.rate_matrix, spec.stationary)[0]


def test_build_birth_death_rejects_zero_rate():
    with pytest.raises(ZeroRate):
        build_birth_death([1.0, 0.0], [1.0, 1.0])


def test_chain_spec_rejects_wrong_stationary():
    Q = validate(CYCLE_Q)
    with pytest.raises(ErgorateError, match="stationary"):
        chain_spec(Q, weight_function([1.0, 1.0, 1.0]), pi=distribution([0.4, 0.3, 0.3]))


def test_weight_function_rejects_below_one():
    with pytest.raises(ErgorateError, match=">= 1"):
        weight_function([1.0, 0.5])


def test_distribution_rejects_mass_defect():
    with pytest.raises(ErgorateError):
        distribution([0.5, 0.4])


def negative_rule(i: int, j: int) -> float:
    return -1.0 if (i, j) == (1, 0) else 1.0


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: distribution([[0.5, 0.5]]), ErgorateError, "distribution must be a vector, got shape (1, 2)"),
        (lambda: distribution([0.5, np.nan]), ErgorateError, "distribution contains non-finite entries"),
        (lambda: distribution([1.5, -0.5]), ErgorateError, "distribution must be strictly positive, p[1] = -0.5"),
        (lambda: weight_function([[1.0, 2.0]]), ErgorateError, "weight must be a vector, got shape (1, 2)"),
        (lambda: weight_function([1.0, np.inf]), ErgorateError, "weight contains non-finite entries"),
        (
            lambda: chain_spec(validate(CYCLE_Q), weight_function([1.0, 1.0])),
            ErgorateError,
            "weight length 2 does not match state count 3",
        ),
        (
            lambda: chain_spec(validate(CYCLE_Q), weight_function([1.0] * 3), pi=distribution([0.5, 0.5])),
            ErgorateError,
            "stationary length 2 does not match state count 3",
        ),
        (lambda: build_birth_death([1.0, 1.0], [1.0]), ErgorateError, "birth and death must be equal-length vectors"),
        (lambda: build_birth_death([], []), ErgorateError, "need at least 2 states"),
        (lambda: truncate(negative_rule, 3), NegativeRate, "negative off-diagonal rate q[1,0] = -1.0"),
        (
            lambda: truncate(lambda i, j: "x", 3),
            ErgorateError,
            "rate matrix Q must be numeric: could not convert string to float: 'x'",
        ),
        (lambda: parse_chain_dict([1, 2]), ErgorateError, "chain spec must be a JSON object"),
        (
            lambda: parse_chain_dict({"family": "example21", "pi": [0.5, 0.5]}),
            ErgorateError,
            "family example21 requires 'pi' and 'beta'",
        ),
    ],
    ids=[
        "distribution-matrix", "distribution-nan", "distribution-negative", "weight-matrix", "weight-inf",
        "chain_spec-weight-length", "chain_spec-pi-length", "birth_death-lengths", "birth_death-one-state",
        "truncate-negative", "truncate-non-numeric", "parse-non-object", "parse-missing-key",
    ],
)
def test_input_checks_name_the_fault(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def birth_death_q(birth, death) -> np.ndarray:
    n = len(birth) + 1
    q = np.zeros((n, n))
    idx = np.arange(n - 1)
    q[idx, idx + 1] = birth
    q[idx + 1, idx] = death
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def lu_law(Q: RateMatrix) -> np.ndarray:
    """The LU solve a chain that is not reversible falls back to: pi Q = 0
    with the last equation replaced by the mass row, then normalized."""
    A = Q.q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(Q.n)
    b[-1] = 1.0
    p = np.linalg.solve(A, b)
    return p / p.sum()


def recursion_law(birth, death) -> np.ndarray:
    """The birth-death law from the log-space recursion log pi_(i+1) =
    log pi_i + log(birth_i / death_i)."""
    lp = np.concatenate([[0.0], np.cumsum(np.log(np.asarray(birth) / np.asarray(death)))])
    p = np.exp(lp - lp.max())
    return p / p.sum()


# the 40-state birth-death chain whose death rates span 1e2: pi spans
# 2e-40, and LU returns a law with non-positive entries
WIDE_BIRTH, WIDE_DEATH = np.ones(39), np.geomspace(1.0, 1e2, 39)


def test_stationary_is_exact_on_a_law_lu_loses():
    p = stationary(validate(birth_death_q(WIDE_BIRTH, WIDE_DEATH))).p
    expected = recursion_law(WIDE_BIRTH, WIDE_DEATH)
    assert expected.min() < 1e-39
    np.testing.assert_allclose(p, expected, rtol=1e-13, atol=0.0)


def test_stationary_rejects_a_non_positive_law():
    # a one-way edge to state 0 makes the chain irreversible.  The tree
    # law, the recursion's, passes the residual, since pi of the edge's
    # source is tiny, but not the per-edge test of is_reversible (the edge's
    # relative defect is 1), so the chain falls back to LU, which fails as
    # it does on the reversible chain
    tree_law = recursion_law(WIDE_BIRTH, WIDE_DEATH)
    for source in (39, 38):
        q = birth_death_q(WIDE_BIRTH, WIDE_DEATH)
        q[source, 0], q[source, source] = 1.0, q[source, source] - 1.0
        Q = validate(q)
        assert is_reversible(Q, Distribution(tree_law)) == (False, 1.0)
        residual, bound = stationary_residual(Q, tree_law, chain_core.Tolerances())
        assert residual <= bound
        with pytest.raises(SingularSystem, match="^stationary solve produced non-positive entries$"):
            stationary(Q)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    spread=st.floats(min_value=0.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stationary_matches_a_40_digit_law_on_permuted_birth_death_chains(n, spread, seed):
    """Rates e^U(-spread, spread), states relabelled at random, against the
    recursion at 40 digits.  The oracle is checked to solve pi Q = 0 with
    Q's diagonal rebuilt in mpmath from the float off-diagonals."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    birth, death = np.exp(rng.uniform(-spread, spread, (2, n - 1)))
    perm = rng.permutation(n)
    q = birth_death_q(birth, death)[np.ix_(perm, perm)]
    with mp.workdps(40):
        law = [mp.mpf(1)]
        for b, d in zip(birth, death):
            law.append(law[-1] * mp.mpf(b) / mp.mpf(d))
        total = mp.fsum(law)
        law = [law[k] / total for k in perm]
        for j in range(n):
            off = [mp.mpf(q[j, k]) for k in range(n) if k != j]
            flux = [law[i] * mp.mpf(q[i, j]) for i in range(n) if i != j]
            out = law[j] * mp.fsum(off)
            assert abs(mp.fsum(flux) - out) <= mp.mpf(1e-35) * out
        expected = np.array([float(x) for x in law])
    assert expected.min() > 1e-290  # the doubles hold it with full precision
    np.testing.assert_allclose(stationary(validate(q)).p, expected, rtol=1e-13, atol=0.0)


def family_and_matrix_outcomes(birth, death, f):
    """(pi, (verdict, violation), gap) of the chain built by
    build_birth_death and of its matrix given to chain_spec.  A
    SingularSystem stands for the whole outcome, and an EigenFailure (a
    gap under the zero-mode tolerance) for the gap, by their messages."""
    outcomes = []
    for build in (
        lambda: build_birth_death(birth, death, f),
        lambda: chain_spec(validate(birth_death_q(birth, death)), weight_function(f)),
    ):
        try:
            spec = build()
        except SingularSystem as exc:
            outcomes.append(str(exc))
            continue
        a = chain_analysis(spec)
        try:
            gap = a.gap
        except EigenFailure as exc:
            gap = str(exc)
        outcomes.append((spec.pi, (a.reversible, a.violation), gap))
    return outcomes


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    tilt=st.floats(min_value=0.0, max_value=0.75),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n=400, tilt=0.75, seed=1)  # pi_min 1.1e-161
def test_a_birth_death_chain_reads_the_same_built_by_family_or_as_a_matrix(n, tilt, seed):
    """Rates e^U(-3, 3), births tilted down by e^-tilt: one law, one
    verdict, one gap, bit for bit, or the same SingularSystem."""
    rng = np.random.default_rng(seed)
    birth, death = np.exp(rng.uniform(-3.0, 3.0, (2, n - 1)))
    birth *= np.exp(-tilt)
    family, matrix = family_and_matrix_outcomes(birth, death, rng.uniform(1.0, 3.0, n))
    if isinstance(family, str) or isinstance(matrix, str):
        assert family == matrix
        return
    assert np.array_equal(family[0], matrix[0])
    assert family[1:] == matrix[1:]


def test_a_birth_death_law_below_the_doubles_is_a_singular_system_both_ways():
    # unit births and deaths 43.7: pi_199 is near 10^-326.5.  The builder's
    # own product once raised a plain ErgorateError for its zero entry
    family, matrix = family_and_matrix_outcomes(np.ones(199), np.full(199, 43.7), np.ones(200))
    assert family == matrix == "the detailed-balance law underflows: smallest log10 pi is -326.5"


def test_a_birth_death_law_whose_product_overflows_builds():
    # births 2, deaths 1: the unnormalized product 2^1024 overflowed the
    # doubles; the tree law subtracts the largest log before its exp
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = build_birth_death(np.full(1024, 2.0), np.ones(1024))
        matrix = chain_spec(validate(birth_death_q(np.full(1024, 2.0), np.ones(1024))), weight_function(np.ones(1025)))
    assert np.array_equal(spec.pi, matrix.pi)
    # pi_k = 2^k / (2^1025 - 1), which rounds to 2^(k - 1025); the smallest
    # entries are subnormal, with fewer digits
    np.testing.assert_allclose(spec.pi, np.ldexp(1.0, np.arange(1025) - 1025), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("ratio, n", [(0.3, 580), (0.9, 1000)])
def test_the_birth_death_law_matches_a_50_digit_m_m_1_law(ratio, n):
    """M/M/1 truncated to n states, pi_k proportional to ratio^k.  The tree
    law's relative error grows like eps |ln pi_min|: 1.5e-13 at ratio 0.3
    (pi_min 1.3e-303) and 1.4e-14 at 0.9."""
    mp = pytest.importorskip("mpmath")
    spec = build_birth_death(np.full(n - 1, ratio), np.ones(n - 1))
    with mp.workdps(50):
        r = mp.mpf(ratio)
        total = (1 - r**n) / (1 - r)
        err = max(abs(mp.mpf(float(p)) / (r**k / total) - 1) for k, p in enumerate(spec.pi))
    assert float(err) <= 5e-13


def test_the_birth_death_law_is_stationarys_not_a_product_of_its_own():
    # the family computes no law: a stationary that returns a marked law
    # hands that very law to the chain
    spec = build_birth_death([1.0, 2.0, 0.5], [1.0, 1.0, 2.0])
    assert spec.stationary._balance[0] is spec.rate_matrix


@pytest.mark.parametrize("n", [3, 10, 50, 200])
def test_stationary_of_a_dense_reversible_chain_agrees_with_lu(n):
    Q = validate(random_detailed_balance(np.random.default_rng(n), n))
    np.testing.assert_allclose(stationary(Q).p, lu_law(Q), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("chain", ["example22", "irreversible-3", "irreversible-12", "irreversible-50", "irreversible-200"])
def test_a_chain_that_is_not_reversible_keeps_the_lu_law_bit_for_bit(chain):
    if chain == "example22":
        Q = validate(CYCLE_Q)
    else:
        n = int(chain.split("-")[1])
        Q = validate(random_irreversible(np.random.default_rng(n), n))
    assert np.array_equal(stationary(Q).p, lu_law(Q))


def test_the_residual_refuses_a_tree_law_a_loose_rev_tol_lets_through():
    # rev_tol >= 1 passes every pair, so only the residual tells the tree
    # law of an irreversible chain from its law
    Q = validate(random_irreversible(np.random.default_rng(5), 5))
    assert np.array_equal(stationary(Q, chain_core.Tolerances(rev_tol=2.0)).p, lu_law(Q))


def test_a_reversible_law_that_underflows_has_no_zero_entry():
    # deaths 1e9 put pi_39 near 1e-351, below the doubles: the tree law has
    # zeros, and LU's positive law is wrong (its smallest entry read 8.4e-35).
    # At rates 1e-12 and 1e-3 the law is the same.  Both chains are reversible,
    # so stationary says so and names how far pi reaches
    for birth, death in ((1.0, 1e9), (1e-12, 1e-3)):
        Q = validate(birth_death_q(np.full(39, birth), np.full(39, death)))
        with pytest.raises(SingularSystem, match=r"^the detailed-balance law underflows: smallest log10 pi is -351\.0$"):
            stationary(Q)


def test_an_irreversible_chain_whose_tree_law_underflows_keeps_lu():
    # the same chain with a one-way edge 39 -> 0: the tree law underflows but
    # the chain is not reversible, so LU's law stands
    q = birth_death_q(np.ones(39), np.full(39, 1e9))
    q[39, 0], q[39, 39] = 1.0, q[39, 39] - 1.0
    Q = validate(q)
    assert np.array_equal(stationary(Q).p, lu_law(Q))


def test_validate_keeps_the_tree_a_rate_matrix_finds_on_first_read(monkeypatch):
    q = birth_death_q([1.0, 2.0, 0.5, 1.5], [1.0, 1.0, 2.0, 0.5])[np.ix_([3, 0, 4, 1, 2], [3, 0, 4, 1, 2])]
    direct = RateMatrix(n=5, q=validate(q).q)
    parent = direct._tree
    Q = validate(q)
    monkeypatch.setattr(chain_core, "_bfs_parents", None)
    # validate's own traversal, not another
    assert np.array_equal(Q._tree, parent)
    assert not parent.flags.writeable
    assert parent[0] == 0 and np.all(q[parent[1:], np.arange(1, 5)] > 0.0)
    # every state reaches the root by at most n - 1 parent steps
    anc = parent.copy()
    for _ in range(4):
        anc = anc[anc]
    assert not anc.any()


# --------------------------------------------------------------- truncation

def geometric_resample_rule(i: int, j: int) -> float:
    """Countable resampling chain with geometric target 2^-(k+1)."""
    return 2.0 ** -(j + 1)


def test_truncate_geometric_window():
    spec = truncate(geometric_resample_rule, 10)
    assert spec.n == 10
    assert spec.label == "truncated"
    assert np.max(np.abs(spec.q.sum(axis=1))) <= 1e-14


def test_truncate_minimal_window():
    spec = truncate(lambda i, j: 1.0, 2)
    assert spec.n == 2
    assert np.array_equal(spec.q, [[-1.0, 1.0], [1.0, -1.0]])


def test_truncate_rejects_tiny_window():
    with pytest.raises(Reducible):
        truncate(geometric_resample_rule, 1)


def test_truncate_rejects_disconnected():
    with pytest.raises(Reducible):
        truncate(lambda i, j: 0.0, 4)


def test_truncate_stationary_is_renormalized_target():
    spec = truncate(geometric_resample_rule, 8)
    target = np.array([2.0 ** -(i + 1) for i in range(8)])
    target /= target.sum()
    assert np.max(np.abs(spec.pi - target)) <= 1e-12


def test_truncate_of_a_birth_death_rule_is_the_birth_death_chain():
    birth = [1.0, 2.0, 0.5, 1.5, 1.0]
    death = [1.0, 1.0, 2.0, 0.5, 1.0]

    def rule(i: int, j: int) -> float:
        return birth[i] if j == i + 1 else death[j] if j == i - 1 else 0.0

    spec = truncate(rule, 6, weight_rule=lambda k: 1.5**k)
    bd = build_birth_death(birth, death, [1.5**k for k in range(6)])
    assert np.array_equal(spec.q, bd.q)
    assert np.array_equal(spec.f, bd.f)
    assert np.array_equal(spec.pi, bd.pi)


# ------------------------------------------------------------------ JSON IO

def test_parse_chain_dict_explicit():
    spec = parse_chain_dict(
        {"label": "pair", "Q": [[-1.0, 1.0], [2.0, -2.0]], "f": [1.0, 1.5]}
    )
    assert spec.label == "pair"
    assert np.allclose(spec.pi, [2.0 / 3.0, 1.0 / 3.0])


def test_parse_chain_dict_supplied_pi_checked():
    with pytest.raises(ErgorateError):
        parse_chain_dict(
            {"label": "x", "Q": [[-1.0, 1.0], [2.0, -2.0]], "f": [1, 1], "pi": [0.5, 0.5]}
        )
    # a pi off mass one names its mass as a plain float
    with pytest.raises(ErgorateError, match=r"^distribution mass 0\.5 deviates from 1 beyond tolerance$"):
        parse_chain_dict(
            {"label": "x", "Q": [[-1.0, 1.0], [2.0, -2.0]], "f": [1, 1], "pi": [0.25, 0.25]}
        )


def test_parse_chain_dict_families():
    s1 = parse_chain_dict({"family": "example21", "pi": [0.5, 0.5], "beta": 2})
    s2 = parse_chain_dict({"family": "example22"})
    s3 = parse_chain_dict({"family": "birth_death", "birth": [1, 1], "death": [1, 1]})
    assert (s1.n, s2.n, s3.n) == (2, 3, 3)


def test_parse_chain_dict_unknown_family():
    with pytest.raises(ErgorateError, match="unknown family"):
        parse_chain_dict({"family": "mystery"})


@pytest.mark.parametrize(
    "obj, unknown, accepted",
    [
        ({"family": "example22", "F": [1, 2, 3]}, "'F'", "'family', 'label', 'f'"),
        (
            {"family": "birth_death", "birth": [1, 1], "death": [1, 1], "weights": [1, 2, 3]},
            "'weights'",
            "'family', 'label', 'birth', 'death', 'f'",
        ),
        (
            {"label": "x", "Q": [[-1.0, 1.0], [1.0, -1.0]], "f": [1, 1], "pie": [0.5, 0.5], "g": 1},
            "'pie', 'g'",
            "'label', 'Q', 'f', 'pi'",
        ),
    ],
    ids=["example22", "birth_death", "matrix"],
)
def test_parse_chain_dict_rejects_unknown_keys(obj, unknown, accepted):
    message = f"unknown key(s) {unknown} in chain spec; accepted: {accepted}"
    with pytest.raises(ErgorateError, match=f"^{re.escape(message)}$"):
        parse_chain_dict(obj)


def test_parse_chain_dict_missing_keys():
    with pytest.raises(ErgorateError):
        parse_chain_dict({"Q": [[-1.0, 1.0], [1.0, -1.0]]})


def test_load_chain_file_round_trip(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"label": "bd", "Q": [[-1.0, 1.0], [1.0, -1.0]], "f": [1, 2]}))
    spec = load_chain_file(str(path))
    assert spec.label == "bd"
    assert np.allclose(spec.f, [1.0, 2.0])


@pytest.mark.parametrize(
    "obj, label",
    [
        ({"Q": [[-1.0, 1.0], [1.0, -1.0]], "f": [1, 1]}, ""),
        ({"family": "example22"}, "example22"),
    ],
)
def test_null_label_counts_as_absent(tmp_path, obj, label):
    # "label": null reads like no label on both file kinds, never as "None"
    path = tmp_path / "chain.json"
    for given in ({}, {"label": None}):
        path.write_text(json.dumps({**obj, **given}))
        assert parse_chain_dict({**obj, **given}).label == label
        assert load_chain_file(str(path)).label == label
    assert parse_chain_dict({**obj, "label": "mine"}).label == "mine"


def test_load_chain_file_rejects_nan(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"label": "bad", "Q": [[NaN, 1.0], [1.0, -1.0]], "f": [1, 1]}')
    with pytest.raises(ErgorateError):
        load_chain_file(str(path))


def test_load_chain_file_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ErgorateError, match="malformed"):
        load_chain_file(str(path))


# ------------------------------------------------------- property checks

@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_birth_death_invariants(n, seed):
    rng = np.random.default_rng(seed)
    birth, death = rng.uniform(0.2, 3.0, (2, n - 1))
    spec = build_birth_death(birth, death)
    assert np.all(spec.pi > 0)
    assert abs(spec.pi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(spec.pi @ spec.q)) <= STAT_TOL * spec.rate_matrix.max_rate
    assert is_reversible(spec.rate_matrix, spec.stationary)[0]
    # the law is stationary's tree law; the log-space recursion is its oracle,
    # whose error grows like eps |ln pi_min| (|ln pi_min| <= 12 ln 15 here)
    np.testing.assert_allclose(spec.pi, recursion_law(birth, death), rtol=1e-13, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_dual_involution_random(seed):
    from conftest import random_irreversible

    rng = np.random.default_rng(seed)
    q = random_irreversible(rng, int(rng.integers(3, 9)))
    Q = validate(q)
    pi = stationary(Q)
    Qhh = dual(dual(Q, pi), pi)
    assert np.max(np.abs(Qhh.q - Q.q)) / Q.max_rate <= 1e-12
