"""Trajectory sampling: reproducibility, statistics, cross-checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ergorate import montecarlo
from ergorate.chain_core import chain_spec, validate, weight_function
from ergorate.errors import ErgorateError, Overflow
from ergorate.montecarlo import (
    _CHUNK,
    _jump_table,
    _next_states,
    _simulate_chunk,
    _uniforms,
    empirical_fnorm,
    empirical_law,
    empirical_to_csv,
    sample_paths,
)
from ergorate.semigroup import Propagator, f_norm


def two_state():
    return chain_spec(validate([[-1.0, 1.0], [1.0, -1.0]]), weight_function([1.0, 1.0]))


def philox_words(seed, p, j):
    """The four words of step pair j of path p, as numpy's own Philox
    draws them: key (seed mod 2^64, 0), counter (p, j, 0, 0)."""
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    return np.random.Philox(key=key, counter=np.array([p, j, 0, 0], dtype=np.uint64)).random_raw(4)


def reference_path(spec, start, times, seed, p):
    """Path p one step at a time from numpy's own Philox.

    Step pair j reads the words of ``philox_words(seed, p, j)``: hold and
    jump of step 2j, then hold and jump of step 2j+1.  A hold is drawn
    by inversion, a jump picks target min(#{cdf <= u}, deg - 1) over the
    increasing targets.  Returns the occupancy and the counted (state,
    hold) pairs.
    """
    words = itertools.chain.from_iterable(
        philox_words(seed, p, j) for j in itertools.count()
    )
    exit_rate = -np.diag(spec.q)
    horizon = times[-1]
    occ = np.empty(times.size, dtype=np.int32)
    counted = []
    state, clock, g = start, 0.0, 0
    while not counted or clock <= horizon:
        u_hold, u_jump = (np.array([next(words), next(words)]) >> 11) * 2.0**-53
        hold = -np.log1p(-u_hold) / exit_rate[state]
        if not counted or clock < horizon:
            counted.append((state, hold))
        row = spec.q[state].copy()
        row[state] = 0.0
        targets = np.nonzero(row > 0.0)[0]
        cdf = np.cumsum(row[targets]) / exit_rate[state]
        nxt = targets[min(np.searchsorted(cdf, u_jump, side="right"), targets.size - 1)]
        while g < times.size and times[g] < clock + hold:
            occ[g] = state
            g += 1
        state, clock = nxt, clock + hold
    return occ, counted


# ---------------------------------------------------------- reproducibility

def test_same_seed_bit_identical(ex22):
    times = np.array([0.0, 0.5, 1.5])
    a = sample_paths(ex22, 0, times, 500, seed=11)
    b = sample_paths(ex22, 0, times, 500, seed=11)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.holding_time_sum, b.holding_time_sum)
    assert np.array_equal(a.holding_count, b.holding_count)


def test_different_seed_differs(ex22):
    times = np.array([0.5, 1.5])
    a = sample_paths(ex22, 0, times, 500, seed=11)
    b = sample_paths(ex22, 0, times, 500, seed=12)
    assert not np.array_equal(a.occupancy, b.occupancy)


def test_path_streams_are_per_path(ex22):
    # growing the ensemble leaves earlier paths untouched
    times = np.array([0.4, 1.0])
    small = sample_paths(ex22, 0, times, 50, seed=3)
    big = sample_paths(ex22, 0, times, 100, seed=3)
    assert np.array_equal(big.occupancy[:50], small.occupancy)


def test_chunk_boundary_keeps_prefix(ex22):
    # a run spanning two chunks agrees with a one-chunk run on its prefix
    times = np.array([0.3, 0.9])
    short = sample_paths(ex22, 0, times, _CHUNK - 5, seed=7)
    long = sample_paths(ex22, 0, times, _CHUNK + 37, seed=7)
    assert np.array_equal(long.occupancy[: _CHUNK - 5], short.occupancy)


def test_chunking_changes_only_the_last_bits_of_hold_sums(monkeypatch, bd6):
    # paths do not depend on the chunk size; holding-time sums are added
    # chunk by chunk, so only their rounding does
    times = np.linspace(0.2, 3.0, 8)
    runs = []
    for chunk in (1 << 8, 1 << 14):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        runs.append(sample_paths(bd6, 0, times, 5000, seed=11))
    small, large = runs
    assert np.array_equal(small.occupancy, large.occupancy)
    assert np.array_equal(small.holding_count, large.holding_count)
    assert np.allclose(small.holding_time_sum, large.holding_time_sum, rtol=1e-14, atol=0.0)


# ----------------------------------------------------------- stream oracle

@pytest.mark.parametrize("seed", [0, 8001, 2**63, 2**63 + 12345, 2**64 - 1, -7])
def test_uniforms_match_numpy_philox(seed):
    # step pair j of path p reads the four words of Philox(key=(seed mod
    # 2^64, 0), counter=(p, j, 0, 0)): hold and jump of step 2j, then of
    # step 2j+1, mapped as Generator.random maps them.  Path sets: a
    # non-contiguous live subset inside one chunk, and a run from 2^40.
    steps = 48
    for paths in (np.array([0, 1, 5, 40, 4000]), 2**40 + np.arange(6)):
        hold, jump = _uniforms(seed, paths, 0, steps)
        later_hold, later_jump = _uniforms(seed, paths, 32, 16)
        assert hold.shape == jump.shape == (steps, paths.size)
        for r, p in enumerate(paths):
            raw = np.concatenate([philox_words(seed, p, j) for j in range(steps // 2)])
            u = (raw >> 11) * 2.0**-53
            assert np.array_equal(hold[:, r], u[0::2])
            assert np.array_equal(jump[:, r], u[1::2])
            assert np.array_equal(later_hold[:, r], u[64::2])
            assert np.array_equal(later_jump[:, r], u[65::2])
        if seed >= 0:
            key = np.array([seed, 0], dtype=np.uint64)
            counter = np.array([paths[2], 3, 0, 0], dtype=np.uint64)
            ref = np.random.Generator(np.random.Philox(key=key, counter=counter))
            assert np.array_equal(ref.random(4), [hold[6, 2], jump[6, 2], hold[7, 2], jump[7, 2]])


class RecordingGenerator:
    """Stands in for the sampler's generator; logs the first counter
    word, the step pair and the path count of every draw."""

    def __init__(self, generator, bit_generator, log):
        self.bit_generator = bit_generator
        self._gen = generator(bit_generator)
        self._log = log

    def random(self, out):
        counter = self.bit_generator.state["state"]["counter"]
        self._log.append((int(counter[0]), int(counter[1]), out.shape[0]))
        return self._gen.random(out=out)


def test_late_blocks_draw_only_the_live_span(monkeypatch):
    # each block draws step pairs for the paths from the first live one
    # to the last, not from the chunk's first path
    spec = chain_spec(
        validate([[-0.3, 0.3, 0.0], [0.01, -30.01, 30.0], [0.0, 30.0, -30.0]]),
        weight_function([1.0, 1.0, 1.0]),
    )
    times = np.array([0.0, 1.0, 2.5, 4.0])
    lo, hi = 1000, 1060
    pairs = montecarlo._BLOCK // 2

    def draws(a, b):
        log = []
        generator = np.random.Generator
        with monkeypatch.context() as m:
            m.setattr(np.random, "Generator", lambda bitgen: RecordingGenerator(generator, bitgen, log))
            _simulate_chunk(spec, 0, times, 5, a, b)
        return log

    blocks = np.array([len(draws(p, p + 1)) // pairs for p in range(lo, hi)])
    log = draws(lo, hi)
    assert len(log) == pairs * blocks.max()
    assert 1 < blocks.max() and np.sum(blocks == 1) > 5  # paths end in different blocks
    for i, (c0, j, span) in enumerate(log):
        live = lo + np.nonzero(blocks > i // pairs)[0]
        assert (c0, j, span) == (live[0], i, live[-1] - live[0] + 1)


def test_ensemble_matches_step_by_step_reference(ex22, bd6):
    rng = np.random.default_rng(12)
    q = rng.uniform(0.2, 2.0, (6, 6))
    q[rng.uniform(size=(6, 6)) < 0.4] = 0.0  # out-degrees from 1 to 5
    q[np.arange(6), (np.arange(6) + 1) % 6] = 1.0  # keep it irreducible
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    sparse = chain_spec(validate(q), weight_function(np.ones(6)))
    times = np.array([0.0, 0.7, 0.7, 3.0, 9.5])
    for spec, seed in ((ex22, 2**63 + 9), (bd6, 21), (sparse, -4)):
        ens = sample_paths(spec, 1, times, 40, seed)
        hold_sum = np.zeros(spec.n)
        hold_count = np.zeros(spec.n, dtype=np.int64)
        for p in range(40):
            occ, counted = reference_path(spec, 1, times, seed, p)
            assert np.array_equal(ens.occupancy[p], occ)
            for state, hold in counted:
                hold_sum[state] += hold
                hold_count[state] += 1
        assert np.array_equal(ens.holding_count, hold_count)
        assert np.allclose(ens.holding_time_sum, hold_sum, rtol=1e-12, atol=0.0)


def test_next_states_follow_the_cdf_rule(ex22, bd6):
    # state 0's jump probabilities sum to 1 - 2^-52: a uniform above that
    # must still pick the last target
    nudged = np.array([[0, 0.1, 0.2, 0.3], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.0]])
    np.fill_diagonal(nudged, -nudged.sum(axis=1))
    nudged[0, 0] = np.nextafter(nudged[0, 0], -1.0)
    dense = np.random.default_rng(5).uniform(0.1, 1.0, (12, 12))
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, -dense.sum(axis=1))
    specs = [ex22, bd6] + [
        chain_spec(validate(q), weight_function(np.ones(len(q)))) for q in (nudged, dense)
    ]
    for spec in specs:
        _, cdf, target, width = _jump_table(spec)
        for s in range(spec.n):
            row = spec.q[s].copy()
            row[s] = 0.0
            targets = np.nonzero(row > 0.0)[0]
            steps = np.cumsum(row[targets]) / -spec.q[s, s]
            u = np.concatenate(
                [[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53], steps, np.nextafter(steps, 0.0)]
            )
            u = u[u < 1.0]
            expect = targets[np.minimum(np.searchsorted(steps, u, side="right"), targets.size - 1)]
            got = _next_states(cdf, target, width, np.full(u.size, s), u)
            assert np.array_equal(got, expect)


def test_horizon_zero_counts_first_hold(ex22):
    ens = sample_paths(ex22, 2, np.array([0.0]), 50, seed=8)
    assert np.all(ens.occupancy == 2)
    assert ens.holding_count.tolist() == [0, 0, 50]


def test_path_alone_matches_path_among_long_lived_paths():
    # state 0 is slow and states 1, 2 swap fast: paths that leave state 0
    # early make many jumps (many blocks) before the horizon, others one
    spec = chain_spec(
        validate([[-0.3, 0.3, 0.0], [0.01, -30.01, 30.0], [0.0, 30.0, -30.0]]),
        weight_function([1.0, 1.0, 1.0]),
    )
    times = np.array([0.0, 1.0, 2.5, 4.0])
    m = 60
    occ, hold_sum, hold_count = _simulate_chunk(spec, 0, times, 5, 0, m)
    assert np.any(np.all(occ == 0, axis=1))  # a path that never left state 0
    assert hold_count.sum() > 20 * m  # while others ran through many blocks
    alone_sum = np.zeros(3)
    alone_count = np.zeros(3, dtype=np.int64)
    for p in range(m):
        occ_p, sum_p, count_p = _simulate_chunk(spec, 0, times, 5, p, p + 1)
        assert np.array_equal(occ_p[0], occ[p])
        alone_sum += sum_p
        alone_count += count_p
    assert np.array_equal(alone_count, hold_count)
    assert np.allclose(alone_sum, hold_sum, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------------ basics

def test_time_zero_stays_at_start(ex22):
    ens = sample_paths(ex22, 2, np.array([0.0, 0.8]), 300, seed=5)
    assert np.all(ens.occupancy[:, 0] == 2)


def test_ensemble_shapes(bd6):
    times = np.array([0.2, 0.7, 1.9])
    ens = sample_paths(bd6, 1, times, 123, seed=9)
    assert ens.occupancy.shape == (123, 3)
    assert ens.occupancy.dtype == np.int32
    assert ens.holding_time_sum.shape == (bd6.n,)
    assert ens.holding_count[1] >= 123  # every path's first hold is at the start


def test_empirical_law_is_distribution(ex22):
    ens = sample_paths(ex22, 0, np.array([0.6]), 400, seed=2)
    law = empirical_law(ens, 0)
    assert law.shape == (3,)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(law >= 0.0)


def test_input_validation(ex22):
    with pytest.raises(ErgorateError):
        sample_paths(ex22, 0, np.array([1.0, 0.5]), 10, seed=0)
    with pytest.raises(ErgorateError):
        sample_paths(ex22, 0, np.array([-0.5, 1.0]), 10, seed=0)
    with pytest.raises(ErgorateError):
        sample_paths(ex22, 9, np.array([0.5]), 10, seed=0)
    with pytest.raises(ErgorateError):
        sample_paths(ex22, 0, np.array([0.5]), 0, seed=0)


@pytest.mark.parametrize("i", [1.5, 2.9, 1.0, np.float64(0.0), "1"])
def test_a_start_state_that_is_not_an_integer_is_an_input_error(ex22, i):
    # 1.5 once simulated from state 1 and 2.9 from state 2, each recorded as such
    with pytest.raises(ErgorateError, match=r"^state .* is not an integer$"):
        sample_paths(ex22, i, np.array([0.0, 1.0]), 10, seed=0)


def test_a_numpy_integer_start_state_is_a_state(ex22):
    times = np.array([0.0, 1.0])
    ens = sample_paths(ex22, np.int64(2), times, 50, seed=4)
    assert ens.start == 2 and type(ens.start) is int
    assert np.array_equal(ens.occupancy, sample_paths(ex22, 2, times, 50, seed=4).occupancy)


@pytest.mark.parametrize("times", [[0.0, np.nan], [np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_non_finite_times_are_an_input_error(ex22, times):
    # NaN once passed every comparison and left np.empty occupancy in its
    # column; an infinite horizon never returned
    with pytest.raises(ErgorateError, match="^times must be a nonempty vector of finite times$"):
        sample_paths(ex22, 0, times, 5, 1)


def test_horizon_beyond_the_draw_bound_is_overflow(monkeypatch, ex22):
    # n_paths x (_BLOCK + horizon x the largest exit rate) estimates the
    # jump draws; a finite but huge horizon once ran without end
    with pytest.raises(Overflow, match="jump draws expected"):
        sample_paths(ex22, 0, np.array([0.0, 1e300]), 10, 1)
    # a tiny horizon still draws one block per path: two billion paths
    # once estimated 2 draws and ran for about half an hour
    with pytest.raises(Overflow, match=r"^about 1\.600e\+10 jump draws expected, more than 1e\+09$"):
        sample_paths(ex22, 0, np.array([0.0, 1e-9]), 2_000_000_000, 1)
    top = ex22.rate_matrix.max_rate
    monkeypatch.setattr(montecarlo, "_MAX_DRAWS", 1000.0)
    assert sample_paths(ex22, 0, np.array([0.0, 91.0 / top]), 10, 1).n_paths == 10
    with pytest.raises(Overflow, match=r"^about 1\.010e\+03 jump draws expected, more than 1e\+03$"):
        sample_paths(ex22, 0, np.array([0.0, 93.0 / top]), 10, 1)


# -------------------------------------------------------------- statistics

def test_two_state_law_matches_closed_form():
    spec = two_state()
    t = 0.35
    m = 40000
    ens = sample_paths(spec, 0, np.array([t]), m, seed=101)
    p_true = 0.5 + 0.5 * np.exp(-2.0 * t)
    phat = empirical_law(ens, 0)[0]
    sigma = np.sqrt(p_true * (1.0 - p_true) / m)
    assert abs(phat - p_true) <= 4.0 * sigma


def test_law_matches_matrix_exponential(ex22):
    m = 5000
    times = np.array([0.3, 0.8, 1.5, 2.5, 4.0])
    ens = sample_paths(ex22, 0, times, m, seed=77)
    prop = Propagator(ex22)
    z_ok = 0
    total = 0
    for k, t in enumerate(times):
        law = empirical_law(ens, k)
        P = prop.matrix(t)[0, :]
        for j in range(3):
            sigma = np.sqrt(max(P[j] * (1.0 - P[j]) / m, 1e-12))
            total += 1
            if abs(law[j] - P[j]) <= 4.0 * sigma:
                z_ok += 1
    assert z_ok >= total - 1


def test_holding_times_match_exit_rates(bd6):
    ens = sample_paths(bd6, 0, np.array([30.0]), 3000, seed=17)
    exit_rate = -np.diag(bd6.q)
    for s in range(bd6.n):
        count = ens.holding_count[s]
        assert count > 50
        mean = ens.holding_time_sum[s] / count
        target = 1.0 / exit_rate[s]
        # exponential holds: sd equals the mean
        assert abs(mean - target) <= 4.0 * target / np.sqrt(count)


# ---------------------------------------------------------- decay estimate

def test_empirical_fnorm_time_zero_exact(ex21):
    ens = sample_paths(ex21, 0, np.array([0.0, 1.0]), 200, seed=4)
    emp = empirical_fnorm(ens, ex21.stationary, ex21.weight)
    start_dist = f_norm(np.eye(3)[0] - ex21.pi, ex21.weight)
    assert emp.estimates[0] == pytest.approx(start_dist, abs=1e-12)
    assert emp.stderrs[0] == 0.0


def test_empirical_fnorm_late_time_near_zero(ex21):
    m = 20000
    ens = sample_paths(ex21, 0, np.array([25.0]), m, seed=23)
    emp = empirical_fnorm(ens, ex21.stationary, ex21.weight)
    # the folded estimator's bias is below sum_j f_j sd(phat_j)
    bias_cap = float(
        np.dot(ex21.f, np.sqrt(ex21.pi * (1.0 - ex21.pi) / m))
    )
    assert emp.estimates[0] <= 4.0 * bias_cap


def test_empirical_fnorm_tracks_deterministic_curve(bd6):
    m = 8000
    times = np.array([0.5, 2.0, 5.0])
    ens = sample_paths(bd6, 0, times, m, seed=31)
    emp = empirical_fnorm(ens, bd6.stationary, bd6.weight)
    prop = Propagator(bd6)
    for k, t in enumerate(times):
        exact = f_norm(prop.deviation(t)[0, :], bd6.weight)
        assert abs(emp.estimates[k] - exact) <= 4.0 * max(emp.stderrs[k], 1e-3)


def looped_fnorm(ensemble, pi, f):
    """Reference: the estimate and its standard error one time at a time."""
    m = ensemble.n_paths
    est, se = [], []
    for k in range(ensemble.times.size):
        phat = empirical_law(ensemble, k)
        diff = phat - pi.p
        est.append(float(np.dot(f.f, np.abs(diff))))
        a = f.f * np.sign(diff)
        var = (np.dot(phat, a**2) - np.dot(phat, a) ** 2) / m
        se.append(float(np.sqrt(max(var, 0.0))))
    return np.array(est), np.array(se)


def test_empirical_fnorm_matches_the_per_time_loop(ex21, bd6):
    rng = np.random.default_rng(4)
    heavy = weight_function(rng.uniform(1.0, 50.0, bd6.n))
    for spec, f in ((ex21, ex21.weight), (bd6, bd6.weight), (bd6, heavy)):
        times = np.array([0.0, 0.1, 0.1, 0.7, 2.0, 6.0, 30.0])
        ens = sample_paths(spec, 0, times, 3000, seed=9)
        emp = empirical_fnorm(ens, spec.stationary, f)
        est, se = looped_fnorm(ens, spec.stationary, f)
        tol = 1e-15 * f.f.sum()
        assert np.max(np.abs(emp.estimates - est)) <= tol
        assert np.max(np.abs(emp.stderrs - se)) <= tol


@pytest.mark.parametrize("c", [3.0, 1e200])
def test_empirical_fnorm_scales_with_the_weight(bd6, c):
    """f -> c f scales the estimates and their standard errors by c; the
    errors are formed in units of max f, so c = 1e200, whose f^2
    overflows, gives finite errors (nan before)."""
    times = np.array([0.0, 0.3, 1.0, 4.0])
    ens = sample_paths(bd6, 0, times, 2000, seed=11)
    emp = empirical_fnorm(ens, bd6.stationary, bd6.weight)
    scaled = empirical_fnorm(ens, bd6.stationary, weight_function(c * bd6.f))
    assert np.all(np.isfinite(scaled.stderrs)) and np.all(emp.stderrs[1:] > 0.0)
    np.testing.assert_allclose(scaled.estimates, c * emp.estimates, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(scaled.stderrs, c * emp.stderrs, rtol=1e-14, atol=0.0)


def test_empirical_csv_is_the_f_string_of_each_row():
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e300, np.inf, -np.inf, np.nan])
    rng = np.random.default_rng(3)
    cols = [rng.permutation(values) for _ in range(3)]
    emp = montecarlo.EmpiricalDecay(*cols)
    rows = "".join(f"{t:.17g},{e:.17g},{s:.17g}\n" for t, e, s in zip(*cols))
    assert empirical_to_csv(emp) == "t,fnorm_est,stderr\n" + rows


def test_empirical_csv_format(ex21):
    ens = sample_paths(ex21, 0, np.array([0.0, 0.5]), 50, seed=1)
    emp = empirical_fnorm(ens, ex21.stationary, ex21.weight)
    text = empirical_to_csv(emp)
    lines = text.strip().split("\n")
    assert lines[0] == "t,fnorm_est,stderr"
    assert len(lines) == 3
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.allclose(data[:, 0], emp.times)
    assert np.allclose(data[:, 1], emp.estimates, rtol=1e-16)
