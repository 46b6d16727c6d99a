"""Invariances the theory guarantees, on random reversible and
irreversible chains: rescaling time (Q -> cQ), relabelling states, and
rescaling the weight (f -> cf), under which ||h_s||^2, its reversible
closed form and the L2(nu) rate do not move by a bit and the weighted
norms and constants scale by c.

A fitted rate is checked on a grid scaled with the chain, 60 points up
to 10 over the gap: the default time grid starts at 0.01 whatever the
chain's time scale (ROADMAP item 3), so a fit over it is not invariant.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_detailed_balance, random_irreversible

from ergorate.chain_core import chain_spec, validate, weight_function
from ergorate.htransform import h_function, measured_l2_rate, transform
from ergorate.semigroup import decay_curve, fit_rate
from ergorate.spectral import spectral_report

# largest deviations seen on these chains are about 1e-14
TOL = 1e-10

chains = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31),
        "n": st.integers(min_value=2, max_value=25),
        "reversible": st.booleans(),
    }
)


def build(q, f):
    return chain_spec(validate(q), weight_function(f))


def random_chain(seed: int, n: int, reversible: bool):
    rng = np.random.default_rng(seed)
    q = (random_detailed_balance if reversible else random_irreversible)(rng, n)
    return rng, q, rng.uniform(1.0, 5.0, n)


def grid_for(report) -> np.ndarray:
    return np.geomspace(0.01, 10.0, 25) / report.true_decay_rate


@settings(max_examples=30, deadline=None)
@given(chain=chains, log_c=st.floats(min_value=-3.0, max_value=3.0))
def test_rescaling_time_scales_every_rate(chain, log_c):
    c = 10.0**log_c
    _, q, f = random_chain(**chain)
    spec, scaled = build(q, f), build(c * q, f)
    rep, rep_c = spectral_report(spec), spectral_report(scaled)
    np.testing.assert_allclose(scaled.pi, spec.pi, rtol=TOL, atol=0.0)
    np.testing.assert_allclose(rep_c.constants, rep.constants, rtol=TOL, atol=0.0)
    assert rep_c.gap == pytest.approx(c * rep.gap, rel=TOL)
    assert rep_c.true_decay_rate == pytest.approx(c * rep.true_decay_rate, rel=TOL)
    assert rep_c.reversible == rep.reversible
    grid = grid_for(rep)
    for i in range(spec.n):
        curve, curve_c = decay_curve(spec, i, grid), decay_curve(scaled, i, grid / c)
        np.testing.assert_allclose(curve_c.fnorms, curve.fnorms, rtol=TOL, atol=TOL)
    # a default fit window, [2, 6] / gap, holds 5 points or more of this grid
    grid = np.geomspace(0.01, 10.0, 60) / rep.gap
    for i in range(spec.n):
        fit = fit_rate(decay_curve(spec, i, grid))
        fit_c = fit_rate(decay_curve(scaled, i, grid / c))
        assert fit_c.mode == fit.mode
        assert fit_c.rate == pytest.approx(c * fit.rate, rel=TOL)


@settings(max_examples=30, deadline=None)
@given(chain=chains)
def test_permuting_states_permutes_every_output(chain):
    rng, q, f = random_chain(**chain)
    perm = rng.permutation(chain["n"])  # new state k is old state perm[k]
    spec, permuted = build(q, f), build(q[np.ix_(perm, perm)], f[perm])
    rep, rep_p = spectral_report(spec), spectral_report(permuted)
    np.testing.assert_allclose(permuted.pi, spec.pi[perm], rtol=TOL, atol=0.0)
    np.testing.assert_allclose(rep_p.constants, rep.constants[perm], rtol=TOL, atol=0.0)
    assert rep_p.gap == pytest.approx(rep.gap, rel=TOL)
    assert rep_p.true_decay_rate == pytest.approx(rep.true_decay_rate, rel=TOL)
    assert rep_p.reversible == rep.reversible
    grid = grid_for(rep)
    for k in range(spec.n):
        np.testing.assert_allclose(
            decay_curve(permuted, k, grid).fnorms,
            decay_curve(spec, int(perm[k]), grid).fnorms,
            rtol=TOL,
            atol=TOL,
        )


@settings(max_examples=30, deadline=None)
@given(chain=chains, c=st.sampled_from([2.0**-20, 3.0, 1e200]))
def test_rescaling_the_weight_scales_every_weighted_number(chain, c):
    _, q, f = random_chain(**chain)
    f = f * max(1.0, 1.0 / c)  # both weights >= 1
    spec, scaled = build(q, f), build(q, c * f)
    rep, rep_c = spectral_report(spec), spectral_report(scaled)
    # the f-free numbers are formed without f: bit-identical even where (cf)^2 overflows
    s = 1.0 / rep.true_decay_rate
    for i in range(spec.n):
        assert h_function(scaled, i, s)[1:] == h_function(spec, i, s)[1:]
    assert measured_l2_rate(transform(scaled), s) == measured_l2_rate(transform(spec), s)
    np.testing.assert_allclose(rep_c.constants, c * rep.constants, rtol=1e-14, atol=0.0)
    grid = grid_for(rep)
    for i in range(spec.n):
        np.testing.assert_allclose(
            decay_curve(scaled, i, grid).fnorms, c * decay_curve(spec, i, grid).fnorms, rtol=1e-14, atol=0.0
        )
