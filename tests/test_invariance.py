"""Invariances the theory guarantees, on random reversible and
irreversible chains: rescaling time (Q -> cQ) and relabelling states.

Fitted rates are left out: the default time grid is not yet scale
invariant (ROADMAP item 3c), so a fit over it is not either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_detailed_balance, random_irreversible

from ergorate.chain_core import chain_spec, validate, weight_function
from ergorate.semigroup import decay_curve
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
