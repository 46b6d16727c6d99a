"""Tests of the benchmark itself: seeded inputs, checks and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.linalg

import ergorate
import reference as R
import tracer as tracing
import workloads as W


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    a = W.build(name, 7, str(tmp_path / "a")).digest
    b = W.build(name, 7, str(tmp_path / "b")).digest
    c = W.build(name, 8, str(tmp_path / "c")).digest
    assert a == b
    assert a != c


def small_dense(reversible: bool, n: int = 6, seed: int = 3):
    rng = np.random.default_rng(seed)
    q = (W.random_detailed_balance if reversible else W.random_irreversible)(rng, n) / n
    f = W.random_weights(rng, n)
    return q, f, R.chain_reference(q, f, 1, reversible)


@pytest.mark.parametrize("reversible", [True, False])
def test_checker_accepts_correct_and_flags_perturbed_dense_outputs(reversible):
    q, f, ref = small_dense(reversible)
    spec, rep, curve, fit = W.dense_op(q, f, 1)
    W.check_dense(ref, (spec, rep, curve, fit))
    with pytest.raises(R.CheckFailed, match="gap"):
        R.check_spectral(ref, rep.gap * (1 + 1e-6), rep.true_decay_rate, rep.reversible)
    bent = curve.fnorms.copy()
    bent[30] *= 1 + 1e-4
    with pytest.raises(R.CheckFailed, match="curve"):
        R.check_curve(ref, curve.times, bent)
    with pytest.raises(R.CheckFailed, match="fit"):
        R.check_fit(ref, fit.mode, fit.rate * 1.01)


def test_checker_flags_perturbed_monte_carlo_estimates():
    spec = ergorate.build_birth_death([1.0, 2.0, 0.5], [1.0, 1.0, 2.0], [1, 2, 1, 3])
    q, f = W.birth_death_q([1.0, 2.0, 0.5], [1.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0, 3.0])
    times = np.linspace(0.2, 2.0, 10)
    ref = R.sampler_reference(q, f, R.stationary(q), 0, times)
    ens, emp = W.sampler_op(spec, times, 4000, 11)
    W.check_sampler(ref, 4000, (ens, emp))
    est = emp.estimates.copy()
    est[4] += 0.02
    with pytest.raises(R.CheckFailed, match="MC estimate"):
        R.check_ensemble(ref, ens.occupancy, ens.holding_time_sum, ens.holding_count, est)
    est[4] += 1.0
    with pytest.raises(R.CheckFailed, match="MC f-norm"):
        R.check_fnorm_estimates(ref, est, 4000)
    with pytest.raises(R.CheckFailed, match="holding times"):
        R.check_ensemble(ref, ens.occupancy, ens.holding_time_sum * 1.2, ens.holding_count, emp.estimates)


def bindings() -> dict:
    """Every attribute the tracer may touch, by owner and name."""
    owners = [m for k, m in sys.modules.items() if k == "ergorate" or k.startswith("ergorate.")]
    snap = {(id(m), k): v for m in owners for k, v in vars(m).items()}
    for cls in (ergorate.Propagator,):
        snap.update({(id(cls), k): v for k, v in vars(cls).items()})
    for owner, attr in [*tracing.KERNELS.values(), (np.random, "Philox")]:
        snap[(id(owner), attr)] = getattr(owner, attr)
    return snap


def test_tracer_restores_every_binding():
    before = bindings()
    tr = tracing.Tracer()
    tr.install()
    try:
        during = bindings()
        changed = {k for k in before if before[k] is not during.get(k)}
        assert len(changed) > len(tracing.function_names())
        assert scipy.linalg.expm is not before[(id(scipy.linalg), "expm")]
    finally:
        tr.uninstall()
    after = bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


@pytest.mark.parametrize("reversible, eigh, eigvals, expm", [(True, 3, 2, 0), (False, 2, 2, 60)])
def test_traced_kernel_counts_per_dense_op(reversible, eigh, eigvals, expm):
    q, f, ref = small_dense(reversible)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_op("0.0")
        out = W.dense_op(q, f, 1)
        tr.end_op()
    finally:
        tr.uninstall()
    W.check_dense(ref, out)
    m = tr.per_layer(1)
    assert out[2].times.size == 60
    assert m["kernel.eigh.calls"][0] == eigh
    assert m["kernel.eigvals.calls"][0] == eigvals
    assert m["kernel.expm.calls"][0] == expm
    assert m["kernel.solve.calls"][0] == 1
    assert m["kernel.dense_n3"][0] == (eigh + eigvals + expm + 1) * 6**3


def test_end_to_end_counts_a_failed_op_as_infinitely_slow():
    import math

    from run import Run

    run = Run(workload=None)
    run.latencies = [("a", 0.003), ("b", 0.001), ("a", math.inf), ("c", 0.002)]
    run.ok_time = 0.006
    m = run.end_to_end(0.5)
    assert m["op_p50_ms"] == pytest.approx(2.0)
    assert math.isinf(m["op_p90_ms"])
    assert m["ops_per_s"] == pytest.approx(3 / 0.006)


def test_host_scaling_uses_the_geometric_mean_of_the_kernels():
    from run import CAL_REF_S, HostSpeed, host_scaled

    host = HostSpeed.__new__(HostSpeed)
    host.times = {"a": [2 * CAL_REF_S, 3 * CAL_REF_S], "b": [8 * CAL_REF_S, 8 * CAL_REF_S, 9 * CAL_REF_S]}
    assert host.factor() == pytest.approx((2.5 * 8.0) ** 0.5)
    raw = {"setup_s": 0.6, "op_p50_ms": 10.0, "op_p90_ms": 30.0, "ops_per_s": 5.0, "peak_rss_mb": 80.0}
    out = host_scaled(raw, 2.0)
    assert out == pytest.approx({"setup_s": 0.3, "op_p50_ms": 5.0, "op_p90_ms": 15.0, "ops_per_s": 10.0,
                                 "peak_rss_mb": 80.0})
