"""Stochastic oracle for the deterministic pipeline.

Samples exact chain trajectories (exponential holding times, jump
probabilities proportional to off-diagonal rates) and estimates the
transition law and the weighted-norm decay empirically.

Every random number is a pure function of (seed, path p, step k).  The
stream is numpy's Philox4x64-10 (Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) under the one key
(seed mod 2^64, 0); the path and the step pair are its counter.  Step
pair j (steps 2j and 2j+1) of path p reads the four words of
``Philox(key=(seed, 0), counter=(p, j, 0, 0)).random_raw(4)``: hold and
jump of step 2j, then hold and jump of step 2j+1.  For a run of paths
those counters are consecutive: a block builds one Philox at the counter
of its first live path, one draw gives a step pair for every path up to
the last, and ``advance`` moves the counter on to the next pair.

Simulation is vectorized across paths.  Paths advance in blocks of 8
steps: a block of uniforms is drawn for the live paths, holds come
from inversion (``-log1p(-u) / q_s``) and the next state from a binary
search in a padded n x max_degree CDF table and one gather.  After each
block only the paths whose last jump is still within the horizon go
on, from where they stopped; no path is ever simulated twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain_core import ChainSpec, Distribution, WeightFunction, state_index
from .errors import ErgorateError, Overflow

# Paths simulated at once.  Bounds the working memory and the span a
# block draws uniforms for (every path from the first live one to the
# last).  Counters carry the absolute path index, so the chunk size
# changes no path.
_CHUNK = 1 << 12
_BLOCK = 8  # steps drawn per live path per round; even, so whole step pairs
# Bound on a run's expected jump draws, minutes of work: 200x the 5e6 of
# acceptance criterion 8 (100,000 paths), 1,000x the benchmark's ops.
_MAX_DRAWS = 1e9


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sampled trajectories reduced to states at the requested times.

    ``occupancy[p, k]`` is the state of path p at times[k].  Holding
    statistics (sum and count of drawn holding times per state, over
    holds that started before the horizon) support the
    generator-consistency check: mean hold at state s estimates
    1/(-q_ss).
    """

    chain: ChainSpec
    start: int
    times: NDArray[np.float64]
    n_paths: int
    seed: int
    occupancy: NDArray[np.int32]
    holding_time_sum: NDArray[np.float64]
    holding_count: NDArray[np.int64]


@dataclass(frozen=True)
class EmpiricalDecay:
    """Empirical weighted-norm distance estimates with standard errors."""

    times: NDArray[np.float64]
    estimates: NDArray[np.float64]
    stderrs: NDArray[np.float64]


def _uniforms(
    seed: int, paths: NDArray[np.int64], k0: int, steps: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Hold and jump uniforms of steps k0 .. k0+steps-1, shape (steps, paths).

    Step pair j of path p reads the words of ``Philox(key=(seed, 0),
    counter=(p, j, 0, 0)).random_raw(4)`` (see the module docstring),
    each word w mapped to ``(w >> 11) * 2^-53`` by ``Generator.random``.
    For the paths lo .. hi those counters are one run, so one draw per
    step pair serves every path in between; advancing by 2^64 - span
    then carries the counter from (hi + 1, j) to (lo, j + 1).  ``paths``
    must increase; k0 and steps must be even.
    """
    lo = int(paths[0])
    span = int(paths[-1]) - lo + 1
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2**64, 0], dtype=np.uint64),
        counter=np.array([lo, k0 // 2, 0, 0], dtype=np.uint64),
    ))
    # (step pairs, paths in [lo, hi], step in pair, hold/jump)
    raw = np.empty((steps // 2, span, 2, 2))
    for j in range(steps // 2):
        gen.random(out=raw[j])
        gen.bit_generator.advance((1 << 64) - span)
    if span != len(paths):
        raw = raw[:, paths - lo]
    u = raw.transpose(3, 0, 2, 1).reshape(2, steps, len(paths))
    return u[0], u[1]


def _jump_table(
    spec: ChainSpec,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.intp], int]:
    """Exit rates and the padded jump table, flattened row by row.

    Row s (``width`` entries, a power of two above every out-degree)
    holds the cumulative jump probabilities of state s over its targets
    in increasing order, padded with +inf, and the targets, padded with
    the last one.  For u in [0, 1), ``target[s * width + #{cdf_s <= u}]``
    is then target number ``min(#{cdf_s <= u}, deg_s - 1)``.
    """
    exit_rate = -np.diag(spec.q).copy()
    off = spec.q.copy()
    np.fill_diagonal(off, 0.0)
    edge = off > 0.0
    degree = edge.sum(axis=1)
    top = int(degree.max())
    width = 1 << top.bit_length()
    # stable sort puts each row's targets first, in increasing order
    order = np.argsort(~edge, axis=1, kind="stable")[:, :top]
    real = np.arange(top) < degree[:, None]
    last = np.take_along_axis(order, degree[:, None] - 1, axis=1)
    cdf = np.full((spec.n, width), np.inf)
    cdf[:, :top] = np.where(
        real, np.cumsum(np.take_along_axis(off, order, axis=1), axis=1) / exit_rate[:, None], np.inf
    )
    target = np.repeat(last, width, axis=1)
    target[:, :top] = np.where(real, order, last)
    return exit_rate, cdf.ravel(), target.ravel(), width


def _next_states(
    cdf: NDArray[np.float64], target: NDArray[np.intp], width: int,
    s: NDArray[np.intp], u: NDArray[np.float64],
) -> NDArray[np.intp]:
    """Jump targets of states s for jump uniforms u, from the flattened
    table of ``_jump_table``: a branchless binary search finds
    ``row = s * width + #{cdf_s <= u}``, then one gather."""
    row = s * width
    step = width >> 1
    while step:
        row += step * (cdf[row + (step - 1)] <= u)
        step >>= 1
    return target[row]


def _simulate_chunk(
    spec: ChainSpec,
    start: int,
    times: NDArray[np.float64],
    seed: int,
    lo: int,
    hi: int,
) -> tuple[NDArray[np.int32], NDArray[np.float64], NDArray[np.int64]]:
    """Simulate paths [lo, hi); returns (occupancy, hold_sum, hold_count).

    Occupancy at t is the state after every jump at a time <= t.  The
    holding statistics count each path's first hold and every later
    hold that starts before the horizon.
    """
    n = spec.n
    g = times.size
    horizon = float(times[-1])
    exit_rate, cdf, target, width = _jump_table(spec)

    occ = np.empty((hi - lo) * g, dtype=np.int32)
    hold_sum = np.zeros(n)
    hold_count = np.zeros(n, dtype=np.int64)
    live = np.arange(hi - lo)  # rows of occ still running
    state = np.full(live.size, start, dtype=np.intp)
    clock = np.zeros(live.size)  # time of each live path's last jump
    k0 = 0
    while live.size:
        m = live.size
        # step-major (steps, m): each step reads contiguous rows
        u_hold, u_jump = _uniforms(seed, lo + live, k0, _BLOCK)
        states = np.empty((_BLOCK + 1, m), dtype=np.intp)
        states[0] = state
        for k in range(_BLOCK):
            states[k + 1] = _next_states(cdf, target, width, states[k], u_jump[k])
        holds = -np.log1p(-u_hold) / exit_rate[states[:_BLOCK]]
        # stamps[k] is the time state k was entered; the cumulative sum
        # runs along each path, so jump times do not depend on the block size
        stamps = np.empty((_BLOCK + 1, m))
        stamps[0] = clock
        stamps[1:] = holds
        np.cumsum(stamps, axis=0, out=stamps)

        # state k holds on the grid points in [stamps[k], stamps[k + 1]),
        # so a path's new grid points run from first[0] to first[-1]:
        # write them all at once, path after path
        first = np.searchsorted(times, stamps, side="left")
        new = first[-1] - first[0]
        run_start = live * g + first[0] - (np.cumsum(new) - new)
        occ[np.repeat(run_start, new) + np.arange(new.sum())] = np.repeat(
            states[:_BLOCK].T.ravel(), np.diff(first, axis=0).T.ravel()
        )

        counted = stamps[:_BLOCK] < horizon
        if k0 == 0:
            counted[0] = True
        visited = states[:_BLOCK][counted]
        hold_sum += np.bincount(visited, weights=holds[counted], minlength=n)
        hold_count += np.bincount(visited, minlength=n)

        going = stamps[-1] <= horizon
        live = live[going]
        state = states[_BLOCK, going]
        clock = stamps[-1, going]
        k0 += _BLOCK
    return occ.reshape(hi - lo, g), hold_sum, hold_count


def sample_paths(
    spec: ChainSpec,
    i: int,
    times: NDArray[np.float64],
    n_paths: int,
    seed: int,
) -> TrajectoryEnsemble:
    """Draw an ensemble of exact trajectories started at state i.

    Identical (spec, i, times, n_paths, seed) give a bit-identical
    ensemble, and path p is the same in every ensemble of more than p
    paths: its stream depends on (seed, p) alone.  Occupancy and holding
    counts therefore do not depend on how paths are split into chunks;
    ``holding_time_sum`` is added up block by block and chunk by chunk,
    so its last bits (about 1e-14 relative) do.  ``Overflow`` is raised
    when n_paths x (_BLOCK + horizon x the largest exit rate), about the
    number of jump draws, exceeds ``_MAX_DRAWS``: every path draws at
    least one block, however short the horizon.  ``i`` must be an
    integer (a numpy integer included) in [0, n): a float is refused,
    not truncated.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ErgorateError("times must be a nonempty vector of finite times")
    if np.any(np.diff(times) < 0.0) or times[0] < 0.0:
        raise ErgorateError("times must be a nondecreasing nonnegative grid")
    i = state_index(i, spec.n)
    if n_paths < 1:
        raise ErgorateError(f"need at least one path, got {n_paths}")
    draws = n_paths * (_BLOCK + float(times[-1]) * spec.rate_matrix.max_rate)
    if draws > _MAX_DRAWS:
        raise Overflow(f"about {draws:.3e} jump draws expected, more than {_MAX_DRAWS:.0e}")

    occupancy, hold_sums, hold_counts = zip(*(
        _simulate_chunk(spec, i, times, seed, lo, min(lo + _CHUNK, n_paths))
        for lo in range(0, n_paths, _CHUNK)
    ))
    return TrajectoryEnsemble(
        chain=spec,
        start=i,
        times=times,
        n_paths=int(n_paths),
        seed=int(seed),
        occupancy=np.concatenate(occupancy),
        holding_time_sum=sum(hold_sums),
        holding_count=sum(hold_counts),
    )


def empirical_law(ensemble: TrajectoryEnsemble, k: int) -> NDArray[np.float64]:
    """Empirical occupation law at times[k]."""
    counts = np.bincount(ensemble.occupancy[:, k], minlength=ensemble.chain.n)
    return counts / ensemble.n_paths


def empirical_fnorm(
    ensemble: TrajectoryEnsemble, pi: Distribution, f: WeightFunction
) -> EmpiricalDecay:
    """Weighted-norm distance of the empirical law to pi per time point,
    with a plug-in multinomial (delta-method) standard error.

    The standard error is formed in units of max f, so squaring the
    weight cannot overflow: it stays finite for any weight.  Crude near
    kinks of the absolute value but sufficient for few-sigma
    cross-checks against the deterministic pipeline.
    """
    m = ensemble.n_paths
    times = ensemble.times
    n = ensemble.chain.n
    # one bincount over (time, state) pairs: row k is the law at times[k]
    cells = ensemble.occupancy + n * np.arange(times.size)
    phat = np.bincount(cells.ravel(), minlength=times.size * n).reshape(times.size, n) / m
    diff = phat - pi.p
    est = np.abs(diff) @ f.f
    fmax = float(np.max(f.f))
    a = (f.f / fmax) * np.sign(diff)
    var = np.sum(phat * a**2, axis=1) - np.sum(phat * a, axis=1) ** 2
    se = fmax * np.sqrt(np.maximum(var, 0.0) / m)
    return EmpiricalDecay(times=times, estimates=est, stderrs=se)


def empirical_to_csv(emp: EmpiricalDecay) -> str:
    """CSV with header t,fnorm_est,stderr at full double precision."""
    row = "{:.17g},{:.17g},{:.17g}\n".format
    return "t,fnorm_est,stderr\n" + "".join(
        map(row, emp.times.tolist(), emp.estimates.tolist(), emp.stderrs.tolist())
    )
