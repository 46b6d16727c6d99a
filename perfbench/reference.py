"""Reference values computed without ergorate, and the output checks.

Everything here uses numpy/scipy directly on the generated matrices, so a
defect in ergorate cannot hide in its own reference.  Reference work runs
at set-up, outside every timed op and every traced span; the checks run
after each op, also untimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

# Per-test false-alarm probability of the Monte-Carlo checks.  A run makes
# a few thousand such tests, so a correct sampler fails a run with
# probability below 1e-6 on any seed.
MC_DELTA = 1e-10
GRID_POINTS = 60
GRID_START = 0.01


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


@dataclass(frozen=True)
class ChainRef:
    """Reference numbers for one chain, one start state and its curve."""

    q: np.ndarray
    f: np.ndarray
    pi: np.ndarray
    state: int
    reversible: bool
    gap: float
    tdr: float
    constants: np.ndarray
    grid: np.ndarray | None = None
    curve: np.ndarray | None = None
    fit_mode: str | None = None
    fit_rate: float | None = None

    @property
    def rate(self) -> float:
        """The rate guess the default time grid is built from."""
        return self.gap if self.reversible else self.tdr

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.q)))


def stationary(q: np.ndarray) -> np.ndarray:
    """Null vector of Q^T, normalized to mass one."""
    v = scipy.linalg.null_space(q.T)[:, 0]
    return v / v.sum()


def birth_death_stationary(birth, death) -> np.ndarray:
    """Detailed-balance recursion pi_{i+1} = pi_i b_i / d_i, accurate
    entrywise however widely pi spans."""
    log_p = np.concatenate([[0.0], np.cumsum(np.log(birth) - np.log(death))])
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def _symmetrized(q: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.sqrt(pi)
    S = d[:, None] * (-q) / d[None, :]
    return 0.5 * (S + S.T), d


def deviation_rows(q: np.ndarray, pi: np.ndarray, state: int, times: np.ndarray) -> np.ndarray:
    """Rows exp(tQ)[state] - pi for each t, from scipy.linalg.expm."""
    return np.array([scipy.linalg.expm(t * q)[state] - pi for t in times])


def chain_reference(
    q: np.ndarray,
    f: np.ndarray,
    state: int,
    reversible: bool,
    curve: bool = True,
    closed_gap: float | None = None,
    closed_tdr: float | None = None,
    pi: np.ndarray | None = None,
) -> ChainRef:
    """Reference stationary law, gap, true decay rate, constants and,
    with ``curve``, the 60-point default-grid curve and expected fit.

    ``closed_gap``/``closed_tdr`` replace the numerical values where the
    chain has a closed form (example21 gap 1, example22 rate 5/4); ``pi``
    replaces the null vector where a recursion gives it more accurately.
    """
    q = np.asarray(q, dtype=float)
    f = np.asarray(f, dtype=float)
    pi = stationary(q) if pi is None else np.asarray(pi, dtype=float)
    S, d = _symmetrized(q, pi)
    lam, V = scipy.linalg.eigh(S)
    gap = float(lam[1]) if closed_gap is None else closed_gap
    ev = scipy.linalg.eigvals(q)
    ev = np.delete(ev, np.argmin(np.abs(ev)))
    tdr = float(-np.max(ev.real)) if closed_tdr is None else closed_tdr
    constants = math.sqrt(float(pi @ f**2)) * np.sqrt(1.0 / pi - 1.0)
    ref = ChainRef(q, f, pi, int(state), bool(reversible), gap, tdr, constants)
    if not curve:
        return ref

    grid = np.geomspace(GRID_START, 10.0 / ref.rate, GRID_POINTS)
    if reversible:
        psi = V[state, 1:] / d[state]
        phi = (V[:, 1:] * d[:, None]).T
        dev = (psi[None, :] * np.exp(-np.outer(grid, lam[1:]))) @ phi
        probe = [0, GRID_POINTS // 2, GRID_POINTS - 1]
        expm_dev = deviation_rows(q, pi, state, grid[probe])
        err = np.abs(dev[probe] - expm_dev) @ f
        if np.any(err > 1e-10 * f.sum()):
            raise RuntimeError(f"reference eigen-expansion and expm disagree by {err.max():.2e}")
    else:
        dev = deviation_rows(q, pi, state, grid)
    values = np.abs(dev) @ f
    mode, rate = expected_fit(grid, values, gap, tdr)
    return ChainRef(q, f, pi, int(state), bool(reversible), gap, tdr, constants,
                    grid, values, mode, rate)


def _detrended_peaks(t: np.ndarray, logy: np.ndarray) -> int:
    z = logy - np.polyfit(t, logy, 1)[0] * t
    return int(np.sum((z[1:-1] > z[:-2]) & (z[1:-1] > z[2:])))


def expected_fit(grid: np.ndarray, values: np.ndarray, gap: float, tdr: float) -> tuple[str, float]:
    """Fit mode and rate the default-window fit should report.

    A monotone window is a plain least-squares log-line, reproduced
    exactly; a window with a local maximum is fitted through its peaks,
    whose slope must match the true decay rate within 5%.  Where the
    detrended curve has fewer than three peaks, in the window and over the
    whole grid, peak mode has nothing to fit: "insufficient".
    """
    m = (grid >= 2.0 / gap) & (grid <= 6.0 / gap)
    y = values[m]
    if np.any((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])):
        if _detrended_peaks(grid[m], np.log(y)) < 3 and _detrended_peaks(grid, np.log(values)) < 3:
            return "insufficient", tdr
        return "peaks", tdr
    return "loglinear", float(-np.polyfit(grid[m], np.log(y), 1)[0])


def close(name: str, got, want, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, expected {want.shape}")
    bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CheckFailed(f"{name}: {got.flat[k]!r} vs reference {want.flat[k]!r}")


def check_spectral(ref: ChainRef, gap, tdr, reversible, constants=None, pi=None) -> None:
    if bool(reversible) != ref.reversible:
        raise CheckFailed(f"reversible verdict {reversible}, expected {ref.reversible}")
    close("gap", gap, ref.gap, 1e-8, 1e-12 * ref.scale)
    close("true_decay_rate", tdr, ref.tdr, 1e-8, 1e-12 * ref.scale)
    if pi is not None:
        close("stationary", pi, ref.pi, 1e-8)
    if constants is not None:
        close("constants", constants, ref.constants, 1e-8)


def check_curve(ref: ChainRef, times, fnorms, envelope=None) -> None:
    close("grid", times, ref.grid, 1e-9)
    close("curve", fnorms, ref.curve, 1e-6, 1e-12 * ref.f.sum())
    if envelope is not None:
        close("envelope", envelope, ref.constants[ref.state] * np.exp(-ref.gap * ref.grid), 1e-8)


def check_fit(ref: ChainRef, mode: str, rate: float) -> None:
    if mode != ref.fit_mode and ref.fit_mode != "insufficient":
        raise CheckFailed(f"fit mode {mode!r}, expected {ref.fit_mode!r}")
    if mode == "loglinear":
        close("fit rate", rate, ref.fit_rate, 1e-6)
    else:
        close("fit rate (peaks)", rate, ref.fit_rate, 0.05)


def bernstein(p: np.ndarray, n: int) -> np.ndarray:
    """Half-width that |p_hat - p| exceeds with probability <= MC_DELTA
    (Bernstein's inequality for a mean of n Bernoulli(p) draws)."""
    L = math.log(2.0 / MC_DELTA)
    return np.sqrt(2.0 * p * (1.0 - p) * L / n) + 2.0 * L / (3.0 * n)


@dataclass(frozen=True)
class SamplerRef:
    """Exact laws of one chain at the sampler's times, from expm rows."""

    q: np.ndarray
    f: np.ndarray
    pi: np.ndarray
    start: int
    times: np.ndarray
    laws: np.ndarray  # (len(times), n)

    @property
    def exact_fnorms(self) -> np.ndarray:
        return np.abs(self.laws - self.pi) @ self.f


def sampler_reference(q: np.ndarray, f: np.ndarray, pi: np.ndarray, start: int, times: np.ndarray) -> SamplerRef:
    dev = deviation_rows(q, pi, start, times)
    return SamplerRef(q, np.asarray(f, float), pi, int(start), np.asarray(times, float), dev + pi)


def check_fnorm_estimates(ref: SamplerRef, estimates, n_paths: int) -> None:
    """Each estimate sum_s f_s |p_hat_s - pi_s| lies within the f-weighted
    Bernstein half-widths of the exact value (triangle inequality)."""
    est = np.asarray(estimates, dtype=float)
    if est.shape != ref.times.shape:
        raise CheckFailed(f"{est.size} estimates for {ref.times.size} times")
    tol = bernstein(ref.laws, n_paths) @ ref.f + 1e-12 * ref.f.sum()
    bad = ~(np.abs(est - ref.exact_fnorms) <= tol)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise CheckFailed(
            f"MC f-norm at t={ref.times[k]:.4g}: {est[k]:.6g} vs exact {ref.exact_fnorms[k]:.6g} (tol {tol[k]:.3g})"
        )


def check_ensemble(ref: SamplerRef, occupancy, hold_sum, hold_count, estimates) -> None:
    """Cell agreement of the empirical laws, the holding-time test, and
    the estimates recomputed from the occupancy."""
    occ = np.asarray(occupancy)
    m, n = occ.shape[0], ref.pi.size
    if occ.shape != (m, ref.times.size):
        raise CheckFailed(f"occupancy shape {occ.shape}")
    counts = np.stack([np.bincount(occ[:, k], minlength=n) for k in range(ref.times.size)])
    if counts.shape[1] != n:
        raise CheckFailed("occupancy holds states out of range")
    phat = counts / m
    bad = np.abs(phat - ref.laws) > bernstein(ref.laws, m)
    if np.any(bad):
        k, s = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise CheckFailed(f"MC law at t={ref.times[k]:.4g}, state {s}: {phat[k, s]:.5f} vs {ref.laws[k, s]:.5f}")
    close("MC estimate", estimates, np.abs(phat - ref.pi) @ ref.f, 1e-12, 1e-15)
    check_fnorm_estimates(ref, estimates, m)
    # Holding times at state s are Exp(q_s), so q_s * sum ~ Gamma(count).
    rates = -np.diag(ref.q)
    for s in np.nonzero(np.asarray(hold_count) > 0)[0]:
        c, x = float(hold_count[s]), float(rates[s] * hold_sum[s])
        tail = 2.0 * min(scipy.special.gammainc(c, x), scipy.special.gammaincc(c, x))
        if tail < MC_DELTA:
            raise CheckFailed(f"holding times at state {s}: mean {hold_sum[s] / c:.5g}, expected {1 / rates[s]:.5g}")
