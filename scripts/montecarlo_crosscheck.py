#!/usr/bin/env python3
"""Monte-Carlo cross-check of the deterministic decay pipeline.

Samples trajectory ensembles for the builtin families, estimates the
weighted-norm distance to stationarity at a grid of times, and reports
the z-score of each estimate against the matrix-exponential value.
Everything is seeded, so a run is exactly reproducible.

Usage:
    python3 scripts/montecarlo_crosscheck.py [--paths 50000] [--seed 8001]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ergorate.chain_core import build_birth_death, build_example21, build_example22
from ergorate.montecarlo import empirical_fnorm, sample_paths
from ergorate.semigroup import Propagator, f_norm
from ergorate.spectral import spectral_report


def families():
    return [
        ("resampling_n3", build_example21([0.5, 0.25, 0.25], 2.0)),
        ("cycle", build_example22()),
        (
            "birth_death_n6",
            build_birth_death(
                [1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2]
            ),
        ),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=50000)
    ap.add_argument("--points", type=int, default=8)
    ap.add_argument("--seed", type=int, default=8001)
    args = ap.parse_args()

    print(f"paths={args.paths} seed={args.seed}")
    worst = 0.0
    for name, spec in families():
        report = spectral_report(spec)
        rate = report.true_decay_rate
        times = np.linspace(0.3 / rate, 3.0 / rate, args.points)
        t0 = time.time()
        ens = sample_paths(spec, 0, times, args.paths, args.seed)
        emp = empirical_fnorm(ens, spec.stationary, spec.weight)
        elapsed = time.time() - t0
        prop = Propagator(spec)
        print(f"\n{name} (n={spec.n}, sampled in {elapsed:.2f}s)")
        print(f"{'t':>8s} {'empirical':>12s} {'exact':>12s} {'stderr':>10s} {'z':>6s}")
        for k, t in enumerate(times):
            exact = f_norm(prop.deviation(t)[0, :], spec.weight)
            z = abs(emp.estimates[k] - exact) / emp.stderrs[k] if emp.stderrs[k] > 0 else 0.0
            worst = max(worst, z)
            print(f"{t:>8.3f} {emp.estimates[k]:>12.6f} {exact:>12.6f} {emp.stderrs[k]:>10.6f} {z:>6.2f}")
    print(f"\nworst z-score: {worst:.2f}")
    return 0 if worst <= 4.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
