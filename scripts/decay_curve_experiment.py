#!/usr/bin/env python3
"""Decay-curve experiment across the builtin chain families.

For each family this computes the weighted-norm decay curve from every
state, compares it against the theoretical exponential envelope, and
fits the asymptotic rate.  A curve with too few usable points for a
fit (a coarse --points) is listed with mode "insufficient" and no fit
rate.  With --csv-dir the per-state curves are also written as CSV files
for external plotting.

Usage:
    python3 scripts/decay_curve_experiment.py [--points 80] [--csv-dir out/]
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from ergorate.chain_core import build_birth_death, build_example21, build_example22
from ergorate.errors import InsufficientData
from ergorate.semigroup import (
    decay_curve,
    decay_curve_to_csv,
    default_time_grid,
    fit_rate,
)
from ergorate.spectral import spectral_report


def families():
    return [
        ("resampling_n3", build_example21([0.5, 0.25, 0.25], 2.0)),
        ("resampling_n6", build_example21([0.3, 0.2, 0.15, 0.15, 0.1, 0.1], 3.0)),
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
    ap.add_argument("--points", type=int, default=80, help="grid points per curve")
    ap.add_argument("--csv-dir", help="write per-state curve CSVs into this directory")
    args = ap.parse_args()

    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)

    print(f"{'family':<16s} {'state':>5s} {'gap':>9s} {'true rate':>10s} "
          f"{'fit rate':>10s} {'mode':>9s} {'max excess':>11s}")
    for name, spec in families():
        report = spectral_report(spec)
        grid = default_time_grid(report.true_decay_rate, points=args.points)
        for i in range(spec.n):
            curve = decay_curve(spec, i, grid)
            try:
                fit = fit_rate(curve)
                rate, mode = f"{fit.rate:.6f}", fit.mode
            except InsufficientData:
                rate, mode = "-", "insufficient"
            excess = float(np.max(curve.fnorms - curve.envelope))
            print(f"{name:<16s} {i:>5d} {report.gap:>9.5f} {report.true_decay_rate:>10.5f} "
                  f"{rate:>10s} {mode:>9s} {excess:>11.2e}")
            if args.csv_dir:
                path = os.path.join(args.csv_dir, f"{name}_state{i}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(decay_curve_to_csv(curve))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
