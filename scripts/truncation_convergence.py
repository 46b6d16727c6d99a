#!/usr/bin/env python3
"""Truncation study for the countable resampling chain.

The countable-state resampling chain with geometric target
pi_k = 2^-(k+1) has unit spectral gap.  Reflecting the chain to its
first N states gives a finite chain whose gap equals the retained
stationary mass 1 - 2^-N, so the truncation error in the gap decays
geometrically in the window size.  This sweeps N and reports the gap,
the retained mass, and their difference.

Usage:
    python3 scripts/truncation_convergence.py [--max-n 40]
"""

from __future__ import annotations

import argparse

from ergorate.chain_core import truncate
from ergorate.spectral import gap


def geometric_resample_rule(i: int, j: int) -> float:
    return 2.0 ** -(j + 1)


def geometric_mass(i: int) -> float:
    return 2.0 ** -(i + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=40, help="largest window size")
    args = ap.parse_args()

    print(f"{'N':>4s} {'gap':>20s} {'retained mass':>20s} {'|gap - mass|':>14s} {'1 - gap':>12s}")
    n = 2
    while n <= args.max_n:
        spec = truncate(geometric_resample_rule, n)
        g = gap(spec.rate_matrix, spec.stationary)
        mass = float(sum(geometric_mass(i) for i in range(n)))
        print(f"{n:>4d} {g:>20.16f} {mass:>20.16f} {abs(g - mass):>14.2e} {1.0 - g:>12.3e}")
        n = n + 3 if n < 20 else n + 10
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
