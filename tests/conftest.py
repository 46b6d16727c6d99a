"""Shared fixtures: canonical chains and decomposition counters."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from ergorate.chain_core import build_birth_death, build_example21, build_example22


@pytest.fixture
def decomposition_counts(monkeypatch):
    """Live counts of numpy.linalg.eigh/eigvals and scipy.linalg.expm calls
    (ergorate looks these up on the modules at call time)."""
    counts = {"eigh": 0, "eigvals": 0, "expm": 0}
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvals"), (scipy.linalg, "expm")):
        def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.fixture
def ex21():
    return build_example21([0.5, 0.25, 0.25], 2.0)


@pytest.fixture
def ex22():
    return build_example22()


@pytest.fixture
def bd6():
    return build_birth_death(
        [1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.0, 2.0, 0.5, 1.0], [1, 2, 1, 3, 1, 2]
    )


def random_detailed_balance(rng: np.random.Generator, n: int):
    """Dense reversible chain from a random symmetric flux matrix."""
    p = rng.uniform(0.2, 1.0, n)
    p /= p.sum()
    W = rng.uniform(0.2, 1.0, (n, n))
    W = 0.5 * (W + W.T)
    q = W / p[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def random_irreversible(rng: np.random.Generator, n: int):
    """Dense conservative chain with no symmetry; generically irreversible."""
    q = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q
