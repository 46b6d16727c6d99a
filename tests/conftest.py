"""Shared fixtures: canonical chains and decomposition counters."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from ergorate.chain_core import build_birth_death, build_example21, build_example22


@pytest.fixture
def decomposition_counts(monkeypatch):
    """Live counts of numpy.linalg.eigh/eigvalsh/eigvals/eig and
    scipy.linalg.expm calls (ergorate looks these up on the modules at call
    time).  ``eig`` counts the Arnoldi's projected eigensolves, one per
    restart cycle, each of a matrix of the basis size.  ergorate takes no
    expm; its count stays as a guard."""
    counts = {"eigh": 0, "eigvalsh": 0, "eigvals": 0, "eig": 0, "expm": 0}
    kernels = (
        (np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "eigvals"), (np.linalg, "eig"),
        (scipy.linalg, "expm"),
    )
    for owner, name in kernels:
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


def lifted_cycle(N: int, flip: float | None = None):
    """Lifted N-cycle on 2N states: (x, +) steps to x + 1 and (x, -) to
    x - 1 mod N at rate 1, and each flips direction at rate ``flip``
    (default 1/N).  Uniform stationary law; irreversible, with a slow
    complex pair from N = 32 on."""
    flip = 1.0 / N if flip is None else flip
    x = np.arange(N)
    q = np.zeros((2 * N, 2 * N))
    q[x, (x + 1) % N] = 1.0
    q[N + x, N + (x - 1) % N] = 1.0
    q[x, N + x] = q[N + x, x] = flip
    np.fill_diagonal(q, -q.sum(axis=1))
    return q
