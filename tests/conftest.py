"""Shared oracles for the test suite.

These helpers are deliberately independent of the package's incremental
bookkeeping: dense algebra, finite differences, and grid scans only.
"""

import numpy as np
import pytest

from eigencd.engine import SolverState, init_state
from eigencd.operators import DenseSymmetric, SpectrumSpec, build_synthetic


def dense_objective(a: np.ndarray, x: np.ndarray) -> float:
    r = np.asarray(a) - np.outer(x, x)
    return float(np.sum(r * r))


def fd_gradient(a: np.ndarray, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (dense_objective(a, x + e) - dense_objective(a, x - e)) / (2 * h)
    return out


def quartic_gain(alpha, b, c, d):
    return alpha * (4.0 * d + alpha * (2.0 * c + alpha * (4.0 / 3.0 * b + alpha)))


def grid_newton_min(b: float, c: float, d: float) -> float:
    """Brute-force minimizer of the line-search quartic: grid + Newton polish."""
    span = 10.0 * (1.0 + abs(b) + abs(c) + abs(d))
    grid = np.linspace(-span, span, 20001)
    alpha = float(grid[np.argmin(quartic_gain(grid, b, c, d))])
    for _ in range(60):
        slope = c + alpha * (2.0 * b + 3.0 * alpha)
        if slope == 0.0:
            break
        step = (d + alpha * (c + alpha * (b + alpha))) / slope
        alpha -= step
        if abs(step) < 1e-15 * (1.0 + abs(alpha)):
            break
    return alpha


def random_assumption1_matrix(n: int, seed: int) -> np.ndarray:
    """Random symmetric matrix with a simple positive leading eigenvalue.

    A rank-one boost along the leading eigenvector enforces positivity and
    a healthy gap without disturbing the rest of the spectrum.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    a = (g + g.T) / np.sqrt(2 * n)
    vals, vecs = np.linalg.eigh(a)
    boost = max(0.0, 0.5 - vals[-1])
    if vals[-1] + boost - vals[-2] < 0.05:
        boost += 0.25
    if boost:
        a = a + boost * np.outer(vecs[:, -1], vecs[:, -1])
    return a


def double_top(n: int, seed: int = 0) -> DenseSymmetric:
    """``Q diag(8, 8, linspace(4, 0.2, n - 2)) Q^T``: a doubled leading
    eigenvalue that rounding splits by a few ulps."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DenseSymmetric((q * np.r_[8.0, 8.0, np.linspace(4.0, 0.2, n - 2)]) @ q.T)


def scores_state(c: np.ndarray, seed: int = 0) -> SolverState:
    """State whose gradient scores equal ``c`` exactly (x = 0, z = -c)."""
    n = c.size
    oracle = DenseSymmetric(np.zeros((n, n)))
    state = SolverState(oracle, np.zeros(n), -np.asarray(c, dtype=float),
                        np.random.default_rng(seed))
    return state


@pytest.fixture(scope="session")
def small_synthetic():
    spec = SpectrumSpec.gapped_grid(30, 9.0, 0.2, 5.0, seed=5)
    return build_synthetic(spec)


def fresh_state(oracle, x0, seed=0):
    return init_state(oracle, x0, rng=np.random.default_rng(seed))
