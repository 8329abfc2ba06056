"""Objective, gradient, Hessian action and convergence constants.

Direct (non-incremental) evaluations of everything the solvers maintain
implicitly, plus the constants governing local convergence.  These routines
double as test oracles: they are deliberately independent of the engine's
cached-quantity bookkeeping.

For a symmetric A with simple positive leading eigenvalue, the stationary
points of ``f(x) = ||A - x x^T||_F^2`` are 0 and ``sqrt(lambda) v`` over
positive eigenpairs; all are strict saddles except ``+-sqrt(lambda_1) v_1``,
which are the global minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .operators import ColumnOracle, max_abs_diag


def _matvec(a, w: np.ndarray) -> np.ndarray:
    if isinstance(a, ColumnOracle):
        return a.matvec(w)
    return np.asarray(a) @ w


def objective(a, x: np.ndarray, frob_sq: float) -> float:
    """``f(x) = ||A||_F^2 - 2 x^T A x + (x^T x)^2`` with precomputed ``||A||_F^2``."""
    ax = _matvec(a, x)
    nu = float(x @ x)
    return frob_sq - 2.0 * float(x @ ax) + nu * nu


def objective_dense(a: np.ndarray, x: np.ndarray) -> float:
    """Entrywise ``||A - x x^T||_F^2``; the slow reference route."""
    r = np.asarray(a) - np.outer(x, x)
    return float(np.sum(r * r))


def gradient(x: np.ndarray, z: np.ndarray, nu: float) -> np.ndarray:
    """``grad f = -4 z + 4 nu x`` given ``z = A x`` and ``nu = ||x||^2``."""
    return 4.0 * (nu * x - z)


def hessian_apply(a, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(-4 A + 8 x x^T + 4 x^T x I) w``."""
    return (-4.0 * _matvec(a, w)
            + 8.0 * x * float(x @ w)
            + 4.0 * float(x @ x) * w)


def hessian_dense(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    n = a.shape[0]
    return -4.0 * a + 8.0 * np.outer(x, x) + 4.0 * float(x @ x) * np.eye(n)


def stationary_point(lam: float, v: np.ndarray) -> np.ndarray:
    """``sqrt(lam) * v`` for a positive eigenpair with unit eigenvector."""
    if lam <= 0:
        raise ValueError(f"stationary rays exist only for positive eigenvalues, got {lam}")
    norm = float(np.sqrt(v @ v))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"eigenvector must be unit length, got ||v|| = {norm}")
    return np.sqrt(lam) * v


@dataclass(frozen=True)
class LandscapeConstants:
    """Constants of the local analysis around the minimizers.

    lipschitz    : coordinate-wise Lipschitz bound of grad f on the balls
    mu2          : 2-norm strong convexity constant there
    ball_radius  : radius of the balls around +-sqrt(lambda_1) v_1
    gamma_max    : safe fixed stepsize for cyclic coordinate gradient
    """

    lambda1: float
    lambda2: float
    lipschitz: float
    mu2: float
    ball_radius: float
    gamma_max: float


def constants(oracle: ColumnOracle, lam1: float, lam2: float) -> LandscapeConstants:
    if lam1 <= max(0.0, lam2):
        raise ValueError(f"need lambda1 > max(0, lambda2), got {lam1}, {lam2}")
    gap = min(2.0 * lam1, lam1 - lam2)
    lipschitz = 12.0 * lam1 + 2.0 * gap + 4.0 * max_abs_diag(oracle)
    return LandscapeConstants(
        lambda1=lam1,
        lambda2=lam2,
        lipschitz=lipschitz,
        mu2=3.0 * gap,
        ball_radius=gap / (30.0 * np.sqrt(lam1)),
        gamma_max=engine.stepsize_bound(oracle),
    )


def descend_to_stationary(a: np.ndarray, x0: np.ndarray, grad_tol: float = 1e-8,
                          max_iter: int = 20_000) -> np.ndarray:
    """Full-gradient descent with exact line search until ``||grad f|| < tol``.

    Small and dense only; the line search reuses the engine's cubic root
    selection on the direction quartic.
    """
    a = np.asarray(a, dtype=float)
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        z = a @ x
        nu = float(x @ x)
        g = gradient(x, z, nu)
        if float(np.sqrt(g @ g)) < grad_tol:
            return x
        v = -g
        w = a @ v
        nv2 = float(v @ v)
        vtx = float(v @ x)
        vtz = float(v @ z)
        vav = float(v @ w)
        coeffs = engine.direction_cubic(nu, nv2, vtx, vtz, vav)
        x = x + engine.solve_cubic_min(coeffs) * v
    return x


def multistart_second_order_points(a: np.ndarray, n_starts: int = 100,
                                   seed: int = 0, grad_tol: float = 1e-8,
                                   curvature_tol: float = 1e-6) -> list[np.ndarray]:
    """Gather distinct second-order stationary points from random starts.

    Starts are Gaussian directions scaled to ``||x|| = sqrt(lambda_1)``;
    points whose dense Hessian has an eigenvalue below ``-curvature_tol``
    (saddles) are discarded.
    """
    a = np.asarray(a, dtype=float)
    lam1 = float(np.linalg.eigvalsh(a)[-1])
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(n_starts):
        x0 = rng.standard_normal(a.shape[0])
        x0 *= np.sqrt(lam1) / np.linalg.norm(x0)
        x = descend_to_stationary(a, x0, grad_tol=grad_tol)
        z = a @ x
        g = gradient(x, z, float(x @ x))
        if float(np.sqrt(g @ g)) >= grad_tol * 10:
            continue
        hess_min = float(np.linalg.eigvalsh(hessian_dense(a, x))[0])
        if hess_min < -curvature_tol * max(1.0, 4.0 * lam1):
            continue
        if not any(np.allclose(x, y, atol=1e-5) for y in found):
            found.append(x)
    return found
