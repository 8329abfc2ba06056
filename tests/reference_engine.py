"""A plain engine: one step for every strategy, the obvious way, which
every fast path of :mod:`eigencd.engine` must match bit for bit along whole
runs.  The greedy sweep solves every coordinate's closed form; the sampled
pick draws by one sequential cumsum of the weights, with the engine's
generator calls; Gauss-Southwell is ``argmax |c|``; a coordinate step adds
its column by a fancy-index add and recomputes nu and s every n
applications; a full sweep adds the columns one by one, and over a shift
``a M + b I`` of an operator with a bulk product it is ``a * (M's column
loop) + b * u``, the bulk product's order.  It shares only the cubic
solvers, :class:`SolverState` and the exceptions the harness catches with
the engine.
"""

import math

import numpy as np

from eigencd.engine import (CubicCoeffs, PowerIterationBreakdown, StationaryIterate,
                            cubic_min_roots, solve_cubic_min)
from eigencd.operators import ShiftScaled

from conftest import quartic_gain


def coord_coeffs(state, j=slice(None)):
    """``(b, c, d)`` of the line-search cubics along the coordinates j."""
    x, nu = state.x[j], state.nu
    return 3.0 * x, nu + 2.0 * x * x - state.oracle.diagonal[j], nu * x - state.z[j]


def closed_forms(state):
    """``(alphas, gains)`` of every coordinate's exact line search."""
    b, c, d = coord_coeffs(state)
    alphas = cubic_min_roots(b, c, d)
    return alphas, quartic_gain(alphas, b, c, d)


def greedy_sweep(state, k):
    """The full sweep's k best line searches, ``(indices, alphas)`` ranked
    by (gain, index); for k = 1 numpy's ``argmin``, which takes a NaN first."""
    alphas, gains = closed_forms(state)
    order = np.array([np.argmin(gains)]) if k == 1 else \
        np.lexsort((np.arange(gains.size), gains))[:k]
    return order, alphas[order]


def inverse_cdf(weights, draws):
    """Where ``draws`` in [0, 1) fall on one sequential cumsum of ``weights``."""
    cum = np.cumsum(weights)
    return np.minimum(np.searchsorted(cum, draws * cum[-1], side="right"), weights.size - 1)


def sampling_weights(c, t):
    weights = np.abs(c) / np.abs(c).max()
    return weights if t == 1 else weights ** t


def sequential_pick(c, t, draws):
    """The inverse-CDF pick of ``draws`` over the weights ``(|c| / max|c|)^t``."""
    return inverse_cdf(sampling_weights(c, t), draws)


def sampled_pick(state, t, k, with_replacement):
    n, rng = state.dim, state.rng
    if t == 0:
        return rng.integers(0, n, size=k) if with_replacement else \
            rng.choice(n, size=k, replace=False)
    c = state.nu * state.x - state.z
    if not 0.0 < np.abs(c).max() < math.inf:
        raise StationaryIterate("gradient scores all zero")
    if with_replacement:
        return sequential_pick(c, t, rng.random(k))
    weights, picks = sampling_weights(c, t), []
    for _ in range(k):  # one draw at a time, each pick's weight then zeroed
        if not weights.any():
            raise StationaryIterate("ran out of nonzero scores")
        picks.append(int(inverse_cdf(weights, rng.random())))
        weights[picks[-1]] = 0.0
    return np.array(picks)


def add_column(oracle, j, coeff, w):
    """``w += coeff * A[:, j]`` by a fancy-index add: one ``column()`` call."""
    rows, vals = oracle.column(j)
    if coeff != 0.0:
        if rows is None:
            w += coeff * vals
        else:
            w[rows] += coeff * vals


def column_sum(oracle, idx, coeffs):
    """``sum coeffs_i A[:, idx_i]`` over distinct ascending ``idx``, one
    ``column()`` call (one access) and one fancy-index add per column.  Over
    every column of a shift ``a M + b I`` whose sweep is a bulk product, it
    is ``a * (M's sum) + b * coeffs``, the bulk product's order, with the n
    accesses charged by n ``column()`` reads of the shift."""
    n = oracle.dim
    if idx.size == n and isinstance(oracle, ShiftScaled) and oracle.bulk_product:
        with oracle.base.counting_paused():
            w = column_sum(oracle.base, idx, coeffs)
        for j in range(n):
            oracle.column(j)
        return oracle.scale * w + oracle.shift * coeffs
    w = np.zeros(n)
    for j, coeff in zip(idx.tolist(), coeffs.tolist()):
        add_column(oracle, j, coeff, w)
    return w


def revalidate(state):
    state.nu = float(state.x @ state.x)
    state.s = float(state.x @ state.z)


def apply_delta(state, j, alpha):
    xj_old, zj_old = state.x[j], state.z[j]
    add_column(state.oracle, j, alpha, state.z)
    state.x[j] = xj_old + alpha
    state.nu += alpha * (2.0 * xj_old + alpha)
    state.s += alpha * (2.0 * zj_old + alpha * state.oracle.diagonal[j])
    state._applies += 1
    if state._applies % state.dim == 0:
        revalidate(state)


def vec_ls_step(state, sampled):
    """Exact line search along the gradient on the distinct sampled
    coordinates; a duplicate draw still costs its column access."""
    omega, counts = np.unique(sampled, return_counts=True)
    x, z, nu = state.x, state.z, state.nu
    v = 4.0 * (nu * x[omega] - z[omega])
    w = column_sum(state.oracle, omega, v)
    nv2 = float(v @ v)
    alpha = 0.0
    if nv2 != 0.0:
        vtx, vtz, vav = float(v @ x[omega]), float(v @ z[omega]), float(v @ w[omega])
        alpha = solve_cubic_min(CubicCoeffs(3.0 * vtx / nv2,
                                            (nu * nv2 + 2.0 * vtx * vtx - vav) / (nv2 * nv2),
                                            (nu * vtx - vtz) / (nv2 * nv2)))
    x[omega] += alpha * v
    z += alpha * w
    revalidate(state)
    for j in np.repeat(omega, counts - 1).tolist():
        state.oracle.column(j)


def power_step(state):
    src = state.z if state.ell > 0 else state.x
    norm = float(np.sqrt(src @ src))
    if norm == 0.0:
        raise PowerIterationBreakdown("iterate vanished")
    u = src / norm
    w = column_sum(state.oracle, np.arange(state.dim), u)
    if float(np.sqrt(w @ w)) == 0.0:
        raise PowerIterationBreakdown("A x vanished")
    rayleigh = float(u @ w)
    scale = np.sqrt(rayleigh) if rayleigh > 0 else 1.0
    state.x, state.z = scale * u, scale * w
    state.nu, state.s = scale * scale, scale * scale * rayleigh


def reference_step(state, config):
    """One iteration of ``config``; a batch takes all its deltas from the
    pre-step state and applies them in order."""
    if config.pick == "pm":
        power_step(state)
    elif config.pick == "all":
        vec_ls_step(state, np.arange(state.dim))
    elif config.update == "vec_ls":
        vec_ls_step(state, sampled_pick(state, config.t, config.k, config.with_replacement))
    else:
        c = state.nu * state.x - state.z
        if config.pick == "greedy_ls":
            indices, deltas = greedy_sweep(state, config.k)
        elif config.pick == "cyclic":
            indices = np.array([state.ell % state.dim])
        elif config.pick == "gauss_southwell":
            indices = np.array([np.argmax(np.abs(c))])
        else:
            indices = sampled_pick(state, config.t, config.k, config.with_replacement)
        if config.update == "fixed_grad":
            deltas = -config.gamma * 4.0 * c[indices]
        elif config.pick != "greedy_ls":
            deltas = np.array([solve_cubic_min(CubicCoeffs(*coord_coeffs(state, j)))
                               for j in indices.tolist()])
        if config.averaged and indices.size > 1:
            deltas = deltas / indices.size
        for j, delta in zip(indices.tolist(), deltas.tolist()):
            apply_delta(state, j, delta)
    state.ell += 1
