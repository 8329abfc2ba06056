"""Coordinate-descent iteration engine for the leading-eigenvalue objective.

All strategies minimize ``f(x) = ||A - x x^T||_F^2`` by composing a
coordinate-pick rule with a coordinate-update rule.  The engine maintains
``z = A x``, ``nu = ||x||^2`` and ``s = x^T z`` incrementally so that a
single-coordinate step costs one column access plus O(n) vector work, and
the objective gap is available in O(1) at every iteration.

Exact line search along coordinate j minimizes the quartic
``h(a) = f(x + a e_j)``, whose critical points are the real roots of the
monic cubic ``a^3 + b a^2 + c a + d`` with

    b = 3 x_j,  c = nu + 2 x_j^2 - A_jj,  d = nu x_j - z_j.

Substituting ``beta = x_j + a`` turns this into the depressed cubic
``beta^3 + p beta + q`` with ``p = nu - x_j^2 - A_jj`` and
``q = A_jj x_j - z_j``; its root is the new coordinate *value*, so both
forms produce identical updates.  Root selection: a lone real root wins; of
three real roots the two outer ones are line minima and the one farther
from the middle root is strictly lower (the gap is
``(u - w)(u + w)^3 / 3`` for inner spacings u, w), so picking the lower
quartic value with ties to the smaller root realizes that rule exactly.

The greedy sweep (GCD-LS-LS) needs the best of these line searches over all
n coordinates, and solves only the cubics of coordinates that can still win.
In the depressed variable the objective along coordinate j is
``g_j(beta) = beta^4 + 2 p_j beta^2 + 4 q_j beta`` plus a constant, and the
gain of the line search is ``min g_j - g_j(x_j)``.  When ``p_j > 0``,
dropping ``beta^4`` only lowers g, so ``min g_j >= -2 q_j^2 / p_j`` and

    gain_j >= -(2 w_j^2 / p_j + x_j^4),   w_j = q_j + p_j x_j = d_j - x_j^3.

The seeds are the coordinate with the lowest such bound and the one with the
largest gradient ``|d_j|`` (the k of each for a batch of k); their exact
gains come from the scalar twin :func:`solve_cubic_min`, and the k-th best
of them is the incumbent ``G``.  A coordinate is screened out only when
``p_j > 0`` and its bound lies above ``G`` by more than the margin, tested as
``key_j < bar`` with ``key_j = 2 w_j^2 / p_j + x_j^4``, minus the bound; NaN
never passes that test, and neither does an inf in x, z or the diagonal, so
such coordinates are always solved.  Every other coordinate goes
through one :func:`cubic_min_roots` call with the full sweep's formulas, so
the winner, its step and the tie to the lowest index are the full sweep's
bit for bit.

The margin covers rounding, with ``s = |nu| + max_j |A_jj|`` (so that
``x_j^2 <= s`` wherever ``p_j > 0``) and ``eta = 2^-36``, about 1e5 times
the unit roundoff:

* ``p_j`` is lowered by ``eta s`` and ``|w_j|`` raised by ``eta s^1.5``,
  which bound their distance from the depressed coefficients of the sweep's
  own rounded ``b, c, d`` (a few ulps of ``|nu| + x_j^2 + |A_jj|`` and of
  ``|x_j|^3``);
* ``key_j`` adds ``3 eta s x_j^2``, which bounds the rounding of
  ``_quartic_gain`` at that coordinate's root (its terms are at most a small
  multiple of the bound's terms, ``G`` and ``s x_j^2``);
* ``bar = -G - eta (2 |G| + S)``, where S is the seeds' largest
  ``_quartic_gain`` term sum, covers the rounding of the seeds' gains and any
  difference between the scalar and the vector closed forms.

States with ``s`` above ``2^300`` (or NaN) are not screened: near overflow
the closed forms themselves return NaN.  Below :data:`SCREEN_MIN_DIM`
coordinates every cubic is solved, unscreened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import ColumnOracle, column_norm_max

_TWO_PI_3 = 2.0 * np.pi / 3.0

# The greedy sweep screens only from this dimension up.  The screen costs
# about 20 array passes, two scalar seed solves and a survivor gather per
# sweep, and the one cubic_min_roots call keeps its fixed cost of about
# 200 us however few coordinates survive.  Median sweep, full -> screened,
# along GCD-LS-LS runs on a 2-CPU x86 VM: Hubbard 100I-H sectors n = 104
# 265 -> 386 us, 783 337 -> 402, 1,210 378 -> 423, 1,440 357 -> 404,
# 1,820 367 -> 366, 2,366 422 -> 423, 3,185 504 -> 465, 4,036 546 -> 465,
# 19,600 1,380 -> 561; dense synthetic n = 500 147 -> 215, 1,500
# 225 -> 237, 2,000 258 -> 253, 3,000 313 -> 264.  The crossover is near
# n = 2,000 on both kinds of input.
SCREEN_MIN_DIM = 2500
SCREEN_ETA = 2.0 ** -36
SCREEN_MAX_SCALE = 2.0 ** 300


class StationaryIterate(Exception):
    """All coordinate scores vanished; the iterate is a stationary point."""


class PowerIterationBreakdown(Exception):
    """Power step hit a zero vector (x = 0 or A x = 0)."""


class CubicCoeffs(NamedTuple):
    """Monic cubic ``a^3 + b a^2 + c a + d`` (the scaled quartic slope)."""

    b: float
    c: float
    d: float


def _cubic_value(alpha, b, c, d):
    return d + alpha * (c + alpha * (b + alpha))


def _quartic_gain(alpha, b, c, d):
    # f(x + a e_j) - f(x) for coefficients from coord_cubic
    return alpha * (4.0 * d + alpha * (2.0 * c + alpha * (4.0 / 3.0 * b + alpha)))


def _newton_polish(alpha, b, c, d, iterations=2):
    for _ in range(iterations):
        slope = c + alpha * (2.0 * b + 3.0 * alpha)
        val = _cubic_value(alpha, b, c, d)
        step = np.divide(val, slope, out=np.zeros_like(alpha),
                         where=np.abs(slope) > 0)
        alpha = alpha - step
    return alpha


def cubic_min_roots(b, c, d):
    """Vectorized minimizing real root of ``a^3 + b a^2 + c a + d = 0``.

    Closed forms (Cardano / trigonometric) seeded into two Newton steps on
    the monic cubic; with three real roots the candidate with the lower
    associated quartic gain wins, exact ties to the smaller root.
    """
    b, c, d = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (b, c, d)))
    shift = b / 3.0
    p = c - b * shift
    q = shift * (2.0 * shift * shift - c) + d
    disc = 0.25 * q * q + p * p * p / 27.0

    out = np.empty_like(p)
    single = disc > 0
    if np.any(single):
        s = np.sqrt(disc[single])
        half_q = 0.5 * q[single]
        y = np.cbrt(-half_q + s) + np.cbrt(-half_q - s)
        out[single] = _newton_polish(y - shift[single],
                                     b[single], c[single], d[single])
    multi = ~single
    if np.any(multi):
        pm, qm = p[multi], q[multi]
        m = 2.0 * np.sqrt(np.maximum(-pm / 3.0, 0.0))
        denom = pm * m
        ratio = np.divide(3.0 * qm, denom, out=np.zeros_like(qm),
                          where=denom != 0)
        theta = np.arccos(np.clip(ratio, -1.0, 1.0)) / 3.0
        big = m * np.cos(theta)
        small = m * np.cos(theta - 2.0 * _TWO_PI_3)
        bm, cm, dm = b[multi], c[multi], d[multi]
        r_hi = _newton_polish(big - shift[multi], bm, cm, dm)
        r_lo = _newton_polish(small - shift[multi], bm, cm, dm)
        gain_hi = _quartic_gain(r_hi, bm, cm, dm)
        gain_lo = _quartic_gain(r_lo, bm, cm, dm)
        out[multi] = np.where(gain_hi < gain_lo, r_hi, r_lo)
    return out


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_scalar(alpha: float, b: float, c: float, d: float) -> float:
    for _ in range(2):
        slope = c + alpha * (2.0 * b + 3.0 * alpha)
        if slope == 0.0:
            break
        alpha -= (d + alpha * (c + alpha * (b + alpha))) / slope
    return alpha


def solve_cubic_min(coeffs: CubicCoeffs) -> float:
    """Scalar twin of :func:`cubic_min_roots` (pure math, hot-loop cheap)."""
    b, c, d = float(coeffs.b), float(coeffs.c), float(coeffs.d)
    shift = b / 3.0
    p = c - b * shift
    q = shift * (2.0 * shift * shift - c) + d
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0:
        s = math.sqrt(disc)
        y = _cbrt(-0.5 * q + s) + _cbrt(-0.5 * q - s)
        return _polish_scalar(y - shift, b, c, d)
    m = 2.0 * math.sqrt(max(-p / 3.0, 0.0))
    denom = p * m
    ratio = 3.0 * q / denom if denom != 0.0 else 0.0
    theta = math.acos(min(1.0, max(-1.0, ratio))) / 3.0
    r_hi = _polish_scalar(m * math.cos(theta) - shift, b, c, d)
    r_lo = _polish_scalar(m * math.cos(theta - 2.0 * _TWO_PI_3) - shift, b, c, d)
    if _quartic_gain(r_hi, b, c, d) < _quartic_gain(r_lo, b, c, d):
        return r_hi
    return r_lo


def delta_f(alpha: float, coeffs: CubicCoeffs) -> float:
    """Objective change ``f(x + alpha e_j) - f(x)`` from cached coefficients."""
    return float(_quartic_gain(alpha, coeffs.b, coeffs.c, coeffs.d))


class SolverState:
    """Iterate plus the cached quantities every strategy reads.

    Invariants: ``z == A x``, ``nu == ||x||^2``, ``s == x^T z``.  ``z`` is
    only ever updated incrementally, one added column at a time, so it
    carries rounding drift (about 2e-15 relative after 120k steps);
    :meth:`revalidate`, which also runs automatically every n coordinate
    applications, recomputes ``nu`` and ``s`` from ``x`` and ``z`` and does
    not touch ``z``.
    """

    __slots__ = ("oracle", "x", "z", "nu", "s", "ell", "rng",
                 "_diag", "_applies")

    def __init__(self, oracle: ColumnOracle, x: np.ndarray, z: np.ndarray,
                 rng: np.random.Generator):
        self.oracle = oracle
        self.x = x
        self.z = z
        self.nu = float(x @ x)
        self.s = float(x @ z)
        self.ell = 0
        self.rng = rng
        self._diag = None
        self._applies = 0

    @property
    def dim(self) -> int:
        return self.x.size

    @property
    def diag_vector(self) -> np.ndarray:
        if self._diag is None:
            self._diag = np.asarray(self.oracle.diag_vector(), dtype=float)
        return self._diag

    def gradient_scores(self) -> np.ndarray:
        """Score vector ``c = nu * x - z``; the gradient is ``4 c``."""
        return self.nu * self.x - self.z

    def revalidate(self) -> None:
        self.nu = float(self.x @ self.x)
        self.s = float(self.x @ self.z)

    def apply_coordinate_delta(self, j: int, alpha: float) -> None:
        """Move coordinate j by alpha and refresh the cached quantities.

        A zero step still costs its column access.
        """
        x = self.x
        xj_old = x[j]
        zj_old = self.z[j]
        self.oracle.add_column(j, alpha, self.z)
        ajj = self.oracle.diag(j)
        x[j] = xj_old + alpha
        self.nu += alpha * (2.0 * xj_old + alpha)
        self.s += alpha * (2.0 * zj_old + alpha * ajj)
        self._applies += 1
        if self._applies % self.dim == 0:
            self.revalidate()


def init_state(oracle: ColumnOracle, x0: np.ndarray,
               rng: np.random.Generator | int | None = None) -> SolverState:
    """Build a state with ``z = A x0`` paid one column access per nonzero."""
    x = np.array(x0, dtype=float)
    if x.shape != (oracle.dim,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({oracle.dim},)")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = np.zeros(oracle.dim)
    for j in np.flatnonzero(x):
        oracle.add_column(int(j), x[j], z)
    return SolverState(oracle, x, z, rng)


@dataclass(frozen=True)
class StrategyConfig:
    """One solver configuration: pick rule x update rule x batching.

    pick    : cyclic | grad_power | gauss_southwell | greedy_ls | all | pm
    update  : fixed_grad | coord_ls | vec_ls (ignored for pm)
    t       : sampling power for grad_power (t = 0 is uniform, 0**0 = 1)
    k       : coordinates updated per iteration
    averaged: divide each batch step by k; keeps k > 1 batches convergent
              at the price of roughly k times more iterations

    Greedy picks (gauss_southwell, greedy_ls) with k > 1 and
    ``averaged=False`` are accepted but frequently oscillate instead of
    converging; the experiment driver's stall detector reports them.
    """

    pick: str
    update: str
    t: float = 1.0
    k: int = 1
    gamma: float | None = None
    with_replacement: bool = True
    averaged: bool = False

    _PICKS = ("cyclic", "grad_power", "gauss_southwell", "greedy_ls", "all", "pm")
    _UPDATES = ("fixed_grad", "coord_ls", "vec_ls")

    @property
    def deterministic(self) -> bool:
        """Whether runs ignore their seed; only the sampled pick draws."""
        return self.pick != "grad_power"

    def columns_per_step(self, dim: int) -> int:
        """Column accesses one iteration charges on an operator of order dim."""
        return dim if self.pick in ("pm", "all") else self.k

    def validate(self) -> "StrategyConfig":
        if self.pick not in self._PICKS:
            raise ValueError(f"unknown pick rule {self.pick!r}")
        if self.pick == "pm":
            return self
        if self.update not in self._UPDATES:
            raise ValueError(f"unknown update rule {self.update!r}")
        if self.k < 1:
            raise ValueError("batch size k must be >= 1")
        if self.t < 0:
            raise ValueError("sampling power t must be >= 0")
        if self.update == "fixed_grad" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("fixed_grad update needs a stepsize gamma > 0")
        if self.pick == "greedy_ls" and self.update != "coord_ls":
            raise ValueError("greedy_ls picks its own line-search step; use coord_ls")
        if self.update == "vec_ls" and self.pick not in ("grad_power", "all"):
            raise ValueError("vec_ls needs a sampled or full gradient direction")
        if self.pick == "all" and self.update != "vec_ls":
            raise ValueError("full-direction pick is only used with vec_ls")
        if self.pick in ("cyclic", "gauss_southwell") and self.k != 1:
            raise ValueError(f"{self.pick} updates one coordinate per iteration")
        return self


@dataclass
class StepReport:
    """What one iteration did, for the harness' accounting and traces."""

    indices: np.ndarray
    deltas: np.ndarray
    col_accesses: int
    stationary: bool = False


def pick_cyclic(state: SolverState) -> int:
    return state.ell % state.dim


def pick_gauss_southwell(state: SolverState) -> int:
    """Largest gradient magnitude, ties to the lowest index."""
    return int(np.argmax(np.abs(state.gradient_scores())))


def pick_grad_power(state: SolverState, t: float, k: int = 1,
                    with_replacement: bool = True) -> np.ndarray:
    """Sample k coordinates with probability proportional to ``|c_j|**t``."""
    n = state.dim
    rng = state.rng
    if t == 0:
        if with_replacement:
            return rng.integers(0, n, size=k)
        return rng.choice(n, size=k, replace=False)
    scores = np.abs(state.gradient_scores())
    top = scores.max()
    if top == 0.0 or not np.isfinite(top):
        raise StationaryIterate("gradient scores all zero")
    weights = scores / top  # normalized before powering to dodge overflow
    if t == 2:
        weights = weights * weights
    elif t != 1:
        weights **= t
    if with_replacement:
        cum = np.cumsum(weights)
        draws = rng.random(k) * cum[-1]
        return np.minimum(np.searchsorted(cum, draws, side="right"), n - 1)
    out = np.empty(k, dtype=np.int64)
    weights = weights.copy()
    for i in range(k):
        cum = np.cumsum(weights)
        if cum[-1] <= 0.0:
            raise StationaryIterate("ran out of nonzero scores")
        draw = rng.random() * cum[-1]
        j = min(int(np.searchsorted(cum, draw, side="right")), n - 1)
        out[i] = j
        weights[j] = 0.0
    return out


def direction_cubic(nu: float, nv2: float, vtx: float, vtz: float,
                    vav: float) -> CubicCoeffs:
    """Line-search cubic of ``a -> f(x + a v)`` along a direction v.

    Takes ``nu = ||x||^2``, ``nv2 = ||v||^2``, ``vtx = v^T x``,
    ``vtz = v^T A x`` and ``vav = v^T A v``; ``nv2`` must be nonzero.
    """
    return CubicCoeffs(
        b=3.0 * vtx / nv2,
        c=(nu * nv2 + 2.0 * vtx * vtx - vav) / (nv2 * nv2),
        d=(nu * vtx - vtz) / (nv2 * nv2),
    )


def coord_cubic(state: SolverState, j: int) -> CubicCoeffs:
    """Line-search cubic along coordinate j; O(1) given cached nu.

    The case ``v = e_j`` of :func:`direction_cubic`; its divisions by 1.0
    are exact.
    """
    return direction_cubic(state.nu, 1.0, state.x[j], state.z[j],
                           float(state.oracle.diag(j)))


def _largest(values: np.ndarray, k: int) -> list[int]:
    if k == 1:
        return [int(np.argmax(values))]
    return np.argpartition(values, values.size - k)[values.size - k:].tolist()


def _screen(state: SolverState, k: int) -> np.ndarray | None:
    """Ascending indices of the coordinates that can still be among the k
    best of the greedy sweep, or None when the state is out of the screen's
    range and every coordinate must be solved.  See the module docstring.
    """
    x, z, nu, diag = state.x, state.z, state.nu, state.diag_vector
    scale = abs(nu) + float(np.max(np.abs(diag)))
    if not scale <= SCREEN_MAX_SCALE:
        return None
    eta = SCREEN_ETA
    # key = 2 (|d - x^3| + eta s^1.5)^2 / (p - eta s) + x^2 (x^2 + 3 eta s),
    # in place where possible: each fresh n-array costs its page faults
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x2 = x * x
        p_lo = np.subtract(nu - eta * scale, x2)
        p_lo -= diag
        grad = nu * x
        grad -= z
        key = x2 * x
        np.subtract(grad, key, out=key)
        np.abs(key, out=key)
        key += eta * scale ** 1.5
        key *= key
        key += key
        key /= p_lo
        x4 = x2 + 3.0 * eta * scale
        x4 *= x2
        key += x4
        np.abs(grad, out=grad)
        seeds = set(_largest(key, k) + _largest(grad, k))
        gains, size = [], 0.0
        for j in seeds:
            xj, zj, ajj = float(x[j]), float(z[j]), float(diag[j])
            coeffs = CubicCoeffs(3.0 * xj, nu + 2.0 * xj * xj - ajj, nu * xj - zj)
            alpha = solve_cubic_min(coeffs)
            gains.append(delta_f(alpha, coeffs))
            size = max(size, _quartic_gain(abs(alpha), *map(abs, coeffs)))
        best = float(np.sort(gains)[k - 1])
        bar = -best - eta * (2.0 * abs(best) + size)
        excluded = (key < bar) & (p_lo > 0.0)
    return np.flatnonzero(~excluded)


def pick_greedy_ls(state: SolverState) -> tuple[int, float]:
    """Exact line search along every coordinate; best objective drop wins.

    One O(n) screened sweep over cached quantities and the diagonal; no
    column accesses.  Ties break to the lowest index.
    """
    rows, alphas = pick_greedy_ls_batch(state, 1)
    return int(rows[0]), float(alphas[0])


def pick_greedy_ls_batch(state: SolverState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k coordinates of the greedy sweep ordered by (gain, index).

    Screened-out coordinates are provably not among them, so the result is
    the full sweep's bit for bit.
    """
    x, z, nu, diag = state.x, state.z, state.nu, state.diag_vector
    rows = _screen(state, k) if k < x.size and x.size >= SCREEN_MIN_DIM else None
    if rows is not None:
        x, z, diag = x[rows], z[rows], diag[rows]
    # coord_cubic for every coordinate at once, written out: routing it
    # through direction_cubic adds 3 array passes per call
    b = 3.0 * x
    c = nu + 2.0 * x * x - diag
    d = nu * x - z
    alphas = cubic_min_roots(b, c, d)
    gains = _quartic_gain(alphas, b, c, d)
    if k == 1:
        order = np.array([np.argmin(gains)])
    else:
        order = np.lexsort((np.arange(gains.size), gains))[:k]
    return (order if rows is None else rows[order]), alphas[order]


def _vec_ls_direction(state: SolverState, omega: np.ndarray):
    """Exact line search along ``v = grad f`` restricted to omega.

    Fetches each omega column once (counted); returns the optimal alpha,
    the direction values on omega, and the full-length ``w = A v``.
    """
    x, z, nu = state.x, state.z, state.nu
    v = 4.0 * (nu * x[omega] - z[omega])
    w = np.zeros(state.dim)
    for vj, j in zip(v, omega):
        state.oracle.add_column(int(j), vj, w)
    nv2 = float(v @ v)
    if nv2 == 0.0:
        return 0.0, v, w
    vtx = float(v @ x[omega])
    vtz = float(v @ z[omega])
    vav = float(v @ w[omega])
    return solve_cubic_min(direction_cubic(nu, nv2, vtx, vtz, vav)), v, w


def vec_ls_alpha(state: SolverState, omega) -> float:
    """Optimal stepsize along the sparse gradient direction on ``omega``.

    Charges one column access per distinct index; zero direction gives 0.
    """
    omega = np.unique(np.asarray(omega, dtype=np.int64))
    if omega.size == 0:
        raise ValueError("omega must be non-empty")
    alpha, _, _ = _vec_ls_direction(state, omega)
    return float(alpha)


def _apply_vec_ls(state: SolverState, sampled: np.ndarray) -> StepReport:
    uniq = np.unique(sampled)
    alpha, v, w = _vec_ls_direction(state, uniq)
    state.x[uniq] += alpha * v
    state.z += alpha * w
    state.revalidate()
    if sampled.size > uniq.size:
        # duplicates sampled with replacement still cost their column access
        counts = np.bincount(sampled)
        for j in np.flatnonzero(counts > 1):
            for _ in range(int(counts[j]) - 1):
                state.oracle.column(int(j))
    return StepReport(indices=uniq, deltas=alpha * v, col_accesses=sampled.size)


def step(state: SolverState, config: StrategyConfig) -> StepReport:
    """Run one iteration of the configured strategy.

    Batch deltas are all computed from the pre-step state and then applied
    sequentially, matching independent per-coordinate updating; total column
    accesses per call equal k.
    """
    if config.pick == "pm":
        raise ValueError("power-method runs are driven by the harness, not step()")
    k = config.k
    try:
        if config.pick == "cyclic":
            indices = np.array([pick_cyclic(state)])
        elif config.pick == "gauss_southwell":
            indices = np.array([pick_gauss_southwell(state)])
        elif config.pick == "all":
            indices = np.arange(state.dim)
        elif config.pick == "greedy_ls":
            if k == 1:
                j, alpha = pick_greedy_ls(state)
                indices = np.array([j])
                greedy_alphas = np.array([alpha])
            else:
                indices, greedy_alphas = pick_greedy_ls_batch(state, k)
        else:
            indices = pick_grad_power(state, config.t, k, config.with_replacement)
    except StationaryIterate:
        empty = np.empty(0, dtype=np.int64)
        return StepReport(indices=empty, deltas=empty.astype(float),
                          col_accesses=0, stationary=True)

    if config.update == "vec_ls":
        report = _apply_vec_ls(state, indices)
        state.ell += 1
        return report

    if config.pick == "greedy_ls":
        deltas = greedy_alphas
    elif config.update == "coord_ls":
        deltas = np.array([solve_cubic_min(coord_cubic(state, int(j)))
                           for j in indices])
    else:
        c = state.gradient_scores()
        deltas = -config.gamma * 4.0 * c[indices]
    if config.averaged and indices.size > 1:
        deltas = deltas / indices.size
    for j, delta in zip(indices, deltas):
        state.apply_coordinate_delta(int(j), float(delta))
    state.ell += 1
    return StepReport(indices=indices, deltas=deltas, col_accesses=indices.size)


def power_method_step(state: SolverState) -> StepReport:
    """One power iteration, paid column by column (n accesses).

    The stored iterate is the Rayleigh-scaled current direction, so the
    cached ``nu`` doubles as the eigenvalue estimate and the objective gap
    formula applies unchanged; ``z`` holds the unnormalized next direction.
    """
    src = state.z if state.ell > 0 else state.x
    norm = float(np.sqrt(src @ src))
    if norm == 0.0:
        raise PowerIterationBreakdown("iterate vanished")
    u = src / norm
    n = state.dim
    w = np.zeros(n)
    oracle = state.oracle
    for j in range(n):
        oracle.add_column(j, u[j], w)
    wnorm = float(np.sqrt(w @ w))
    if wnorm == 0.0:
        raise PowerIterationBreakdown("A x vanished")
    rayleigh = float(u @ w)
    scale = np.sqrt(rayleigh) if rayleigh > 0 else 1.0
    state.x = scale * u
    state.z = scale * w
    state.nu = scale * scale
    state.s = scale * scale * rayleigh
    state.ell += 1
    return StepReport(indices=np.arange(n), deltas=np.empty(0), col_accesses=n)


def stepsize_bound(oracle: ColumnOracle) -> float:
    """Safe fixed stepsize ``1 / (4 (n + 4) R^2)`` with ``R^2 = max_j ||A[:,j]||``.

    Cyclic gradient descent started inside the box ``||x||_inf < R`` stays
    there under this bound.
    """
    r_sq = column_norm_max(oracle)
    if r_sq == 0.0:
        raise ValueError("zero operator has no meaningful stepsize bound")
    return 1.0 / (4.0 * (oracle.dim + 4) * r_sq)
