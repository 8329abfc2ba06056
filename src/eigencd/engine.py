"""Coordinate-descent iteration engine for the leading-eigenvalue objective.

All strategies minimize ``f(x) = ||A - x x^T||_F^2`` by composing a
coordinate-pick rule with a coordinate-update rule.  The engine maintains
``z = A x``, ``nu = ||x||^2`` and ``s = x^T z`` incrementally so that a
single-coordinate step costs one column access plus O(n) vector work, and
the objective gap is available in O(1) at every iteration.

Exact line search along coordinate j minimizes the quartic
``h(a) = f(x + a e_j)``, whose critical points are the real roots of the
monic cubic ``a^3 + b a^2 + c a + d`` with

    b = 3 x_j,  c = nu + 2 x_j^2 - A_jj,  d = nu x_j - z_j   (coord_coeffs).

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
The gain along coordinate j, ``h_j(a) = f(x + a e_j) - f(x)``, has
``h_j'(0) = 4 d_j`` and ``h_j''(a) = 4 (p_j + 3 (x_j + a)^2) >= 4 p_j``.
When ``p_j > 0``, h_j is 4 p_j-strongly convex, so
``h_j(a) >= 4 d_j a + 2 p_j a^2`` and

    gain_j >= -key_j,   key_j = 2 d_j^2 / p_j.

Each sweep has an incumbent ``G``: the k-th best gain of a few seed
coordinates at the current state, from :func:`solve_cubic_min`.  That is
:func:`cubic_min_roots` bit for bit, so each seed's gain is the very number
the sweep computes for it.  Coordinate j can still be among the k best only
when ``key_j >= -G``, up to the margins below, or when ``p_j <= 0``.  The
sweep screens in two stages, and solves one coordinate at a time;
:func:`_best_first` states the bar ``-G`` once, for both stages.

First stage.  The keys are cached on the state as upper keys ``U_j``,
computed at a reference ``nu0`` and valid for every ``nu`` with
``|nu - nu0| <= Delta``, ``Delta = SCREEN_DRIFT * s0`` (s as below, at
``nu0``).  For fixed ``x_j, z_j, A_jj``, a move of nu by at most Delta

* lowers ``p_j = nu - x_j^2 - A_jj`` by at most Delta;
* raises ``|d_j| = |nu x_j - z_j|`` by at most ``Delta |x_j|``;
* raises ``s = |nu| + max_j |A_jj|`` by at most Delta, to at most
  ``s+ = s0 + Delta``.

Since ``2 d^2 / p`` grows with ``|d|`` and falls with ``p > 0``,

    U_j = 2 (|d_j(nu0)| + Delta |x_j| + eta s+^1.5)^2 / p_lo_j,
    p_lo_j = p_j(nu0) - Delta - eta s+,

bounds ``key_j`` with its margins at every nu of the window, and U_j is set
to inf where ``p_lo_j <= 0`` or U_j is NaN (NaN and inf in x or z land
there).  Its numerator is at least ``(eta s+^1.5)^2 > 0``, so those are the
entries where the computed U_j is not positive.  The candidates are the
coordinates with ``U_j >= -G``, one comparison over n that keeps every inf.

Second stage.  The same key at the current nu, with ``Delta = 0`` and the
same eta margins (on ``s+ >= s``, so the argument below holds as it stands),

    K_j = 2 (|d_j| + eta s+^1.5)^2 / (p_j - eta s+),   inf as above,

drops the candidates with ``K_j < -G``.  The slack ``Delta |x_j|`` is what
lets most candidates through the first stage: along GCD-LS-LS to 1e-4 on
Hubbard 4x4 3+3, a median of 199 candidates, against 5 coordinates with
``K_j`` at least minus the sweep's best gain.  The rest are solved best
first.  Let ``G_k`` be the k-th best ``(gain, index)`` among the coordinates
solved so far, the seeds included.  The stage solves the candidate with the
largest finite ``K_j`` (mostly the winner, which settles ``G_k`` at once),
then the others in descending order of ``K_j``, and stops at the first
``K_j < -G_k``.  Every coordinate left then has ``K_j < -G_k``, so its gain
is above ``G_k`` (below) and it trails k solved ones.  A key equal to
``-G_k`` does not stop the stage: where ``G_k = -inf`` every key left is
inf.  The k best solved coordinates, ordered by ``(gain, index)``, are the
full sweep's winners, their steps and the tie to the lowest index bit for
bit.  Where a solved gain is NaN (the full sweep's order then depends on
numpy's NaN rules) the sweep drops the cache and solves all n coordinates
unscreened, in one :func:`cubic_min_roots` call.

Invalidation.  U_j reads only ``x_j``, ``z_j``, ``A_jj`` and the cache's
constants.  A step on coordinate j changes ``x_j`` and z on the rows of
column j, so :meth:`SolverState.apply_coordinate_delta` records those rows
and j while a cache exists, and the next sweep recomputes U on them with the
same formula.  A sweep rebuilds every U_j at its own nu when
``|nu - nu0| > Delta`` (or is NaN), and every other change drops the cache:
a fresh state, :meth:`SolverState.revalidate` (which the vector line search
calls, and which runs every n coordinate applications, so the record of
touched rows stays below 2n entries), :func:`power_method_step`, a dense
column, which touches every row, and a sweep that meets a NaN gain.

The seeds are the last sweep's best ``SCREEN_SEEDS * k`` solved coordinates
less its k picks, which a step has just moved to (or, in an averaged batch,
toward) their line minima; on a rebuild, or when they are fewer than k, also
the coordinate with the largest finite U and the one with the largest
gradient ``|d_j|`` (the k of each).

The margin covers rounding, with ``s = |nu| + max_j |A_jj|`` (so that
``x_j^2 <= s`` and ``p_j <= s`` wherever ``p_j > 0``) and ``eta = 2^-36``,
about 1e5 times the unit roundoff u.  U_j and K_j carry it with ``s+ >= s``,
so each term is at least the one stated here:

* ``p_j`` is lowered by ``eta s`` and ``|d_j|`` raised by ``eta s^1.5``,
  which bound their distance from ``c - b^2 / 3`` and d of the sweep's own
  rounded ``b, c, d`` (a few ulps of ``|nu| + x_j^2 + |A_jj|`` and of
  ``|nu x_j| <= s^1.5``); the rounded cubic's key is then at most U_j.
* The rounding of ``_quartic_gain`` needs no term of its own.  For the
  rounded cubic, ``h = 4 d a + 2 p a^2 + R`` with ``R = 6 x^2 a^2 + 4 x a^3
  + a^4 = a^2 ((a + 2x)^2 + 2 x^2)``, so ``R >= 2 x^2 a^2`` and
  ``R >= a^4 / 3``, and Horner's terms sum to at most
  ``4 |d a| + 13 (2 p a^2 + R) <= 13 h + 56 |d a|``.  Where
  ``|a| <= 3 |d| / p`` its rounding, about 10u of that sum, is at most
  ``840 u key``; elsewhere ``h >= 2 |d a|`` outweighs it.  So the computed
  gain at any a is at least ``-(1 + 840 u) key``, and lowering ``p_j`` by
  ``eta s >= eta p`` scales U_j up by at least ``1 + eta``.
* So the computed ``gain_j >= -(1 + 840 u) / (1 + eta) U_j >= -U_j``, and
  the same for K_j: ``K_j < -G`` gives ``gain_j > G``, and the seeds' gains
  are the sweep's own, so j trails k of them and is not among the k best.

States with ``s`` above ``2^300`` (or NaN) are not screened: near overflow
the closed forms themselves return NaN.  Nor are states with ``s`` below
``2^-300``: there the squares in the keys underflow (at ``s = 1e-110`` the
keys were 0 against gains near ``-1e-220``), where from ``2^-300`` up every
key is at least ``2 eta^2 s^2 >= 2^-671``, far from the subnormal range.
Below :data:`SCREEN_MIN_DIM` coordinates every cubic is solved, unscreened.

The sampled pick (``grad_power``, t > 0, with replacement) draws j with
probability proportional to ``w_j = (|c_j| / M)^t``, ``M = max|c|``, by the
inverse CDF: with ``C`` the sequential ``cumsum`` of the computed weights
and ``D = fl(r C_{n-1})`` for ``r = rng.random()``, j is the number of
``C_i <= D``, clipped to n - 1.  For k draws on ``n >= k * SAMPLE_MIN_DIM``
coordinates it finds the same j without C and, at t = 1, without M.  It sums
values ``v`` over blocks of :data:`SAMPLE_BLOCK` in one BLAS product of the
blocks with a vector of ones, searches the running block sums for the
draw's block, and proposes j from that block's running sum.  At t = 1,
``v = |c|`` unscaled; M is read only when the sequential search runs, or
when the total is zero or not finite (the stationary test, or the
sequential search).  Otherwise ``v`` are the computed weights themselves,
the case ``M = 1`` below without the weights' rounding.

With ``u = 2^-53``, ``eta = 2^-1075`` (the largest error of a rounding into
the subnormal range), ``gamma = n u / (1 - n u)`` and ``V_i`` the exact
prefix sums of v: each value ``A_i`` the test reads (a block start plus a
running sum inside the block) and the total T are sums of at most n
nonnegative terms, so they lie within ``gamma V_i`` of V_i whatever the
order of addition (BLAS picks it inside a block); additions lose nothing
to underflow.  The weights ``fl(|c_l| / M)`` round by a relative u or an
absolute eta each, C sums them in order, and D and ``m = fl(r T)`` round
once each, so in units of |c|

    M C_i in (1 +- gamma) ((1 +- u) V_i +- n eta M),
    M D in (1 +- u) r M C_{n-1} +- eta M,   m in (1 +- u) r T +- eta.

Eliminating ``V_i`` and ``r V_{n-1}``, ``C_{j-1} <= D`` holds once
``m R2 - A_{j-1} R1 > a_L``, and ``D < C_j`` once ``A_j R3 - m R4 > a_R``,
with ``R1 = (1 + u) / (1 - 2nu)``, ``R2 = (1 - u)^2 (1 - 2nu) / (1 + u)``,
``R3 = (1 - u)(1 - 2nu)``, ``R4 = (1 + u)^2 / ((1 - u)(1 - 2nu))``
(``(1 + gamma) / (1 - gamma) = 1 / (1 - 2nu)``), and
``a_L = ((2 + gamma) n + 1) eta M + R2 eta``,
``a_R = ((2 + u + gamma + u gamma) n + 1) eta M + R4 eta``.  The proposed j
is accepted only when

    m - A_{j-1} > (m + A_{j-1}) eps + tau,   A_j - m > (A_j + m) eps + tau

in floating point.  Their own roundings scale eps by at least
``(1 - u)^3 / (1 + u)`` and ``tau - eta`` by ``(1 - u) / (1 + u)``, so they
prove both conditions when ``eps (1 - u)^3 / (1 + u)`` bounds every
``|R - 1|`` and ``(tau - eta)(1 - u) / (1 + u)`` bounds a_L and a_R.  The
margins are

    eps = gamma_{2n+4},   tau = (n + 1) 2^-1073 T + 2^-1073.

Every ``|R - 1|`` is at most ``gamma_{2n+3}``, as R4's is: 2n for the two
sums and one u each for the weights' division, D and m.  The weights' u is
the one the unscaled sums add to a sampler that divides by M, and the last
u pays for the test's own roundings.  ``M <= V_{n-1} <= T / (1 - gamma)`` puts
the ``eta M`` terms under the first part of tau, and its last part covers
the ``eta`` ones and the rounding of tau itself (n counts the zero padding
of the last block; the margins only grow with n).  So the test proves
``C_{j-1} <= D < C_j``, which makes j the sequential search's answer.  When
a draw fails the test (it lies within about ``eps`` of a cumulative
boundary, or its block was guessed wrong) or the total is not finite, the
whole call takes the sequential cumsum, with the draws already made.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import ColumnOracle, column_norm_max, max_abs_diag

_TWO_PI_3 = 2.0 * np.pi / 3.0

# The greedy sweep screens from this dimension up.  A screened sweep
# refreshes the cached keys on the rows the last step touched (every row
# after a dense column), solves a few scalar seeds, compares n keys with the
# bar, recomputes the keys of the candidates and solves about three more one
# at a time, without cubic_min_roots' fixed cost of about 45 us.  Median
# sweep in us, full -> screened, along GCD-LS-LS runs (to 1e-4, at most
# 1,500 sweeps) on a 2-CPU x86 VM: Hubbard 100I-H sectors n = 15 72 -> 59,
# 39 74 -> 63, 104 75 -> 62, 783 110 -> 79, 1,210 131 -> 66, 1,440
# 138 -> 62, 1,820 156 -> 62, 3,185 228 -> 68, 4,036 260 -> 70, 19,600
# 959 -> 82; dense synthetic n = 40 72 -> 67, 60 73 -> 68, 100 74 -> 65,
# 250 80 -> 70, 500 95 -> 68, 1,000 118 -> 76, 2,000 171 -> 89, 3,000
# 230 -> 110 (on dense input every sweep rebuilds all keys).  Below the
# floor the screen still wins at k = 1, with equal counts; us per iteration
# on converging runs, full -> screened: dense n = 20 98 -> 89, 40 93 -> 85,
# 60 94 -> 85, 99 96 -> 88; 3x2 2+2 (n = 39) to 1e-6 102 -> 86.  It loses at
# k > 1, which is the floor's reason: GCD-LS-LS with k = 3 averaged on dense
# n = 20 goes 102 -> 123 to 1e-8 and 109 -> 125 to 1e-6.  Above the floor it
# wins at 1e-4 and 1e-8 alike: from 10 e_HF, min of 5, one BLAS thread, to
# 1e-8, n = 104 86 -> 74, 336 100 -> 90, 392 109 -> 75.
SCREEN_MIN_DIM = 100
SCREEN_ETA = 2.0 ** -36
SCREEN_MIN_SCALE = 2.0 ** -300
SCREEN_MAX_SCALE = 2.0 ** 300

# The cached screen keys stay valid while nu moves by at most SCREEN_DRIFT * s
# (s = |nu| + max|A_jj|, about 225 on Hubbard 100I-H), and each sweep seeds
# its incumbent with the last sweep's best SCREEN_SEEDS * k coordinates less
# its k picks.  Along GCD-LS-LS on Hubbard 4x4 3+3 (2-CPU x86 VM; us per step
# the median of 5 runs to 1e-4 and 3 to 1e-6, interleaved), drift / seeds:
# full rebuilds, first-stage candidates median / p90 / mean, coordinates
# solved per sweep (seeds included) median / mean, us per step.
# To 1e-4 (3,923 sweeps):
# 2^-7 / 4: 2, 513 / 874 / 527, 6 / 7.7, 133;  2^-9 / 2: 29, 253 / 1,842 /
# 1,156, 6 / 7.4, 142;  2^-9 / 3: 29, 227 / 1,258 / 1,000, 6 / 7.5, 132;
# 2^-9 / 4: 29, 199 / 486 / 239, 6 / 7.7, 115;  2^-9 / 6: 29, 180 / 412 /
# 215, 6 / 8.0, 127;  2^-9 / 8: 29, 177 / 412 / 214, 6 / 8.1, 130;
# 2^-11 / 4: 485, 59 / 332 / 123, 6 / 7.8, 151;  2^-13 / 4: 1,069, 19 / 234 /
# 85, 6 / 7.9, 190.
# To 1e-6 (30,885 sweeps):
# 2^-7 / 4: 3, 5,299 / 8,415 / 4,723, 6 / 6.4, 164;  2^-9 / 3: 30, 2,466 /
# 5,758 / 3,006, 6 / 6.2, 142;  2^-9 / 4: 30, 2,144 / 5,454 / 2,514, 6 / 6.4,
# 136;  2^-9 / 6: 30, 2,069 / 5,398 / 2,468, 6 / 6.8, 131;  2^-11 / 4: 486,
# 883 / 2,511 / 1,121, 6 / 6.5, 127;  2^-13 / 4: 1,167, 447 / 1,329 / 581,
# 6 / 6.5, 130.
# Narrower windows gain at most 7% at 1e-6 and lose 31% or more at 1e-4.
SCREEN_DRIFT = 2.0 ** -9
SCREEN_SEEDS = 4

# The sampled pick certifies k draws when n >= k * SAMPLE_MIN_DIM.  A draw
# costs 5 to 10 us of numpy calls, against about 5.7 ns per coordinate for
# the max pass, division and cumsum it saves.  Fastest pick at t = 1 of 15
# runs of 1,000, exact -> certified, on gaussian scores (10% zeros), 2-CPU
# x86 VM: k = 1 n = 500 14.1 -> 11.7 us, 1,000 17.1 -> 12.6, 2,000
# 22.9 -> 13.8, 4,000 34.2 -> 15.8, 16,000 102.2 -> 26.4; k = 2 n = 1,000
# 17.4 -> 16.9, 2,000 23.6 -> 18.4, 3,000 29.5 -> 19.9; k = 4 n = 2,000
# 34.1 -> 44.7, 4,000 45.6 -> 46.4, 6,000 58.4 -> 49.6.  (With the max
# pass the floor was 2,000: k = 2 n = 2,500 measured 35.5 -> 39.0.)  Block
# sizes 64 to 512 measured alike at n = 3,000 and 19,600.
SAMPLE_MIN_DIM = 1000
SAMPLE_BLOCK = 256
_UNIT_ROUNDOFF = 2.0 ** -53
_TWO_MIN_SUBNORMAL = 2.0 ** -1073


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


def _newton_polish(alpha, b, c, d):
    for _ in range(2):
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
    associated quartic gain wins, exact ties to the smaller root.  The
    Newton steps and gains of both branches run stacked in one array: every
    element sees the same arithmetic as alone, so only the call count drops.
    """
    b, c, d = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                    for v in (b, c, d)))
    shift = b / 3.0
    p = c - b * shift
    q = shift * (2.0 * shift * shift - c) + d
    disc = 0.25 * q * q + p * p * p / 27.0

    single = disc > 0
    multi = np.flatnonzero(~single)
    single = np.flatnonzero(single)
    s = np.sqrt(disc[single])
    half_q = 0.5 * q[single]
    y = np.cbrt(-half_q + s) + np.cbrt(-half_q - s)
    pm, qm = p[multi], q[multi]
    m = 2.0 * np.sqrt(np.maximum(-pm / 3.0, 0.0))
    denom = pm * m
    ratio = np.divide(3.0 * qm, denom, out=np.zeros_like(qm), where=denom != 0)
    theta = np.arccos(np.clip(ratio, -1.0, 1.0)) / 3.0
    big = m * np.cos(theta)
    small = m * np.cos(theta - 2.0 * _TWO_PI_3)
    # [lone roots, larger roots, smaller roots], polished together
    at = np.concatenate((single, multi, multi))
    bs, cs, ds = b[at], c[at], d[at]
    roots = _newton_polish(np.concatenate((y, big, small)) - shift[at], bs, cs, ds)
    ns, nm = single.size, multi.size
    gains = _quartic_gain(roots[ns:], bs[ns:], cs[ns:], ds[ns:])
    out = np.empty_like(p)
    out[single] = roots[:ns]
    out[multi] = np.where(gains[:nm] < gains[nm:], roots[ns:ns + nm], roots[ns + nm:])
    return out


def solve_cubic_min(coeffs: CubicCoeffs) -> float:
    """:func:`cubic_min_roots` of one cubic, bit for bit: its operations in its
    order on Python floats, numpy's ``cbrt``, ``arccos`` and ``cos`` included."""
    b, c, d = float(coeffs.b), float(coeffs.c), float(coeffs.d)
    shift = b / 3.0
    p = c - b * shift
    q = shift * (2.0 * shift * shift - c) + d
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0:
        s = math.sqrt(disc)
        half_q = 0.5 * q
        roots = (float(np.cbrt(-half_q + s)) + float(np.cbrt(-half_q - s)) - shift,)
    else:
        third = -p / 3.0  # np.maximum(third, 0.0): NaN stays, -0.0 becomes 0.0
        m = 2.0 * math.sqrt(third if not third <= 0.0 else 0.0)
        denom = p * m
        ratio = 3.0 * q / denom if denom != 0.0 else 0.0
        ratio = 1.0 if ratio > 1.0 else -1.0 if ratio < -1.0 else ratio  # np.clip keeps NaN
        theta = float(np.arccos(ratio)) / 3.0
        roots = (m * float(np.cos(theta)) - shift,
                 m * float(np.cos(theta - 2.0 * _TWO_PI_3)) - shift)
    polished = []
    for alpha in roots:
        for _ in range(2):  # _newton_polish: a zero or NaN slope takes no step
            slope = c + alpha * (2.0 * b + 3.0 * alpha)
            if abs(slope) > 0.0:
                alpha -= _cubic_value(alpha, b, c, d) / slope
        polished.append(alpha)
    if len(polished) == 1:
        return polished[0]
    r_hi, r_lo = polished
    return r_hi if _quartic_gain(r_hi, b, c, d) < _quartic_gain(r_lo, b, c, d) else r_lo


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

    The greedy sweep caches its screen keys here (see the module docstring).
    Change ``x`` or ``z`` through :meth:`apply_coordinate_delta`, which
    records the rows it touches while that cache exists, or call
    :meth:`revalidate` afterwards, which drops the cache.
    """

    __slots__ = ("oracle", "x", "z", "nu", "s", "ell", "rng",
                 "_applies", "_work", "_screen_cache")

    def __init__(self, oracle: ColumnOracle, x: np.ndarray, z: np.ndarray,
                 rng: np.random.Generator):
        self.oracle = oracle
        self.x = x
        self.z = z
        self.ell = 0
        self.rng = rng
        self._applies = 0
        self._work = np.zeros(-(-x.size // SAMPLE_BLOCK) * SAMPLE_BLOCK)
        self.revalidate()

    @property
    def dim(self) -> int:
        return self.x.size

    def scores(self) -> np.ndarray:
        """``c = nu x - z`` (the gradient is ``4 c``) in the head of a reused
        work buffer, zero-padded to whole blocks of the :data:`SAMPLE_BLOCK`
        the state was built under; slice ``[:n]`` for the scores alone.
        Valid until the next call."""
        head = self._work[:self.dim]
        np.multiply(self.nu, self.x, out=head)
        np.subtract(head, self.z, out=head)
        return self._work

    def abs_scores(self) -> np.ndarray:
        """``|c|`` in place of :meth:`scores`' buffer."""
        buf = self.scores()
        head = buf[:self.dim]
        np.abs(head, out=head)
        return buf

    def revalidate(self) -> None:
        self.nu = float(self.x @ self.x)
        self.s = float(self.x @ self.z)
        self._screen_cache: _ScreenCache | None = None

    def apply_coordinate_delta(self, j: int, alpha: float) -> None:
        """Move coordinate j by alpha and refresh the cached quantities.

        A zero step still costs its column access.
        """
        x = self.x
        xj_old = float(x[j])
        zj_old = float(self.z[j])
        rows = self.oracle.add_column(j, alpha, self.z)
        x[j] = xj_old + alpha
        self.nu += alpha * (2.0 * xj_old + alpha)
        self.s += alpha * (2.0 * zj_old + alpha * self.oracle.diagonal.item(j))
        if self._screen_cache is not None:
            if rows is None:
                self._screen_cache = None  # a dense column touches every row
            else:
                self._screen_cache.dirty += (rows, (j,))
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
    support = np.flatnonzero(x)
    oracle.add_columns(support, x[support], z)
    return SolverState(oracle, x, z, rng)


@dataclass(frozen=True)
class StrategyConfig:
    """One solver configuration: pick rule x update rule x batching.

    pick    : cyclic | grad_power | gauss_southwell | greedy_ls | all | pm
    update  : fixed_grad | coord_ls | vec_ls (ignored for pm)
    t       : sampling power for grad_power (t = 0 is uniform, 0**0 = 1)
    k       : coordinates updated per iteration
    gamma   : fixed_grad's stepsize, finite and > 0; no other update reads it
    with_replacement: whether grad_power's k draws may repeat a coordinate;
              without, they are k distinct coordinates (k <= n)
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
        """Column accesses one iteration charges on an operator of order dim;
        refuses ``k > dim`` for a pick of k distinct coordinates."""
        if self.pick in ("pm", "all"):
            return dim
        if self.k > dim and (self.pick == "greedy_ls" or not self.with_replacement):
            raise ValueError(f"batch size k = {self.k} exceeds the operator order "
                             f"n = {dim}; this pick needs k distinct coordinates")
        return self.k

    def validate(self) -> "StrategyConfig":
        if self.pick not in self._PICKS:
            raise ValueError(f"unknown pick rule {self.pick!r}")
        if self.pick == "pm":
            return self
        if self.update not in self._UPDATES:
            raise ValueError(f"unknown update rule {self.update!r}")
        if self.k < 1:
            raise ValueError("batch size k must be >= 1")
        if not 0 <= self.t < math.inf:
            raise ValueError(f"sampling power t must be finite and >= 0, got {self.t}")
        if self.update == "fixed_grad" and not (
                self.gamma is not None and 0 < self.gamma < math.inf):
            raise ValueError(
                f"fixed_grad update needs a finite stepsize gamma > 0, got {self.gamma}")
        if self.pick == "greedy_ls" and self.update != "coord_ls":
            raise ValueError("greedy_ls picks its own line-search step; use coord_ls")
        if self.update == "vec_ls" and self.pick not in ("grad_power", "all"):
            raise ValueError("vec_ls needs a sampled or full gradient direction")
        if self.pick == "all" and self.update != "vec_ls":
            raise ValueError("full-direction pick is only used with vec_ls")
        if self.pick in ("cyclic", "gauss_southwell") and self.k != 1:
            raise ValueError(f"{self.pick} updates one coordinate per iteration")
        return self


def pick_cyclic(state: SolverState) -> int:
    return state.ell % state.dim


def pick_gauss_southwell(state: SolverState) -> int:
    """Largest gradient magnitude, ties to the lowest index: ``argmax |c|``
    bit for bit, read from the signed scores' argmax and argmin without the
    abs pass.  Both return the first NaN where there is one, and the first
    index with ``|c|`` at its largest is the lower of the first largest and
    the first smallest c."""
    c = state.scores()[:state.dim]
    hi, lo = int(c.argmax()), int(c.argmin())
    top, bottom = c.item(hi), -c.item(lo)
    if top > bottom:
        return hi
    if bottom > top:
        return lo
    return min(hi, lo)  # equal magnitudes, or hi == lo at a NaN


@functools.cache
def _ones(size: int) -> np.ndarray:
    return np.ones(size)


# A total past the float range is infinite in _block_ends; _certified_draws
# refuses it and the pick falls back to max|c| and the sequential search, so
# numpy's overflow report is left out there.  numpy's error state is a context
# variable, so the sums run in a copy of one context that reports no
# overflow, set up once (a fresh copy per call, since two threads cannot
# enter one context at once): about 0.1 us a pick at n = 19,600, where entering
# np.errstate costs 1.4 us as a decorator and 1.6 as a with-block (2-CPU
# x86 VM).
_NO_OVERFLOW_REPORT = contextvars.copy_context()
_NO_OVERFLOW_REPORT.run(np.errstate(over="ignore").__enter__)


def _block_ends(values: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` over blocks of :data:`SAMPLE_BLOCK`, by one
    BLAS product of the blocks with a vector of ones; a sum past the float
    range is inf, unreported."""
    return _NO_OVERFLOW_REPORT.copy().run(_sum_blocks, values)


def _sum_blocks(values: np.ndarray) -> np.ndarray:
    return np.add.accumulate(values.reshape(-1, SAMPLE_BLOCK) @ _ones(SAMPLE_BLOCK))


def _draw_margins(n: int, total: float) -> tuple[float, float]:
    """``(eps, tau)`` of the certified draw's test over n values (zero padding
    included) summing to ``total``; see the module docstring."""
    eps = (2 * n + 4) * _UNIT_ROUNDOFF / (1.0 - (2 * n + 4) * _UNIT_ROUNDOFF)
    return eps, (n + 1) * _TWO_MIN_SUBNORMAL * total + _TWO_MIN_SUBNORMAL


def _certified_draws(values: np.ndarray, ends: np.ndarray,
                     draws: np.ndarray) -> np.ndarray | None:
    """The sequential sampler's picks for ``draws``, or None when one of them
    is not certified.  ``values`` are its weights up to one common factor,
    zero-padded to whole blocks of :data:`SAMPLE_BLOCK`, and ``ends`` their
    :func:`_block_ends`; see the module docstring.
    """
    total = ends.item(-1)
    if not math.isfinite(total):
        return None
    eps, tau = _draw_margins(values.size, total)  # padded: the margins only grow with n
    last = ends.size - 1
    picks = np.empty(draws.size, dtype=np.int64)
    for i in range(draws.size):
        mid = draws.item(i) * total
        b = min(int(ends.searchsorted(mid, side="right")), last)
        start = ends.item(b - 1) if b else 0.0
        # the search only proposes j; the test below decides
        local = np.add.accumulate(values[b * SAMPLE_BLOCK:(b + 1) * SAMPLE_BLOCK])
        c = int(local.searchsorted(mid - start, side="right"))
        if c == SAMPLE_BLOCK:
            return None
        before = start + local.item(c - 1) if c else start
        after = start + local.item(c)
        if not (mid - before > (mid + before) * eps + tau
                and after - mid > (after + mid) * eps + tau):
            return None
        picks[i] = b * SAMPLE_BLOCK + c
    return picks


def _largest_score(scores: np.ndarray) -> float:
    top = float(np.maximum.reduce(scores))
    if top == 0.0 or not math.isfinite(top):
        raise StationaryIterate("gradient scores all zero")
    return top


def pick_grad_power(state: SolverState, t: float, k: int = 1,
                    with_replacement: bool = True) -> np.ndarray:
    """Sample k coordinates with probability proportional to ``|c_j|**t``.

    Draws with replacement are the sequential inverse-CDF search's bit for
    bit, one ``rng.random(k)`` per call; from ``k * SAMPLE_MIN_DIM``
    coordinates up a certified two-level search finds them without the full
    cumulative sum (see the module docstring).
    """
    n = state.dim
    rng = state.rng
    if t == 0:
        if with_replacement:
            return rng.integers(0, n, size=k)
        return rng.choice(n, size=k, replace=False)
    padded = state.abs_scores()
    certify = with_replacement and n >= k * SAMPLE_MIN_DIM
    values, top = padded, None  # the weights are values / top
    if t == 1 and certify:
        # the unscaled sums of |c| certify the draws: max|c| is read only by
        # the sequential search, or where a zero or non-finite total cannot
        # rule out a stationary iterate
        ends = _block_ends(values)
        if not 0.0 < ends.item(-1) < math.inf:
            top = _largest_score(padded[:n])
    else:
        top = _largest_score(padded[:n])
        if t != 1:
            values = padded / top  # normalized before powering to dodge overflow
            values **= t
            top = 1.0
        ends = _block_ends(values) if certify else None
    if with_replacement:
        draws = rng.random(k)
        if certify:
            picks = _certified_draws(values, ends, draws)
            if picks is not None:
                return picks
        if top is None:
            top = _largest_score(padded[:n])
        cum = np.cumsum(values[:n] / top)
        return np.minimum(np.searchsorted(cum, draws * cum[-1], side="right"), n - 1)
    weights = values[:n] / top
    out = np.empty(k, dtype=np.int64)
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


def coord_coeffs(nu, x, z, diag):
    """``(b, c, d)`` of the line-search cubic along e_j from ``x_j, z_j, A_jj``,
    for floats or arrays: :func:`direction_cubic` at ``v = e_j``, bit for bit
    (its divisions by 1.0 are exact)."""
    return 3.0 * x, nu + 2.0 * x * x - diag, nu * x - z


def coord_cubic(state: SolverState, j: int) -> CubicCoeffs:
    """Line-search cubic along coordinate j; O(1) given cached nu."""
    return CubicCoeffs(*coord_coeffs(state.nu, state.x.item(j), state.z.item(j),
                                     state.oracle.diagonal.item(j)))


class _ScreenCache:
    """Upper screen keys, valid while ``|nu - nu0| <= drift``, with the rows
    touched since they were last refreshed and the last sweep's best
    coordinates.  See the module docstring."""

    __slots__ = ("nu0", "drift", "scale_hi", "keys", "dirty", "seeds")

    def __init__(self, state: SolverState, scale: float):
        self.nu0 = state.nu
        self.drift = SCREEN_DRIFT * scale
        self.scale_hi = scale + self.drift  # s+: at least s in the window
        self.keys = _screen_keys(self.nu0, self.drift, self.scale_hi,
                                 state.x, state.z, state.oracle.diagonal)
        self.dirty = []
        self.seeds = []


def _screen_keys(nu, drift, scale, x, z, diag) -> np.ndarray:
    """``2 (|nu x - z| + drift |x| + eta scale^1.5)^2 / (nu - drift - eta scale
    - x^2 - diag)`` of each coordinate given by ``x, z, diag``; inf where the
    denominator is not positive or the key is NaN."""
    eta = SCREEN_ETA
    # in place where possible: each fresh n-array costs its page faults
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_lo = x * x
        np.subtract(nu - drift - eta * scale, p_lo, out=p_lo)
        p_lo -= diag
        key = nu * x
        key -= z
        np.abs(key, out=key)
        if drift:
            slack = np.abs(x)
            slack *= drift
            key += slack
        key += eta * scale ** 1.5
        key *= key
        key += key
        key /= p_lo
    # the numerator is at least (eta scale^1.5)^2 > 0, so key > 0 exactly where
    # p_lo > 0 and neither is NaN (p_lo = +0.0 gives inf already)
    return np.where(key > 0.0, key, np.inf)


def _largest(values: np.ndarray, k: int) -> list[int]:
    if k == 1:
        return [int(np.argmax(values))]
    return np.argpartition(values, values.size - k)[values.size - k:].tolist()


def _solve(state: SolverState, j: int) -> tuple[float, float]:
    """``(gain, alpha)`` of coordinate j's line search, the sweep's bit for bit."""
    coeffs = coord_cubic(state, j)
    alpha = solve_cubic_min(coeffs)
    return delta_f(alpha, coeffs), alpha


def _screen(state: SolverState, k: int) -> tuple[np.ndarray, dict] | None:
    """The greedy sweep's cached upper keys, brought up to date, and the
    line searches of at least k seeds as ``{j: (gain, alpha)}``; None when
    the state is out of the screen's range and every coordinate must be
    solved.  See the module docstring.
    """
    x, z, nu, diag = state.x, state.z, state.nu, state.oracle.diagonal
    cache = state._screen_cache
    seeds = set() if cache is None else set(cache.seeds)
    fresh = cache is None or not abs(nu - cache.nu0) <= cache.drift
    if fresh:
        scale = abs(nu) + max_abs_diag(state.oracle)
        if not SCREEN_MIN_SCALE <= scale <= SCREEN_MAX_SCALE:
            return None
        cache = state._screen_cache = _ScreenCache(state, scale)
    elif cache.dirty:
        rows = np.concatenate(cache.dirty)
        cache.dirty.clear()
        cache.keys[rows] = _screen_keys(cache.nu0, cache.drift, cache.scale_hi,
                                        x[rows], z[rows], diag[rows])
    keys = cache.keys
    if fresh or len(seeds) < k:  # the largest finite bound, the largest |d|
        seeds.update(_largest(np.where(keys < np.inf, keys, -np.inf), k))
        seeds.update(_largest(state.abs_scores()[:x.size], k))
    return keys, {j: _solve(state, j) for j in seeds}


def _best_first(state: SolverState, k: int, keys: np.ndarray,
                solved: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """Both stages' bar ``-G_k``, from the k best of the ``solved`` seeds:
    the first stage keeps the coordinates whose upper ``keys`` reach it, and
    the second solves them by their keys at the current nu from the largest
    down, raising ``G_k`` as it goes, until a key falls below it.  Returns
    the k best as ``(rows, alphas)`` ordered by (gain, index), or None where
    a solved gain is NaN.  See the module docstring.
    """
    if any(gain != gain for gain, _ in solved.values()):
        return None
    top = sorted((gain, j) for j, (gain, _) in solved.items())[:k]
    rows = np.flatnonzero(keys >= -top[-1][0])
    cache = state._screen_cache
    key = _screen_keys(state.nu, 0.0, cache.scale_hi, state.x[rows], state.z[rows],
                       state.oracle.diagonal[rows])
    live = np.flatnonzero(key >= -top[-1][0])
    if live.size > 1:
        # the largest finite key mostly belongs to the winner: solve it first,
        # and sort only what its bar leaves
        finite = np.where(key[live] < np.inf, key[live], -np.inf)
        if not _admit(state, rows.item(live[finite.argmax()]), solved, top):
            return None
        live = live[key[live] >= -top[-1][0]]
    order = live[np.argsort(-key[live], kind="stable")]
    for key_j, j in zip(key[order].tolist(), rows[order].tolist()):
        if key_j < -top[-1][0]:
            break
        if not _admit(state, j, solved, top):
            return None
    best = sorted((gain, j) for j, (gain, _) in solved.items())
    cache.seeds = [j for _, j in best[k:SCREEN_SEEDS * k]]  # the picks step off
    return (np.array([j for _, j in top], dtype=np.int64),
            np.array([solved[j][1] for _, j in top]))


def _admit(state: SolverState, j: int, solved: dict, top: list) -> bool:
    """Solve coordinate j unless it is solved already, and keep ``top``, the
    k best ``(gain, index)`` pairs, up to date; False where its gain is NaN."""
    if j in solved:
        return True
    gain, _ = solved[j] = _solve(state, j)
    if gain != gain:
        return False
    if (gain, j) < top[-1]:
        bisect.insort(top, (gain, j))
        top.pop()
    return True


def pick_greedy_ls(state: SolverState, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Exact line search along every coordinate; the k largest objective
    drops win, as ``(rows, alphas)`` ordered by (gain, index).

    One O(n) screened sweep over cached quantities and the diagonal; no
    column accesses.  Screened-out coordinates are provably not among the
    winners, so the result is the full sweep's bit for bit.
    """
    if k < state.dim and state.dim >= SCREEN_MIN_DIM:
        screened = _screen(state, k)
        picked = None if screened is None else _best_first(state, k, *screened)
        if picked is not None:
            return picked
        # out of the screen's range, or a NaN gain: numpy's order over all n decides
        state._screen_cache = None
    b, c, d = coord_coeffs(state.nu, state.x, state.z, state.oracle.diagonal)
    alphas = cubic_min_roots(b, c, d)
    gains = _quartic_gain(alphas, b, c, d)
    if k == 1:
        order = np.array([np.argmin(gains)])
    else:
        order = np.lexsort((np.arange(gains.size), gains))[:k]
    return order, alphas[order]


def _apply_vec_ls(state: SolverState, sampled: np.ndarray) -> None:
    """Exact line search along ``v = grad f`` restricted to omega, the draws.

    Pays each omega column once, every column as one
    :meth:`ColumnOracle.sweep`, then each duplicate draw its own access.
    """
    omega, counts = np.unique(sampled, return_counts=True)
    x, z, nu = state.x, state.z, state.nu
    v = 4.0 * (nu * x[omega] - z[omega])
    if omega.size == state.dim:  # omega is sorted and distinct: every column
        w = state.oracle.sweep(v)
    else:
        w = np.zeros(state.dim)
        state.oracle.add_columns(omega, v, w)
    nv2 = float(v @ v)
    alpha = 0.0 if nv2 == 0.0 else solve_cubic_min(direction_cubic(
        nu, nv2, float(v @ x[omega]), float(v @ z[omega]), float(v @ w[omega])))
    x[omega] += alpha * v
    z += alpha * w
    state.revalidate()
    # duplicates sampled with replacement still cost their column access
    for j in np.repeat(omega, counts - 1):
        state.oracle.column(int(j))


def step(state: SolverState, config: StrategyConfig) -> None:
    """Run one iteration of the configured strategy.

    Batch deltas are all computed from the pre-step state and then applied
    sequentially, matching independent per-coordinate updating; total column
    accesses per call equal ``config.columns_per_step(n)``.  Raises
    :class:`StationaryIterate` when no coordinate can move and
    :class:`PowerIterationBreakdown` when a power step vanishes.
    """
    if config.pick == "pm":
        power_method_step(state)
        return
    if config.k == 1 and config.update != "vec_ls" and config.pick != "greedy_ls":
        # one coordinate, on Python floats: no one-element arrays
        if config.pick == "cyclic":
            j = pick_cyclic(state)
        elif config.pick == "gauss_southwell":
            j = pick_gauss_southwell(state)
        else:
            j = int(pick_grad_power(state, config.t, 1, config.with_replacement)[0])
        if config.update == "fixed_grad":
            delta = -config.gamma * 4.0 * (state.nu * float(state.x[j]) - float(state.z[j]))
        else:
            delta = solve_cubic_min(coord_cubic(state, j))
        state.apply_coordinate_delta(j, delta)
        state.ell += 1
        return
    if config.pick == "all":
        indices = np.arange(state.dim)
    elif config.pick == "greedy_ls":
        indices, deltas = pick_greedy_ls(state, config.k)
    else:
        indices = pick_grad_power(state, config.t, config.k, config.with_replacement)

    if config.update == "vec_ls":
        _apply_vec_ls(state, indices)
        state.ell += 1
        return

    if config.update == "fixed_grad":
        c = state.nu * state.x[indices] - state.z[indices]
        deltas = -config.gamma * 4.0 * c
    elif config.pick != "greedy_ls":  # the greedy sweep returned its line searches
        deltas = np.array([solve_cubic_min(coord_cubic(state, int(j)))
                           for j in indices])
    if config.averaged and indices.size > 1:
        deltas = deltas / indices.size
    for j, delta in zip(indices, deltas):
        state.apply_coordinate_delta(int(j), float(delta))
    state.ell += 1


def power_method_step(state: SolverState) -> None:
    """One power iteration, paid as a full sweep (n accesses).

    ``w = A u`` comes from one :meth:`ColumnOracle.sweep`: on an assembled
    operator one bulk product with the n accesses charged in one counter
    move, otherwise the column-by-column loop, one ``column()`` call and
    one access per column.

    The stored iterate is the Rayleigh-scaled current direction, so the
    cached ``nu`` doubles as the eigenvalue estimate and the objective gap
    formula applies unchanged; ``z`` holds the unnormalized next direction.
    """
    src = state.z if state.ell > 0 else state.x
    norm = float(np.sqrt(src @ src))
    if norm == 0.0:
        raise PowerIterationBreakdown("iterate vanished")
    u = src / norm
    w = state.oracle.sweep(u)
    wnorm = float(np.sqrt(w @ w))
    if wnorm == 0.0:
        raise PowerIterationBreakdown("A x vanished")
    rayleigh = float(u @ w)
    scale = np.sqrt(rayleigh) if rayleigh > 0 else 1.0
    state.x = scale * u
    state.z = scale * w
    state.nu = scale * scale
    state.s = scale * scale * rayleigh
    state._screen_cache = None
    state.ell += 1


def stepsize_bound(oracle: ColumnOracle) -> float:
    """Safe fixed stepsize ``1 / (4 (n + 4) R^2)`` with ``R^2 = max_j ||A[:,j]||``.

    Cyclic gradient descent started inside the box ``||x||_inf < R`` stays
    there under this bound.
    """
    r_sq = column_norm_max(oracle)
    if r_sq == 0.0:
        raise ValueError("zero operator has no meaningful stepsize bound")
    return 1.0 / (4.0 * (oracle.dim + 4) * r_sq)
