import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eigencd import engine, harness
from eigencd.cli import METHOD_TABLE, parse_method
from eigencd.engine import (CubicCoeffs, SolverState, StationaryIterate,
                            StrategyConfig, coord_coeffs, coord_cubic,
                            cubic_min_roots, delta_f, direction_cubic,
                            init_state, pick_cyclic,
                            pick_gauss_southwell, pick_grad_power,
                            pick_greedy_ls,
                            power_method_step, solve_cubic_min, step,
                            stepsize_bound)
from eigencd.harness import compute_reference
from eigencd.hubbard import HubbardOracle, LatticeSpec
from eigencd.operators import (ColumnOracle, DenseSymmetric, SpectrumSpec,
                               build_synthetic, max_abs_diag, shift_scale)

from conftest import (dense_objective, fresh_state, grid_newton_min,
                      quartic_gain, scores_state)


class TestCubicSolver:
    def test_symmetric_double_well_tie(self):
        # roots {-1, 0, 1}; equal objective drop, tie goes to the smaller root
        assert solve_cubic_min(CubicCoeffs(0.0, -1.0, 0.0)) == pytest.approx(-1.0)

    def test_single_real_root(self):
        assert solve_cubic_min(CubicCoeffs(0.0, 3.0, -4.0)) == pytest.approx(1.0)

    def test_triple_root(self):
        assert solve_cubic_min(CubicCoeffs(0.0, 0.0, 0.0)) == 0.0

    def test_random_triples_beat_grid_scan(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(300):
            b, c, d = rng.standard_normal(3) * rng.uniform(0.5, 5.0)
            alpha = solve_cubic_min(CubicCoeffs(b, c, d))
            ref = grid_newton_min(b, c, d)
            worst = max(worst, quartic_gain(alpha, b, c, d) - quartic_gain(ref, b, c, d))
        assert worst <= 1e-8

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        b, c, d = rng.standard_normal((3, 500)) * 3.0
        scalar = [solve_cubic_min(CubicCoeffs(*coeffs)) for coeffs in zip(b, c, d)]
        assert cubic_min_roots(b, c, d).tobytes() == np.array(scalar).tobytes()


# Cubics every example of the kernel test carries: one real root; three (a
# double well, with its exact tie); disc == 0 at a double root and at a triple
# root at 0, where -p / 3 is -0.0 and the polish meets a zero slope; -0.0
# coefficients; NaN slopes from NaN and inf coefficients; 1e+-300.
EDGE_CUBICS = [(0.0, 3.0, -4.0), (0.3, 3.0, -4.0), (0.0, -1.0, 0.0), (0.1, -2.0, 0.3),
               (0.0, -3.0, 2.0), (0.0, -12.0, -16.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
               (0.0, -0.0, 1.0), (np.nan, 1.0, 1.0), (0.0, np.inf, 1.0), (np.inf, 0.0, 0.0),
               (0.0, -np.inf, 0.0), (1.0, 1.0, np.nan), (1e300, 1e300, 1e300),
               (0.0, -1e-300, 1e-300), (1e-300, 1e300, -1e300)]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), wells=st.integers(0, 3),
       doubles=st.integers(0, 3),
       special=st.lists(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300]),
                        max_size=6))
def test_stacked_kernel_matches_scalar_solves(n, seed, wells, doubles, special):
    """The kernel's bytes are :func:`solve_cubic_min`'s, element by element."""
    rng = np.random.default_rng(seed)
    b, c, d = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, n))
    if n:
        for value in special:
            rng.choice([b, c, d])[rng.integers(0, n)] = value
        for j in rng.integers(0, n, size=wells):  # symmetric double wells: exact ties
            b[j], c[j], d[j] = 0.0, -rng.uniform(1e-3, 1e3), 0.0
        for j in rng.integers(0, n, size=doubles):  # (a - r)^2 (a + 2 r): disc == 0
            r = 2.0 ** int(rng.integers(-20, 20)) * rng.choice([-1.0, 1.0])
            b[j], c[j], d[j] = 0.0, -3.0 * r * r, 2.0 * r ** 3
    edges = (np.array(v) for v in zip(*EDGE_CUBICS))
    b, c, d = (np.concatenate(pair) for pair in zip((b, c, d), edges))
    with np.errstate(all="ignore"):
        got = cubic_min_roots(b, c, d)
    want = [solve_cubic_min(CubicCoeffs(*coeffs)) for coeffs in zip(b, c, d)]
    assert got.tobytes() == np.array(want).tobytes()


def test_edge_cubics_cover_each_branch():
    b, c, d = (np.array(v) for v in zip(*EDGE_CUBICS))
    with np.errstate(all="ignore"):
        shift = b / 3.0
        p = c - b * shift
        q = shift * (2.0 * shift * shift - c) + d
        disc = 0.25 * q * q + p * p * p / 27.0
    assert (disc > 0).any() and (disc < 0).any() and (disc == 0).any() and np.isnan(disc).any()


class TestCoordCubic:
    def test_zero_iterate_diag(self):
        state = fresh_state(DenseSymmetric(np.array([[4.0]])), np.zeros(1))
        assert coord_cubic(state, 0) == CubicCoeffs(0.0, -4.0, 0.0)

    def test_matches_derivative_finite_differences(self, small_synthetic):
        rng = np.random.default_rng(4)
        a = small_synthetic.array
        for _ in range(100):
            x = rng.standard_normal(30)
            state = fresh_state(small_synthetic, x)
            j = int(rng.integers(30))
            coeffs = coord_cubic(state, j)
            alpha = float(rng.standard_normal())
            h = 1e-5
            e = np.zeros(30)
            e[j] = 1.0
            fd = (dense_objective(a, x + (alpha + h) * e)
                  - dense_objective(a, x + (alpha - h) * e)) / (2 * h)
            analytic = 4.0 * (alpha**3 + coeffs.b * alpha**2 + coeffs.c * alpha + coeffs.d)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-5)

    def test_zero_slope_at_minimizer(self, small_synthetic):
        vals, vecs = np.linalg.eigh(small_synthetic.array)
        x = np.sqrt(vals[-1]) * vecs[:, -1]
        state = fresh_state(small_synthetic, x)
        for j in (0, 11, 29):
            assert abs(coord_cubic(state, j).d) < 1e-10


# Inputs take infinities and one NaN payload: where two NaN payloads meet in
# a commutative operation, numpy's array loops may keep either one.
ANY_FLOAT = st.floats(allow_nan=False) | st.just(np.nan)


@settings(max_examples=300, deadline=None)
@given(nu=ANY_FLOAT, values=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT),
                                     min_size=1, max_size=8))
def test_coord_coeffs_is_the_direction_cubic_along_e_j(nu, values):
    x, z, diag = (np.array(v) for v in zip(*values))
    with np.errstate(all="ignore"):
        swept = np.array(coord_coeffs(nu, x, z, diag))
        for j in range(x.size):
            want = np.array(direction_cubic(nu, 1.0, x[j], z[j], diag[j]))
            scalar = np.array(coord_coeffs(nu, float(x[j]), float(z[j]), float(diag[j])))
            assert swept[:, j].tobytes() == want.tobytes() == scalar.tobytes()


class TestDeltaF:
    def test_zero_step(self):
        assert delta_f(0.0, CubicCoeffs(1.0, 2.0, 3.0)) == 0.0

    def test_matches_direct_difference(self, small_synthetic):
        rng = np.random.default_rng(6)
        a = small_synthetic.array
        for _ in range(100):
            x = rng.standard_normal(30)
            state = fresh_state(small_synthetic, x)
            j = int(rng.integers(30))
            alpha = float(rng.standard_normal())
            coeffs = coord_cubic(state, j)
            e = np.zeros(30)
            e[j] = alpha
            direct = dense_objective(a, x + e) - dense_objective(a, x)
            assert delta_f(alpha, coeffs) == pytest.approx(direct, rel=1e-10, abs=1e-9)

    def test_line_search_never_gains(self, small_synthetic):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = fresh_state(small_synthetic, rng.standard_normal(30))
            j = int(rng.integers(30))
            coeffs = coord_cubic(state, j)
            assert delta_f(solve_cubic_min(coeffs), coeffs) <= 0.0


class TestPicks:
    def test_cyclic_wraps(self):
        state = scores_state(np.zeros(5))
        for ell, expect in [(0, 0), (5, 0), (7, 2)]:
            state.ell = ell
            assert pick_cyclic(state) == expect

    def test_gauss_southwell_magnitude(self):
        assert pick_gauss_southwell(scores_state(np.array([1.0, -3.0, 2.0]))) == 1

    def test_gauss_southwell_tie_lowest(self):
        assert pick_gauss_southwell(scores_state(np.array([2.0, 2.0]))) == 0

    def test_gauss_southwell_matches_scan(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            c = rng.standard_normal(40)
            assert pick_gauss_southwell(scores_state(c)) == int(np.argmax(np.abs(c)))

    def test_grad_power_certain_pick(self):
        state = scores_state(np.array([0.0, 5.0, 0.0]), seed=1)
        draws = {int(pick_grad_power(state, t=1.0)[0]) for _ in range(100)}
        assert draws == {1}

    def test_grad_power_high_power_uniform_on_ties(self):
        # equal scores: any power is uniform; chi^2 on 4 cells at p = 0.01
        state = scores_state(np.ones(4), seed=2)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[int(pick_grad_power(state, t=7.0)[0])] += 1
        chi2 = float(np.sum((counts - 2500.0) ** 2) / 2500.0)
        assert chi2 < 11.345  # chi^2_{3, 0.99}

    def test_grad_power_squared_ratio(self):
        # scores (1, 2) with t = 2: P(index 1) = 4/5
        state = scores_state(np.array([1.0, 2.0]), seed=3)
        draws = pick_grad_power(state, t=2.0, k=100_000)
        assert np.mean(draws == 1) == pytest.approx(0.8, abs=0.01)

    def test_grad_power_zero_scores_signal(self):
        state = scores_state(np.zeros(6), seed=4)
        with pytest.raises(StationaryIterate):
            pick_grad_power(state, t=1.0)

    def test_grad_power_without_replacement_distinct(self):
        state = scores_state(np.arange(1.0, 9.0), seed=5)
        for _ in range(50):
            picks = pick_grad_power(state, t=1.0, k=5, with_replacement=False)
            assert len(set(picks.tolist())) == 5

    def test_uniform_ignores_zero_scores(self):
        # t = 0 must sample every coordinate (0**0 = 1 convention)
        state = scores_state(np.array([0.0, 0.0, 1.0]), seed=6)
        draws = pick_grad_power(state, t=0.0, k=3000)
        assert set(draws.tolist()) == {0, 1, 2}


class TestApplyDelta:
    def test_worked_example(self):
        a = DenseSymmetric(np.diag([2.0, 3.0]))
        state = fresh_state(a, np.array([1.0, 0.0]))
        state.apply_coordinate_delta(1, 1.0)
        assert state.x.tolist() == [1.0, 1.0]
        assert state.z.tolist() == [2.0, 3.0]
        assert state.nu == pytest.approx(2.0)
        assert state.s == pytest.approx(5.0)

    def test_zero_step_still_counts(self, small_synthetic):
        state = fresh_state(small_synthetic, np.ones(30))
        before_x = state.x.copy()
        count = small_synthetic.access_count
        state.apply_coordinate_delta(3, 0.0)
        assert small_synthetic.access_count == count + 1
        assert np.array_equal(state.x, before_x)

    def test_incremental_matches_recomputation(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(100, 10.0, 0.5, 6.0, seed=10))
        rng = np.random.default_rng(11)
        state = fresh_state(a, rng.standard_normal(100))
        for _ in range(10_000):
            state.apply_coordinate_delta(int(rng.integers(100)),
                                         float(0.1 * rng.standard_normal()))
        nu_direct = float(state.x @ state.x)
        s_direct = float(state.x @ state.z)
        assert state.nu == pytest.approx(nu_direct, rel=1e-8)
        assert state.s == pytest.approx(s_direct, rel=1e-8)
        assert np.allclose(state.z, a.array @ state.x, rtol=1e-8, atol=1e-10)


class TestInitState:
    def test_zero_vector(self, small_synthetic):
        count = small_synthetic.access_count
        state = fresh_state(small_synthetic, np.zeros(30))
        assert small_synthetic.access_count == count
        assert state.nu == 0.0 and state.s == 0.0
        assert not state.z.any()

    def test_unit_coordinate(self):
        a = DenseSymmetric(np.diag([1.0, 2.0, 3.0]))
        state = fresh_state(a, np.array([1.0, 0.0, 0.0]))
        assert a.access_count == 1
        assert state.z.tolist() == [1.0, 0.0, 0.0]
        assert state.nu == 1.0 and state.s == 1.0

    def test_dimension_mismatch(self, small_synthetic):
        with pytest.raises(ValueError):
            init_state(small_synthetic, np.zeros(7))


class TestGreedySweep:
    def test_matches_two_coordinate_brute_force(self):
        a = DenseSymmetric(np.diag([3.0, 1.0]))
        state = fresh_state(a, np.array([1.0, 1.0]))
        (j,), (alpha,) = pick_greedy_ls(state)
        best = None
        for jj in range(2):
            coeffs = coord_cubic(state, jj)
            aa = grid_newton_min(*coeffs)
            gain = quartic_gain(aa, *coeffs)
            if best is None or gain < best[2]:
                best = (jj, aa, gain)
        assert j == best[0]
        assert alpha == pytest.approx(best[1], abs=1e-10)

    def test_stationary_returns_zero(self, small_synthetic):
        vals, vecs = np.linalg.eigh(small_synthetic.array)
        state = fresh_state(small_synthetic, np.sqrt(vals[-1]) * vecs[:, -1])
        (j,), (alpha,) = pick_greedy_ls(state)
        assert j == 0
        assert abs(alpha) < 1e-7

    def test_escapes_saddle(self, small_synthetic):
        # strict saddle with lambda below the largest diagonal entry
        a = small_synthetic.array
        vals, vecs = np.linalg.eigh(a)
        eligible = [i for i in range(vals.size - 1)
                    if 0.0 < vals[i] < np.diag(a).max()]
        lam, v = vals[eligible[-1]], vecs[:, eligible[-1]]
        saddle = np.sqrt(lam) * v
        state = fresh_state(small_synthetic, saddle)
        (j,), (alpha,) = pick_greedy_ls(state)
        coeffs = coord_cubic(state, j)
        assert delta_f(alpha, coeffs) < 0.0
        state.apply_coordinate_delta(j, alpha)
        assert dense_objective(a, state.x) < dense_objective(a, saddle)


def closed_form_sweep(state, k):
    """Every coordinate's closed form, ranked by (gain, index)."""
    x, z, nu = state.x, state.z, state.nu
    b = 3.0 * x
    c = nu + 2.0 * x * x - state.oracle.diagonal
    d = nu * x - z
    alphas = cubic_min_roots(b, c, d)
    gains = quartic_gain(alphas, b, c, d)
    if k == 1:
        order = np.array([np.argmin(gains)])
    else:
        order = np.lexsort((np.arange(gains.size), gains))[:k]
    return order.tolist(), alphas[order].tobytes()


def assert_sweep_is_exact(state):
    for k in (1, 3):
        rows, alphas = engine.pick_greedy_ls(state, k)
        assert (rows.tolist(), alphas.tobytes()) == closed_form_sweep(state, k)


@pytest.fixture
def screen_everywhere(monkeypatch):
    """Screen every sweep, and count the coordinates each sweep solves, in the
    vector kernel or one at a time (the seeds included)."""
    monkeypatch.setattr(engine, "SCREEN_MIN_DIM", 1)
    solved = []
    sweep = engine.pick_greedy_ls

    def counting_sweep(state, k=1):
        solved.append(0)
        return sweep(state, k)

    def vector(b, c, d):
        solved[-1] += np.size(b)
        return cubic_min_roots(b, c, d)

    def scalar(coeffs):
        solved[-1] += 1
        return solve_cubic_min(coeffs)

    monkeypatch.setattr(engine, "pick_greedy_ls", counting_sweep)
    monkeypatch.setattr(engine, "cubic_min_roots", vector)
    monkeypatch.setattr(engine, "solve_cubic_min", scalar)
    return solved


def _hubbard(l1, l2, n_up, n_down, shift):
    base = HubbardOracle(LatticeSpec(l1=l1, l2=l2, n_up=n_up, n_down=n_down,
                                     t_hop=1.0, u=4.0))
    x0 = np.zeros(base.dim)
    x0[base.hf_index] = 10.0
    return shift_scale(base, -1.0, shift), x0


@pytest.mark.parametrize("case", [(3, 2, 2, 2, 100.0), (3, 2, 2, 1, 8.0),
                                  (4, 2, 2, 2, 100.0), (4, 2, 3, 2, 30.0)])
def test_screened_sweep_exact_along_hubbard_runs(case, screen_everywhere):
    *lattice, shift = case
    oracle, x0 = _hubbard(*lattice, shift)
    state = init_state(oracle, x0, rng=0)
    config = StrategyConfig(pick="greedy_ls", update="coord_ls")
    for _ in range(250):
        assert_sweep_is_exact(state)
        step(state, config)
    assert len(screen_everywhere) == 3 * 250  # k = 1 and 3, then the step's own
    screened_out = [size < oracle.dim for size in screen_everywhere]
    assert sum(screened_out) >= 0.2 * len(screened_out)


def test_screened_sweep_exact_above_the_floor():
    n = engine.SCREEN_MIN_DIM + 100
    oracle = build_synthetic(SpectrumSpec.gapped_grid(n, 108.0, 1.0, 100.0, seed=1))
    x0 = np.zeros(n)
    x0[0] = 1.0
    state = init_state(oracle, x0, rng=0)
    config = StrategyConfig(pick="greedy_ls", update="coord_ls")
    for _ in range(60):
        assert_sweep_is_exact(state)
        step(state, config)


@st.composite
def sweep_states(draw):
    """Localized states: mostly x_j = 0, some p_j < 0, exact duplicates,
    near-ties a few ulps apart (some with tight bounds, p_j >> q_j^(2/3)),
    thin curvature ``0 < p_j << x_j^2``, scales from 1e-6 to 1e4 and NaN/inf
    entries; the seeded draws keep examples cheap."""
    n = draw(st.integers(4, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.one_of(st.sampled_from([1e-6, 1.0, 1e4]),
                           st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e)))
    x = np.zeros(n)
    support = rng.choice(n, size=draw(st.integers(0, max(1, n // 4))), replace=False)
    x[support] = rng.standard_normal(support.size) * draw(st.sampled_from([1e-3, 1.0, 3.0]))
    nu = float(x @ x)
    diag = nu + rng.uniform(-3.0, 1.0, n) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    z = np.where(rng.random(n) < 0.4, rng.standard_normal(n), 0.0)
    z[support] += diag[support] * x[support]
    if draw(st.booleans()):  # a block of tight bounds: x = 0, large p
        block = rng.choice(n, size=min(n, 8), replace=False)
        x[block] = 0.0
        nu = float(x @ x)
        diag[block] = nu - 1e6
        z[block] = 1.0
    if draw(st.booleans()):  # thin curvature: p_j = x_j^2 10^-(2..12)
        thin = np.flatnonzero(x)
        diag[thin] = nu - x[thin] ** 2 * (1.0 + 10.0 ** -rng.uniform(2.0, 12.0, thin.size))
    for _ in range(draw(st.integers(0, 6))):  # duplicates and near-ties
        src, dst = rng.integers(0, n, size=2)
        x[dst], z[dst], diag[dst] = x[src], z[src], diag[src]
        for _ in range(draw(st.integers(0, 4))):
            z[dst] = np.nextafter(z[dst], draw(st.sampled_from([-np.inf, np.inf])))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from([x, z, diag]))
        where[rng.integers(0, n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with np.errstate(invalid="ignore"):
        state = SolverState(DenseSymmetric(np.diag(diag * scale)), x * np.sqrt(scale),
                            z * scale ** 1.5, np.random.default_rng(0))
    if draw(st.booleans()):
        state.nu = float(np.sum(state.x[np.isfinite(state.x)] ** 2))
    return state


@settings(max_examples=300, deadline=None)
@given(state=sweep_states())
def test_screened_sweep_exact_on_random_states(state):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SCREEN_MIN_DIM", 1)
        with np.errstate(all="ignore"):
            assert_sweep_is_exact(state)


@settings(max_examples=300, deadline=None)
@given(state=sweep_states())
def test_screen_key_bounds_every_computed_gain(state):
    """Without the drift slack, ``-U_j`` is below the sweep's own computed
    gain wherever U_j is finite: the margins cover every rounding."""
    scale = abs(state.nu) + max_abs_diag(state.oracle)
    assume(scale <= engine.SCREEN_MAX_SCALE)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(engine, "SCREEN_DRIFT", 0.0)
        keys = engine._ScreenCache(state, scale).keys
        b, c, d = coord_coeffs(state.nu, state.x, state.z, state.oracle.diagonal)
        gains = engine._quartic_gain(cubic_min_roots(b, c, d), b, c, d)
    finite = np.isfinite(keys)
    assert np.all(gains[finite] >= -keys[finite])


def exact_screen_survivors(state, bar):
    """The coordinates the screen keeps at the state's own nu, without the
    drift slack: ``key < bar`` with ``p > 0`` is the only way out."""
    x, z, nu, diag = state.x, state.z, state.nu, state.oracle.diagonal
    eta = engine.SCREEN_ETA
    s = abs(nu) + np.max(np.abs(diag))
    with np.errstate(all="ignore"):
        p_lo = nu - eta * s - x * x - diag
        d_hi = np.abs(nu * x - z) + eta * s ** 1.5
        key = 2.0 * d_hi ** 2 / p_lo
        return np.flatnonzero(~((key < bar) & (p_lo > 0.0))), key


def assert_candidates_cover_survivors(state):
    _, key = exact_screen_survivors(state, 0.0)
    finite = np.sort(key[np.isfinite(key)])
    bars = [-np.inf, 0.0, np.inf] + finite[::max(1, finite.size // 16)].tolist()
    for bar in bars:
        candidates = np.flatnonzero(state._screen_cache.keys >= bar)
        survivors, _ = exact_screen_survivors(state, bar)
        assert np.setdiff1d(survivors, candidates).size == 0, bar


def _nu_step(x_j, change):
    """The move of a coordinate at x_j that changes nu = ||x||^2 by change."""
    root = np.sqrt(x_j * x_j + change)
    return (root if x_j >= 0 else -root) - x_j


@st.composite
def screen_moves(draw):
    """Moves of a shifted Hubbard state: nu creeps inside the screen's
    drift window or jumps out of it, up or down, among greedy, vector line
    search and power steps and revalidations."""
    moves = draw(st.lists(st.one_of(
        st.tuples(st.just("creep"), st.integers(0, 10**6),
                  st.floats(-0.3, 0.3, allow_nan=False)),
        st.tuples(st.just("jump"), st.integers(0, 10**6), st.sampled_from([-2.5, 1.5, 3.0])),
        st.tuples(st.sampled_from(["greedy", "greedy3", "vec_ls", "pm", "revalidate"]))),
        min_size=1, max_size=12))
    # nu crosses the threshold both ways in every example
    return moves + [("creep", 0, 0.2), ("jump", 0, 2.0), ("creep", 0, -0.2),
                    ("jump", 0, -2.0)]


@settings(max_examples=40, deadline=None)
@given(moves=screen_moves())
def test_cached_screen_exact_along_mixed_moves(moves):
    oracle, x0 = _hubbard(3, 2, 2, 2, 100.0)
    state = init_state(oracle, x0, rng=0)
    greedy = StrategyConfig(pick="greedy_ls", update="coord_ls")
    greedy3 = StrategyConfig(pick="greedy_ls", update="coord_ls", k=3, averaged=True)
    vec_ls = StrategyConfig(pick="grad_power", update="vec_ls", k=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SCREEN_MIN_DIM", 1)
        assert_sweep_is_exact(state)
        for move in moves:
            kind = move[0]
            cache = state._screen_cache
            if kind in ("creep", "jump"):
                _, where, size = move
                j = int(np.argmax(np.abs(state.x))) if size < 0 else where % state.dim
                state.apply_coordinate_delta(j, float(_nu_step(state.x[j], size * cache.drift)))
            elif kind == "greedy":
                step(state, greedy)
            elif kind == "greedy3":
                step(state, greedy3)
            elif kind == "vec_ls":
                step(state, vec_ls)
            elif kind == "pm":
                power_method_step(state)
            else:
                state.revalidate()
            if kind in ("vec_ls", "pm", "revalidate"):
                assert state._screen_cache is None
            elif state._screen_cache is not None:
                assert len(state._screen_cache.dirty) > 0
            kept = state._screen_cache is not None and abs(state.nu - cache.nu0) <= cache.drift
            assert_sweep_is_exact(state)
            assert (state._screen_cache is cache) == kept, kind
            assert not state._screen_cache.dirty
            assert_candidates_cover_survivors(state)


def test_screen_cache_costs_other_picks_nothing(small_synthetic):
    state = init_state(small_synthetic, np.eye(small_synthetic.dim)[0], rng=0)
    for config in (StrategyConfig(pick="gauss_southwell", update="coord_ls"),
                   StrategyConfig(pick="grad_power", update="coord_ls", k=2)):
        for _ in range(5):
            step(state, config)
        assert state._screen_cache is None


def documented_keys(nu, drift, scale, x, z, diag, d_share=0.5, p_share=0.5):
    """The module docstring's screen key with shares of the rounding margins:
    ``2 (|nu x - z| + drift |x| + d_share eta scale^1.5)^2
    / (nu - drift - p_share eta scale - x^2 - diag)``, NaN where the
    denominator is not positive."""
    eta = engine.SCREEN_ETA
    p = nu - drift - p_share * eta * scale - x * x - diag
    d = np.abs(nu * x - z) + drift * np.abs(x) + d_share * eta * scale ** 1.5
    return np.where(p > 0.0, 2.0 * d * d / p, np.nan)


def margin_state(margin):
    """x = 0, nu = 0 and s = 1, where coordinate 1 carries one margin: a
    gradient far below the |d| margin ``eta``, or a steep coordinate
    (|d| = 1, p = 0.01) whose key the p margin moves by about 100 eta against
    the |d| margin's 2 eta.  The other coordinates have smaller keys."""
    diag = np.array([-1.0, -0.01, -1.0, -1.0])
    z = np.array([0.0, 1e-20 if margin == "d" else -1.0, 0.0, 0.0])
    if margin == "d":
        diag[1] = -0.5
    return SolverState(DenseSymmetric(np.diag(diag)), np.zeros(4), z,
                       np.random.default_rng(0))


@pytest.mark.parametrize("margin", ["p", "d"])
def test_each_margin_keeps_a_first_stage_candidate(margin):
    """The cached keys carry both margins: at a bar of half-margin keys every
    coordinate stays a candidate, where a key without the margin falls below
    it on coordinate 1."""
    state = margin_state(margin)
    cache = engine._ScreenCache(state, abs(state.nu) + max_abs_diag(state.oracle))
    args = (cache.nu0, cache.drift, cache.scale_hi, state.x, state.z, state.oracle.diagonal)
    bar = documented_keys(*args)
    assert np.all(cache.keys >= bar)
    without = documented_keys(*args, d_share=float(margin == "p"), p_share=float(margin == "d"))
    assert without[1] < bar[1]


@pytest.mark.parametrize("margin", ["p", "d"])
def test_each_margin_keeps_a_second_stage_solve(margin):
    """The second stage solves coordinate 1 against an incumbent at its
    half-margin key, which a key without the margin would drop."""
    state = margin_state(margin)
    cache = state._screen_cache = engine._ScreenCache(
        state, abs(state.nu) + max_abs_diag(state.oracle))
    bar = documented_keys(state.nu, 0.0, cache.scale_hi, state.x, state.z,
                          state.oracle.diagonal)
    assert bar[1] > np.max(np.delete(bar, 1))  # coordinate 1 alone is live
    solved = {0: (-float(bar[1]), 0.0)}
    engine._best_first(state, 1, np.arange(state.dim), solved)
    assert 1 in solved


def test_stop_rule_keeps_ties_at_an_infinite_bar():
    """Two coordinates whose gains overflow to -inf, where every key is inf:
    the seed is the higher one (the larger |d|), so the best-first stage must
    go on at ``key == -G = inf`` to reach the lower index."""
    diag = np.array([-1.0, -1.22e73, -1.0, -1.22e73, -1.0, -0.5])
    x = np.array([0.0, -1e103, 0.0, -1e103, 0.0, 0.0])
    z = np.array([0.1, 1.94e229, 0.2, 3.88e229, 0.3, 0.1])
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(engine, "SCREEN_MIN_DIM", 1)
        state = SolverState(DenseSymmetric(np.diag(diag)), x, z, np.random.default_rng(0))
        state.nu = 0.002
        assert_sweep_is_exact(state)
        assert pick_greedy_ls(state, 1)[0].tolist() == [1]


def test_tiny_scales_are_not_screened():
    """Below 2^-300 the keys underflow (here to 0 against gains near -1e-220),
    so such states take the full sweep."""
    diag = np.full(6, -1e-110)
    z = np.array([1.0, 3.0, 2.0, 0.5, 3.0, 1.0]) * 1e-165
    state = SolverState(DenseSymmetric(np.diag(diag)), np.zeros(6), z,
                        np.random.default_rng(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SCREEN_MIN_DIM", 1)
        assert_sweep_is_exact(state)
    assert state._screen_cache is None


@st.composite
def tie_states(draw):
    """States for the best-first stage: blocks of exact duplicates at
    different indices, coordinates whose gains overflow to -inf (inf keys),
    NaN entries, and seeds drawn among any coordinates."""
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0)
    nu = float(x @ x) + 1.0
    diag = nu + rng.uniform(-3.0, 1.0, n)
    z = rng.standard_normal(n) + diag * x
    for _ in range(draw(st.integers(0, 4))):  # exact duplicates: gain ties
        src = int(rng.integers(n))
        for dst in rng.integers(0, n, size=draw(st.integers(1, 3))):
            x[dst], z[dst], diag[dst] = x[src], z[src], diag[src]
    for j in rng.choice(n, size=draw(st.integers(0, 2)), replace=False):
        x[j], z[j], diag[j] = -1e103, rng.choice([1.94e229, 3.88e229]), -1.22e73
    for _ in range(draw(st.integers(0, 1))):
        z[rng.integers(n)] = np.nan
    with np.errstate(all="ignore"):
        state = SolverState(DenseSymmetric(np.diag(diag)), x, z, np.random.default_rng(0))
    state.nu = nu
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=6, unique=True))
    return state, seeds


@settings(max_examples=300, deadline=None)
@given(case=tie_states(), k=st.integers(1, 3))
def test_best_first_matches_the_full_sweep(case, k):
    """From any seeds, the best-first stage returns the full sweep's k best by
    (gain, index), or None exactly where the sweep has a NaN gain."""
    state, seeds = case
    scale = abs(state.nu) + max_abs_diag(state.oracle)
    with np.errstate(all="ignore"):
        state._screen_cache = engine._ScreenCache(state, scale)
        solved = {j: engine._solve(state, j) for j in seeds}
        picked = engine._best_first(state, k, np.arange(state.dim), solved)
        b, c, d = coord_coeffs(state.nu, state.x, state.z, state.oracle.diagonal)
        gains = quartic_gain(cubic_min_roots(b, c, d), b, c, d)
        want = closed_form_sweep(state, k)
    if np.isnan(gains).any():
        assert picked is None
    else:
        assert (picked[0].tolist(), picked[1].tobytes()) == want


def test_best_first_orders_ties_by_index():
    """Three exact duplicates share the best gain; seeded from the highest,
    the stage returns them lowest index first, then the next gain."""
    x = np.array([0.0, 0.3, 0.0, 0.3, 0.0, 0.3, 0.1])
    diag = np.array([-1.0, -2.0, -1.0, -2.0, -1.0, -2.0, -2.0])
    z = np.array([0.0, -1.0, 0.1, -1.0, 0.0, -1.0, -0.9])
    state = SolverState(DenseSymmetric(np.diag(diag)), x, z, np.random.default_rng(0))
    state._screen_cache = engine._ScreenCache(state, abs(state.nu) + 2.0)
    for k, want in ((1, [1]), (3, [1, 3, 5]), (4, [1, 3, 5, 6])):
        solved = {5: engine._solve(state, 5), 0: engine._solve(state, 0),
                  2: engine._solve(state, 2), 4: engine._solve(state, 4)}
        rows, alphas = engine._best_first(state, k, np.arange(7), solved)
        assert rows.tolist() == want
        assert (rows.tolist(), alphas.tobytes()) == closed_form_sweep(state, k)


SIGNED_SCORES = st.sampled_from([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan]) | \
    st.floats(allow_nan=False, width=16)


@settings(max_examples=500, deadline=None)
@given(c=st.lists(SIGNED_SCORES, min_size=1, max_size=12))
def test_signed_gauss_southwell_is_argmax_abs(c):
    """The two-pass pick is ``argmax |c|`` on ±0, ±inf, NaN and ``max c ==
    -min c``; x = c, z = 0 and nu = 1 keep each score's sign and payload."""
    c = np.array(c)
    with np.errstate(all="ignore"):
        state = SolverState(DenseSymmetric(np.eye(c.size)), c.copy(), np.zeros(c.size),
                            np.random.default_rng(0))
    state.nu = 1.0
    assert pick_gauss_southwell(state) == int(np.argmax(np.abs(c)))


@pytest.mark.parametrize("c, want", [([-0.0, 0.0], 0), ([2.0, -2.0], 0), ([-2.0, 2.0], 0),
                                     ([1.0, -3.0, 3.0], 1), ([np.inf, -np.inf], 0),
                                     ([-np.inf, 5.0, np.inf], 0), ([1.0, np.nan, -5.0], 1),
                                     ([-1.0, -4.0, 2.0], 1), ([3.0, 1.0, -3.0], 0)])
def test_signed_gauss_southwell_edge_scores(c, want):
    c = np.array(c)
    with np.errstate(all="ignore"):
        state = SolverState(DenseSymmetric(np.eye(c.size)), c.copy(), np.zeros(c.size),
                            np.random.default_rng(0))
    state.nu = 1.0
    assert pick_gauss_southwell(state) == want == int(np.argmax(np.abs(c)))


def sequential_pick(c, t, draws):
    """The inverse-CDF pick by one sequential cumsum over the weights."""
    scores = np.abs(c)
    weights = scores / scores.max()
    if t == 2:
        weights = weights * weights
    elif t != 1:
        weights = weights ** t
    cum = np.cumsum(weights)
    return np.minimum(np.searchsorted(cum, draws * cum[-1], side="right"), c.size - 1)


class ChosenDraws:
    """Stands in for a generator: ``random(k)`` returns the next k values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k):
        out, self.values = np.array(self.values[:k]), self.values[k:]
        return out


def boundary_draws(rng, draw, c, t, k, at=None):
    """k draws: uniform, onto a cumulative boundary of the sequential weights
    at power t (at an index from ``at``, default any), next to one, or at
    the ends."""
    scores = np.abs(c) / np.abs(c).max()
    cum = np.cumsum(scores * scores if t == 2 else scores ** t)
    at = np.arange(c.size) if at is None else at
    draws = []
    for _ in range(k):
        where = cum[at[rng.integers(0, at.size)]] / cum[-1]
        draws.append(draw(st.sampled_from([
            float(rng.random()), float(rng.random()), float(rng.random()), where,
            float(np.nextafter(where, 0.0)), float(np.nextafter(where, 1.0)),
            0.0, float(np.nextafter(1.0, 0.0))])))
    return np.minimum(draws, np.nextafter(1.0, 0.0))


@st.composite
def sampled_scores(draw):
    """Scores with long zero runs, exact ties and magnitudes from 1e-300 to 1
    (subnormals too), at sizes around one and three blocks and the floor."""
    block, floor = 16, 40
    n = draw(st.sampled_from([block - 1, block, block + 1, floor - 1, floor,
                              floor + 1, 3 * floor - 1, 3 * floor, 3 * floor + 1,
                              200, 517]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 0.0, n)
    for _ in range(draw(st.integers(0, 3))):  # zero runs
        lo = int(rng.integers(0, n))
        c[lo:lo + int(rng.integers(1, n))] = 0.0
    for _ in range(draw(st.integers(0, 8))):  # exact ties
        c[rng.integers(0, n)] = c[rng.integers(0, n)]
    for _ in range(draw(st.integers(0, 4))):
        c[rng.integers(0, n)] = draw(st.sampled_from([5e-324, 2.5e-310, 1e-200, 1.0]))
    if draw(st.booleans()):  # a head of subnormal scores, where dividing by
        head = int(rng.integers(1, n))  # max|c| rounds in absolute terms
        c[:head] = rng.integers(0, 400, head) * 5e-324
        if draw(st.booleans()):  # and one large score after it: the total is near 1
            c[head:] = 0.0
            c[rng.integers(head, n)] = rng.uniform(0.5, 1.0)
    if not np.any(c):
        c[rng.integers(0, n)] = 1.0
    t = draw(st.sampled_from([1.0, 2.0, 0.5, 7.0]))
    k = draw(st.sampled_from([1, 3]))
    return block, floor, c, t, boundary_draws(rng, draw, c, t, k)


@settings(max_examples=400, deadline=None)
@given(case=sampled_scores())
def test_certified_pick_matches_sequential_cumsum(case):
    block, floor, c, t, draws = case
    state = scores_state(c)
    state.rng = ChosenDraws(draws)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SAMPLE_BLOCK", block)
        mp.setattr(engine, "SAMPLE_MIN_DIM", floor)
        picks = pick_grad_power(state, t, draws.size)
    assert picks.tolist() == sequential_pick(c, t, draws).tolist()
    assert state.rng.values == []


def test_certified_pick_on_subnormal_boundaries(monkeypatch):
    """Draws onto the cumulative boundaries of a subnormal head before one
    large score: each division by max|c| there rounds by up to half the
    smallest subnormal, which only the margin's absolute part covers."""
    monkeypatch.setattr(engine, "SAMPLE_BLOCK", 16)
    monkeypatch.setattr(engine, "SAMPLE_MIN_DIM", 16)
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(16, 80))
        head = int(rng.integers(2, n))
        c = np.zeros(n)
        c[:head] = rng.integers(0, 400, head) * 5e-324
        c[rng.integers(head, n)] = rng.uniform(0.5, 1.0)
        cum = np.cumsum(np.abs(c) / np.abs(c).max())
        draws = cum[rng.integers(0, head, size=1)] / cum[-1]
        state = scores_state(c)
        state.rng = ChosenDraws(draws)
        assert pick_grad_power(state, 1.0).tolist() == sequential_pick(c, 1.0, draws).tolist()


@pytest.mark.parametrize("t", [1.0, 2.0, 0.5, 7.0])
def test_certified_front_decides_uniform_draws(t):
    """Off the boundaries the front answers by itself, with the same picks."""
    rng = np.random.default_rng(40)
    for n in (2000, 5003):
        c = rng.standard_normal(n) * (rng.random(n) < 0.7)
        draws = rng.random(3)
        top = np.abs(c).max()
        values = np.zeros(-(-n // engine.SAMPLE_BLOCK) * engine.SAMPLE_BLOCK)
        values[:n] = np.abs(c) if t == 1 else (np.abs(c) / top) ** t
        picks = engine._certified_draws(values, engine._block_ends(values), draws)
        assert picks is not None
        assert picks.tolist() == sequential_pick(c, t, draws).tolist()


UNSCALED_KINDS = ("overflow", "subnormal", "far-top", "equal")


def unscaled_case(rng, kind, n, block):
    """Scores the t = 1 certificate sums without dividing by max|c|, and the
    indices whose boundaries the draws should hit."""
    at = None
    if kind == "overflow":  # finite scores, an infinite total
        c = rng.uniform(0.0, 1.0, n) * 2.0 ** 1022
        c[rng.integers(0, n)] = np.finfo(float).max
    elif kind == "subnormal":  # the total, and r T, round in absolute terms
        c = rng.integers(0, 2 ** int(rng.integers(1, 50)), n) * 5e-324
        if rng.random() < 0.5:  # or sums just past the normal range
            c += rng.uniform(0.0, 2.0 ** -1021 / n, n)
        c[rng.integers(0, n)] += 5e-324
    elif kind == "far-top":  # max|c| in the last block, the draws before it
        if rng.random() < 0.5:  # weights that round into the subnormal range
            c = rng.integers(0, 400, n) * 5e-324
        else:
            c = 10.0 ** rng.uniform(-320.0, -1.0, n)
        c[rng.integers(n - block, n)] = rng.uniform(0.5, 1.0)
        at = np.arange(n - block)
    else:
        c = np.full(n, rng.choice([1.0, 3.0, 0.1, 1e-310, 7e300]))
    return c * rng.choice([-1.0, 1.0], n), at


@st.composite
def unscaled_scores(draw):
    block = 16
    kind = draw(st.sampled_from(UNSCALED_KINDS))
    n = draw(st.sampled_from([block, block + 1, 3 * block - 1, 3 * block, 5 * block + 3]))
    if kind == "far-top":
        n = max(n, 2 * block)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, at = unscaled_case(rng, kind, n, block)
    k = draw(st.sampled_from([1, 3]))
    return block, c, boundary_draws(rng, draw, c, 1.0, k, at)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None)
@given(case=unscaled_scores())
def test_unscaled_certificate_matches_sequential_pick(case):
    """At t = 1 the certificate reads no max|c|; the sequential sampler,
    which divides by it, picks the same coordinates."""
    block, c, draws = case
    state = scores_state(c)
    state.rng = ChosenDraws(draws)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SAMPLE_BLOCK", block)
        mp.setattr(engine, "SAMPLE_MIN_DIM", block)
        picks = pick_grad_power(state, 1.0, draws.size)
    assert picks.tolist() == sequential_pick(c, 1.0, draws).tolist()
    assert state.rng.values == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", UNSCALED_KINDS)
def test_unscaled_certificate_decides_off_boundaries(monkeypatch, kind):
    """Uniform draws on each kind of scores: the certificate decides them
    (none when the total overflows), with the sequential sampler's picks."""
    block = 16
    monkeypatch.setattr(engine, "SAMPLE_BLOCK", block)
    rng = np.random.default_rng(43)
    decided = 0
    for _ in range(200):
        c, _ = unscaled_case(rng, kind, 5 * block + 3, block)
        values = np.zeros(6 * block)
        values[:c.size] = np.abs(c)
        draws = rng.random(2)
        picks = engine._certified_draws(values, engine._block_ends(values), draws)
        if picks is not None:
            decided += 1
            assert picks.tolist() == sequential_pick(c, 1.0, draws).tolist()
    assert decided == 0 if kind == "overflow" else decided >= 180


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["block", "running"])
def test_overflowing_total_falls_back_without_a_warning(where):
    """Finite scores whose total passes the float range, in one block's sum or
    only in the running sum of finite block sums: the t = 1 pick falls back
    to the sequential search, and numpy reports no overflow."""
    rng = np.random.default_rng(47)
    n = 2_000
    if where == "block":
        c, _ = unscaled_case(rng, "overflow", n, engine.SAMPLE_BLOCK)
    else:
        c = rng.uniform(0.5, 1.0, n) * (np.finfo(float).max / engine.SAMPLE_BLOCK)
    values = np.zeros(-(-n // engine.SAMPLE_BLOCK) * engine.SAMPLE_BLOCK)
    values[:n] = np.abs(c)
    block_sums = [sum(part) for part in values.reshape(-1, engine.SAMPLE_BLOCK).tolist()]
    assert (max(block_sums) == math.inf) is (where == "block")
    assert engine._block_ends(values)[-1] == math.inf
    draws = rng.random(3)
    state = scores_state(c)
    state.rng = ChosenDraws(draws)
    assert pick_grad_power(state, 1.0, draws.size).tolist() == \
        sequential_pick(c, 1.0, draws).tolist()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("c", [np.zeros(40), np.r_[np.ones(39), np.nan],
                               np.r_[np.ones(39), np.inf]], ids=["zero", "nan", "inf"])
def test_stationary_total_draws_nothing(monkeypatch, c):
    """A zero or non-finite total with no finite nonzero max|c| stops the
    certified pick before it draws."""
    monkeypatch.setattr(engine, "SAMPLE_BLOCK", 16)
    monkeypatch.setattr(engine, "SAMPLE_MIN_DIM", 16)
    state = scores_state(c)
    state.rng = ChosenDraws([0.5])
    with pytest.raises(StationaryIterate):
        pick_grad_power(state, 1.0)
    assert state.rng.values == [0.5]


def test_draw_margins_cover_the_error_budget():
    """The certified draw's margins, as floats, against the module
    docstring's error budget in exact arithmetic."""
    u, eta = Fraction(1, 2**53), Fraction(1, 2**1075)
    for n in (16, 256, 19_712, 2**20):
        g = n * u / (1 - n * u)
        r1 = (1 + u) / (1 - 2 * n * u)
        r2 = (1 - u) ** 2 * (1 - 2 * n * u) / (1 + u)
        r3 = (1 - u) * (1 - 2 * n * u)
        r4 = (1 + u) ** 2 / ((1 - u) * (1 - 2 * n * u))
        assert r1 == (1 + u) * (1 + g) / (1 - g)
        assert r4 == (1 + u) ** 2 * (1 + g) / ((1 - u) * (1 - g))
        rho = max(r1 - 1, 1 - r2, 1 - r3, r4 - 1)
        for total in (5e-324, 2.0**-1060, 1e-300, 1.0, float(n), 1e300,
                      float(np.finfo(float).max)):
            eps, tau = engine._draw_margins(n, total)
            assert Fraction(eps) * (1 - u) ** 3 / (1 + u) >= rho
            top = Fraction(total) / (1 - g)  # M <= V <= T / (1 - gamma)
            a_l = ((2 + g) * n + 1) * eta * top + r2 * eta
            a_r = ((2 + u + g + u * g) * n + 1) * eta * top + r4 * eta
            assert (Fraction(tau) - eta) * (1 - u) / (1 + u) >= max(a_l, a_r)


@pytest.mark.parametrize("method", ["SCD-Grad-LS(1)", "SCD-Grad-LS(2)"])
def test_sampled_run_matches_sequential_pick(monkeypatch, method):
    """A whole SCD-Grad-LS run with the front forced on ends where a run
    drawing with the sequential cumsum ends: iterations, nu and generator."""
    oracle, x0 = _hubbard(4, 2, 2, 2, 100.0)
    reference = compute_reference(oracle)
    config = parse_method(method)
    states = []

    def capture(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    def sequential(state, t, k=1, with_replacement=True):
        c = state.nu * state.x - state.z
        if not np.any(c):
            raise StationaryIterate("gradient scores all zero")
        return sequential_pick(c, t, state.rng.random(k))

    monkeypatch.setattr(harness, "init_state", capture)
    monkeypatch.setattr(engine, "SAMPLE_BLOCK", 16)
    monkeypatch.setattr(engine, "SAMPLE_MIN_DIM", 16)
    decided = []
    front = engine._certified_draws

    def counting(*args):
        decided.append(front(*args))
        return decided[-1]

    monkeypatch.setattr(engine, "_certified_draws", counting)
    runs = [harness.run_single(oracle, config, x0, 1e-6, 10**9, 7, reference)]
    monkeypatch.setattr(engine, "pick_grad_power", sequential)
    runs.append(harness.run_single(oracle, config, x0, 1e-6, 10**9, 7, reference))
    certified, plain = runs
    assert certified.status == plain.status == "converged"
    assert certified.iterations == plain.iterations
    assert np.float64(certified.final_nu).tobytes() == np.float64(plain.final_nu).tobytes()
    assert states[0].rng.bit_generator.state == states[1].rng.bit_generator.state
    assert len(decided) == certified.iterations
    assert sum(picks is not None for picks in decided) >= 0.99 * len(decided)


@pytest.fixture
def applied(monkeypatch):
    """Every ``(j, delta)`` that ``apply_coordinate_delta`` receives."""
    calls = []
    original = SolverState.apply_coordinate_delta

    def record(self, j, alpha):
        calls.append((j, alpha))
        original(self, j, alpha)

    monkeypatch.setattr(SolverState, "apply_coordinate_delta", record)
    return calls


class TestStep:
    def test_cyclic_grad_reproduces_update_rule(self, small_synthetic):
        gamma = stepsize_bound(small_synthetic)
        state = fresh_state(small_synthetic, 0.05 * np.ones(30))
        config = StrategyConfig(pick="cyclic", update="fixed_grad", gamma=gamma)
        for ell in range(65):
            j = state.ell % 30
            expect = state.x[j] - gamma * (-4.0 * state.z[j] + 4.0 * state.nu * state.x[j])
            step(state, config)
            assert state.x[j] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("pick", ["gauss_southwell", "greedy_ls"])
    def test_line_search_monotone(self, small_synthetic, pick):
        rng = np.random.default_rng(12)
        state = fresh_state(small_synthetic, rng.standard_normal(30))
        config = StrategyConfig(pick=pick, update="coord_ls")
        f_prev = dense_objective(small_synthetic.array, state.x)
        for _ in range(10_000):
            step(state, config)
            f_now = dense_objective(small_synthetic.array, state.x)
            assert f_now <= f_prev + 1e-12 * (1.0 + abs(f_prev))
            f_prev = f_now

    def test_averaged_batch_monotone(self, small_synthetic):
        state = fresh_state(small_synthetic,
                            np.random.default_rng(13).standard_normal(30), seed=13)
        config = StrategyConfig(pick="grad_power", update="coord_ls", t=1.0,
                                k=4, averaged=True)
        f_prev = dense_objective(small_synthetic.array, state.x)
        for _ in range(2000):
            step(state, config)
            f_now = dense_objective(small_synthetic.array, state.x)
            assert f_now <= f_prev + 1e-12 * (1.0 + abs(f_prev))
            f_prev = f_now

    def test_access_accounting_exact(self, small_synthetic):
        for config in (StrategyConfig(pick="grad_power", update="coord_ls", t=1.0, k=4),
                       StrategyConfig(pick="grad_power", update="vec_ls", t=0.0, k=8),
                       StrategyConfig(pick="greedy_ls", update="coord_ls")):
            state = fresh_state(small_synthetic, np.eye(30)[0], seed=14)
            base = small_synthetic.access_count
            for _ in range(57):
                step(state, config)
            assert small_synthetic.access_count - base == 57 * config.k

    def test_coord_ls_zeroes_picked_gradient(self, small_synthetic, applied):
        rng = np.random.default_rng(15)
        state = fresh_state(small_synthetic, rng.standard_normal(30), seed=15)
        config = StrategyConfig(pick="grad_power", update="coord_ls", t=1.0)
        for i in range(200):
            step(state, config)
            assert len(applied) == i + 1
            j = applied[-1][0]
            scale = 1.0 + abs(state.nu)
            assert abs(state.nu * state.x[j] - state.z[j]) < 1e-8 * scale

    @pytest.mark.parametrize("name,k", [("SCD-Uni-Grad", 3), ("CD-Cyc-Grad", 1)])
    def test_fixed_grad_deltas_match_full_scores(self, small_synthetic, name, k,
                                                 applied):
        config = parse_method(name, k=k, gamma=stepsize_bound(small_synthetic))
        state = fresh_state(small_synthetic,
                            np.random.default_rng(19).standard_normal(30), seed=19)
        for _ in range(100):
            c = state.nu * state.x - state.z
            applied.clear()
            step(state, config)
            assert len(applied) == k
            indices, deltas = zip(*applied)
            expect = -config.gamma * 4.0 * c[list(indices)]
            assert np.array(deltas).tobytes() == expect.tobytes()

    def test_stationary_signal_propagates(self, small_synthetic):
        state = fresh_state(small_synthetic, np.zeros(30))
        base = small_synthetic.access_count
        with pytest.raises(StationaryIterate):
            step(state, StrategyConfig(pick="grad_power", update="coord_ls", t=1.0))
        assert small_synthetic.access_count == base
        assert state.ell == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StrategyConfig(pick="greedy_ls", update="vec_ls").validate()
        with pytest.raises(ValueError):
            StrategyConfig(pick="cyclic", update="coord_ls", k=2).validate()
        with pytest.raises(ValueError):
            StrategyConfig(pick="cyclic", update="fixed_grad").validate()  # no gamma
        with pytest.raises(ValueError):
            StrategyConfig(pick="nope", update="coord_ls").validate()


# method -> (k, runs ignore their seed, column accesses per iteration at n = 30)
METHOD_ACCOUNTING = {
    "CD-Cyc-Grad": (1, True, 1),
    "CD-Cyc-LS": (1, True, 1),
    "GCD-Grad-LS": (1, True, 1),
    "GCD-LS-LS": (3, True, 3),
    "SCD-Grad-LS": (3, False, 3),
    "SCD-Grad-vecLS": (3, False, 3),
    "SCD-Uni-LS": (3, False, 3),
    "SCD-Uni-Grad": (3, False, 3),
    "Grad-vecLS": (1, True, 30),
    "PM": (1, True, 30),
}


class TestStrategyAccounting:
    def test_table_covers_every_method(self):
        assert set(METHOD_ACCOUNTING) == set(METHOD_TABLE)

    @pytest.mark.parametrize("name", sorted(METHOD_TABLE))
    def test_deterministic_and_columns_per_step(self, small_synthetic, name):
        k, deterministic, per_step = METHOD_ACCOUNTING[name]
        fixed_step = METHOD_TABLE[name][1] == "fixed_grad"  # only these read gamma
        config = parse_method(name, k=k,
                              gamma=stepsize_bound(small_synthetic) if fixed_step else None)
        assert config.deterministic is deterministic
        assert config.columns_per_step(30) == per_step
        # both facts hold for real iterations: 4 steps charge 4 * per_step,
        # and two seeds reach the same iterate exactly when deterministic
        finals = []
        for seed in (0, 1):
            state = fresh_state(small_synthetic, np.eye(30)[0] + 0.1, seed=seed)
            base = small_synthetic.access_count
            for _ in range(4):
                step(state, config)
            assert small_synthetic.access_count - base == 4 * per_step
            finals.append(state.x.copy())
        assert np.array_equal(*finals) is deterministic


def vec_ls_step(monkeypatch, state, omega):
    """One SCD-Grad-vecLS step along the gradient restricted to the distinct
    indices ``omega``, which stand in for the sampled pick."""
    monkeypatch.setattr(engine, "pick_grad_power", lambda *args: np.asarray(omega))
    step(state, StrategyConfig(pick="grad_power", update="vec_ls", k=len(omega)))


class TestVecLS:
    def test_single_coordinate_matches_coord_ls(self, small_synthetic, monkeypatch):
        rng = np.random.default_rng(16)
        for _ in range(30):
            x = rng.standard_normal(30)
            state = fresh_state(small_synthetic, x)
            j = int(rng.integers(30))
            cj = state.nu * state.x[j] - state.z[j]
            if cj == 0.0:
                continue
            alpha_coord = solve_cubic_min(coord_cubic(state, j))
            vec_ls_step(monkeypatch, state, [j])
            assert state.x[j] - x[j] == pytest.approx(alpha_coord, abs=1e-10)

    def test_full_direction_is_steepest_descent(self, small_synthetic):
        rng = np.random.default_rng(17)
        a = small_synthetic.array
        x = rng.standard_normal(30)
        state = fresh_state(small_synthetic, x)
        base = small_synthetic.access_count
        step(state, StrategyConfig(pick="all", update="vec_ls"))
        assert small_synthetic.access_count - base == 30
        # exhaustive scan along the full gradient direction
        g = 4.0 * (float(x @ x) * x - a @ x)
        scan = np.linspace(-0.1, 0.1, 200_001)
        gains = [dense_objective(a, x + t * g) for t in scan[::1000]]
        best_t = scan[::1000][int(np.argmin(gains))]
        f_new = dense_objective(a, state.x)
        assert f_new <= dense_objective(a, x + best_t * g) + 1e-8

    def test_derivative_vanishes_at_optimum(self, small_synthetic, monkeypatch):
        rng = np.random.default_rng(18)
        a = small_synthetic.array
        for _ in range(100):
            x = rng.standard_normal(30)
            state = fresh_state(small_synthetic, x)
            omega = np.unique(rng.integers(0, 30, size=5))
            v = np.zeros(30)
            v[omega] = 4.0 * (state.nu * x[omega] - (a @ x)[omega])
            charged = small_synthetic.access_count
            vec_ls_step(monkeypatch, state, omega)
            assert small_synthetic.access_count - charged == omega.size
            moved, h = state.x, 1e-6
            slope = (dense_objective(a, moved + h * v)
                     - dense_objective(a, moved - h * v)) / (2 * h)
            scale = 1.0 + abs(dense_objective(a, x))
            assert abs(slope) < 1e-8 * scale * max(1.0, float(v @ v))


class TestLocalDecrease:
    def test_sufficient_decrease_inside_ball(self, small_synthetic):
        # exact line search drops f by at least grad_j^2 / (2L) near minima
        from eigencd.landscape import constants
        vals, vecs = np.linalg.eigh(small_synthetic.array)
        cons = constants(small_synthetic, vals[-1], vals[-2])
        center = np.sqrt(vals[-1]) * vecs[:, -1]
        rng = np.random.default_rng(30)
        for _ in range(100):
            d = rng.standard_normal(30)
            d *= rng.uniform(0, 0.5 * cons.ball_radius) / np.linalg.norm(d)
            x = center + d
            state = fresh_state(small_synthetic, x)
            j = int(rng.integers(30))
            grad_j = 4.0 * (state.nu * x[j] - state.z[j])
            f_old = dense_objective(small_synthetic.array, x)
            state.apply_coordinate_delta(j, solve_cubic_min(coord_cubic(state, j)))
            f_new = dense_objective(small_synthetic.array, state.x)
            bound = f_old - grad_j**2 / (2.0 * cons.lipschitz)
            assert f_new <= bound + 1e-10 * (1.0 + abs(f_old))

    def test_incremental_objective_matches_fresh(self, small_synthetic):
        # the O(1) objective from cached scalars tracks the dense evaluation
        rng = np.random.default_rng(31)
        frob = float(np.sum(small_synthetic.array**2))
        state = fresh_state(small_synthetic, rng.standard_normal(30), seed=31)
        config = StrategyConfig(pick="grad_power", update="coord_ls", t=1.0)
        for i in range(300):
            step(state, config)
            if i % 30 == 29:  # revalidation cadence
                cached = frob - 2.0 * state.s + state.nu * state.nu
                fresh = dense_objective(small_synthetic.array, state.x)
                assert cached == pytest.approx(fresh, rel=1e-6)


class TestPowerMethod:
    def test_two_by_two_direction(self):
        a = DenseSymmetric(np.diag([2.0, 1.0]))
        state = fresh_state(a, np.array([1.0, 1.0]) / np.sqrt(2.0))
        power_method_step(state)
        direction = state.z / np.linalg.norm(state.z)
        assert np.allclose(direction, np.array([2.0, 1.0]) / np.sqrt(5.0))

    def test_costs_n_accesses(self, small_synthetic):
        state = fresh_state(small_synthetic, np.eye(30)[0])
        base = small_synthetic.access_count
        for _ in range(7):
            power_method_step(state)
        assert small_synthetic.access_count - base == 7 * 30

    def test_step_runs_the_power_method(self, small_synthetic):
        x0 = np.eye(30)[0] + 0.1
        direct, stepped = (fresh_state(small_synthetic, x0) for _ in range(2))
        for _ in range(5):
            power_method_step(direct)
            step(stepped, StrategyConfig(pick="pm", update="coord_ls"))
        for name in ("x", "z"):
            assert getattr(stepped, name).tobytes() == getattr(direct, name).tobytes()
        assert (stepped.nu, stepped.s, stepped.ell) == (direct.nu, direct.s, direct.ell)

    def test_rayleigh_scaling_tracks_eigenvalue(self, small_synthetic):
        vals = np.linalg.eigvalsh(small_synthetic.array)
        state = fresh_state(small_synthetic, np.eye(30)[0])
        for _ in range(400):
            power_method_step(state)
        assert state.nu == pytest.approx(vals[-1], rel=1e-6)


class TestStepsizeBound:
    def test_identity(self):
        assert stepsize_bound(DenseSymmetric(np.eye(3))) == pytest.approx(1.0 / 28.0)

    def test_one_by_one(self):
        assert stepsize_bound(DenseSymmetric(np.array([[4.0]]))) == pytest.approx(1.0 / 80.0)

    def test_iterates_stay_in_box(self):
        a = build_synthetic(SpectrumSpec.gapped_grid(50, 3.0, 0.2, 1.0, seed=19))
        gamma = stepsize_bound(a)
        r_sq = 1.0 / (4.0 * 54 * gamma)
        r = np.sqrt(r_sq)
        rng = np.random.default_rng(20)
        x0 = rng.standard_normal(50)
        x0 *= 0.9 * r / np.abs(x0).max()
        state = fresh_state(a, x0)
        config = StrategyConfig(pick="cyclic", update="fixed_grad", gamma=gamma)
        for _ in range(20_000):
            step(state, config)
            assert np.abs(state.x).max() < r


# The column-by-column power step, apply_coordinate_delta on numpy scalars
# with a fancy-index add, and the one-element-array k = 1 step: the code that
# the bulk add_columns, the np.add.at scatter and the scalar step replaced,
# kept here as references.  The new paths must reproduce them bit for bit on
# the same host; no recorded bits are compared, since the dense operands and
# the dot products go through BLAS.
def _fancy_add(oracle, j, coeff, out):
    rows, vals = oracle.column(j)
    if coeff != 0.0:
        if rows is None:
            out += coeff * vals
        else:
            out[rows] += coeff * vals


def _loop_power_step(state, shift=None):
    """With ``shift = (a, b, base)`` for the oracle ``a * base + b * I``, w is
    ``a * (the base's column loop) + b * u``: a full sweep through a shift of
    an assembled operator adds the base's product, not the shifted columns."""
    src = state.z if state.ell > 0 else state.x
    u = src / float(np.sqrt(src @ src))
    w = np.zeros(state.dim)
    looped = state.oracle if shift is None else shift[2]
    for j in range(state.dim):
        _fancy_add(looped, j, u[j], w)
    if shift is not None:
        w = shift[0] * w + shift[1] * u
    rayleigh = float(u @ w)
    scale = np.sqrt(rayleigh) if rayleigh > 0 else 1.0
    state.x = scale * u
    state.z = scale * w
    state.nu = scale * scale
    state.s = scale * scale * rayleigh
    state.ell += 1


def _array_apply(state, j, alpha):
    x = state.x
    xj_old, zj_old = x[j], state.z[j]
    _fancy_add(state.oracle, j, alpha, state.z)
    x[j] = xj_old + alpha
    state.nu += alpha * (2.0 * xj_old + alpha)
    state.s += alpha * (2.0 * zj_old + alpha * state.oracle.diag(j))
    state._applies += 1
    if state._applies % state.dim == 0:
        state.revalidate()


def _array_step(state, config):
    assert config.k == 1 and config.pick in ("cyclic", "gauss_southwell", "grad_power")
    if config.pick == "cyclic":
        indices = np.array([pick_cyclic(state)])
    elif config.pick == "gauss_southwell":
        indices = np.array([pick_gauss_southwell(state)])
    else:
        indices = pick_grad_power(state, config.t, 1, config.with_replacement)
    if config.update == "fixed_grad":
        deltas = -config.gamma * 4.0 * (state.nu * state.x[indices] - state.z[indices])
    else:
        deltas = np.array([solve_cubic_min(coord_cubic(state, int(j))) for j in indices])
    for j, delta in zip(indices, deltas):
        _array_apply(state, int(j), float(delta))
    state.ell += 1


def _power_oracle(kind):
    """The operator, the seed of x0, and for a shift ``(a, b, base)``."""
    if kind == "hubbard":  # as 100 I - H, so the Rayleigh quotient is positive
        base = HubbardOracle(LatticeSpec(l1=3, l2=2, n_up=2, n_down=1))
        return shift_scale(base, -1.0, 100.0), 3, (-1.0, 100.0, base)
    return build_synthetic(SpectrumSpec.gapped_grid(40, 12.0, 0.5, 8.0, seed=3)), 4, None


@pytest.mark.parametrize("kind", ["dense", "hubbard"])
def test_power_steps_match_the_column_loop(kind):
    oracle, seed, shift = _power_oracle(kind)
    x0 = np.random.default_rng(seed).standard_normal(oracle.dim)
    bulk, loop = init_state(oracle, x0, rng=0), init_state(oracle, x0, rng=0)
    for _ in range(5):
        power_method_step(bulk)
        _loop_power_step(loop, shift)
        assert bulk.nu != 1.0  # the Rayleigh scaling ran
        assert float(bulk.nu).hex() == float(loop.nu).hex()
        assert float(bulk.s).hex() == float(loop.s).hex()
        assert bulk.x.tobytes() == loop.x.tobytes()
        assert bulk.z.tobytes() == loop.z.tobytes()


@pytest.mark.parametrize("shifted", [False, True], ids=["hubbard", "shift-hubbard"])
def test_full_gradient_vec_ls_step_is_one_sweep(shifted, monkeypatch):
    """A Grad-vecLS step on an assembled operator (Hubbard 4x4 2+2) reads no
    column and charges n; on the bare operator it is the column loop's step
    bit for bit, on a shift within roundoff of it."""
    base = HubbardOracle(LatticeSpec(l1=4, l2=4, n_up=2, n_down=2))
    oracle = shift_scale(base, -1.0, 100.0) if shifted else base
    x0 = np.random.default_rng(6).standard_normal(oracle.dim)
    swept, looped = init_state(oracle, x0, rng=0), init_state(oracle, x0, rng=0)
    config = StrategyConfig(pick="all", update="vec_ls")

    def refuse(self, j):
        raise AssertionError(f"column {j} read by a full sweep")

    with monkeypatch.context() as mp:
        mp.setattr(ColumnOracle, "column", refuse)
        before = oracle.access_count
        step(swept, config)
        assert oracle.access_count - before == oracle.dim
    monkeypatch.setattr(type(oracle), "_product", ColumnOracle._product)
    before = oracle.access_count
    step(looped, config)
    assert oracle.access_count - before == oracle.dim
    assert not np.array_equal(swept.x, x0)
    if shifted:
        np.testing.assert_allclose(swept.x, looped.x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(swept.z, looped.z, rtol=1e-12, atol=1e-12)
    else:
        assert swept.x.tobytes() == looped.x.tobytes()
        assert swept.z.tobytes() == looped.z.tobytes()
        assert float(swept.nu).hex() == float(looped.nu).hex()


@pytest.fixture(scope="module", params=["dense", "hubbard"])
def pinned_problem(request):
    if request.param == "hubbard":
        oracle, x0 = _hubbard(4, 2, 2, 2, 100.0)
    else:
        oracle = build_synthetic(SpectrumSpec.gapped_grid(500, 108.0, 1.0, 100.0, seed=42))
        x0 = np.eye(500)[0]
    return oracle, x0, compute_reference(oracle)


@pytest.mark.parametrize("method", ["SCD-Grad-LS(1)", "GCD-Grad-LS", "CD-Cyc-LS",
                                    "CD-Cyc-Grad"])
def test_one_coordinate_runs_match_the_array_step(pinned_problem, method, monkeypatch):
    # seeded runs to convergence (CD-Cyc-Grad's safe stepsize to a budget)
    oracle, x0, reference = pinned_problem
    config = parse_method(method)
    if config.update == "fixed_grad":
        config = dataclasses.replace(config, gamma=stepsize_bound(oracle))
    states = []

    def capture(*args, **kwargs):
        states.append(init_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(harness, "init_state", capture)
    runs = []
    for stepper in (step, _array_step):
        monkeypatch.setattr(harness, "step", stepper)
        out = harness.run_single(oracle, config, x0, 1e-5, 40_000, 11, reference)
        runs.append((out.status, out.iterations, out.col_accesses,
                     float(out.final_nu).hex(), states[-1].x.tobytes(),
                     states[-1].z.tobytes(), states[-1].rng.bit_generator.state))
    assert runs[0] == runs[1]
    assert runs[0][0] == ("budget" if config.update == "fixed_grad" else "converged")
