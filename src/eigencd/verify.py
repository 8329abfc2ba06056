"""Fast self-check suites behind ``eigencd verify``.

Each suite re-derives solver quantities through independent routes (finite
differences, dense algebra, brute-force scans) at small sizes and returns a
list of (name, passed, detail) rows.  The full statistical reproductions
live in the test suite; this command is the quick smoke screen.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine, landscape
from .harness import compute_reference
from .operators import SpectrumSpec, build_synthetic, shift_scale

CheckRow = tuple[str, bool, str]


def _fd_gradient(a: np.ndarray, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (landscape.objective_dense(a, x + e)
                  - landscape.objective_dense(a, x - e)) / (2 * h)
    return out


def landscape_suite(seed: int = 0) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows: list[CheckRow] = []

    a = build_synthetic(SpectrumSpec.gapped_grid(20, 12.0, 0.5, 8.0, seed=seed)).array
    x = rng.standard_normal(20)
    z = a @ x
    g = landscape.gradient(x, z, float(x @ x))
    fd = _fd_gradient(a, x)
    err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
    rows.append(("gradient matches finite differences", err < 1e-6, f"rel err {err:.2e}"))

    vals, vecs = np.linalg.eigh(a)
    lam1, v1 = vals[-1], vecs[:, -1]
    saddle = landscape.stationary_point(vals[-2], vecs[:, -2])
    gnorm = np.linalg.norm(landscape.gradient(saddle, a @ saddle, float(saddle @ saddle)))
    rows.append(("saddle rays are stationary", gnorm < 1e-8, f"|grad| {gnorm:.2e}"))

    hv = landscape.hessian_apply(a, saddle, v1)
    expect = 4.0 * (vals[-2] - lam1) * v1
    herr = np.linalg.norm(hv - expect)
    rows.append(("unstable direction at saddles", herr < 1e-8 * abs(lam1),
                 f"err {herr:.2e}"))

    small = build_synthetic(SpectrumSpec.gapped_grid(6, 5.0, 0.3, 2.0, seed=seed + 1)).array
    points = landscape.multistart_second_order_points(small, n_starts=40, seed=seed)
    svals, svecs = np.linalg.eigh(small)
    target = landscape.stationary_point(svals[-1], svecs[:, -1])
    ok = bool(points) and all(
        min(np.linalg.norm(p - target), np.linalg.norm(p + target)) < 1e-5
        for p in points)
    rows.append(("multistart descent finds only global minima", ok,
                 f"{len(points)} distinct second-order points"))
    return rows


def engine_suite(seed: int = 1) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows: list[CheckRow] = []

    a = build_synthetic(SpectrumSpec.gapped_grid(30, 9.0, 0.2, 5.0, seed=seed))
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(30)
        state = engine.init_state(a, x)
        j = int(rng.integers(30))
        coeffs = engine.coord_cubic(state, j)
        alpha = engine.solve_cubic_min(coeffs)
        # h(a) = f(x + a e_j) - f(x) = a^4 + 4/3 b a^3 + 2 c a^2 + 4 d a
        gain = np.array([1.0, 4.0 / 3.0 * coeffs.b, 2.0 * coeffs.c, 4.0 * coeffs.d, 0.0])
        slope, curvature = np.polyder(gain), np.polyder(gain, 2)
        grid = np.linspace(-12.0, 12.0, 4001)
        best = float(grid[int(np.argmin(np.polyval(gain, grid)))])
        for _ in range(2):  # Newton on h'(a) = 0
            best -= float(np.polyval(slope, best) / np.polyval(curvature, best))
        worst = max(worst, engine.delta_f(alpha, coeffs)
                    - engine.delta_f(best, coeffs))
    rows.append(("coordinate line search beats grid+Newton scan", worst <= 1e-8,
                 f"max gain gap {worst:.2e}"))

    state = engine.init_state(a, rng.standard_normal(30), rng=seed)
    f_prev = landscape.objective(a.array, state.x, 0.0)
    config = engine.StrategyConfig(pick="grad_power", update="coord_ls", t=1.0)
    monotone = True
    for _ in range(2000):
        try:
            engine.step(state, config)
        except engine.StationaryIterate:
            break  # every score is zero: no later step can move
        f_now = landscape.objective(a.array, state.x, 0.0)
        if f_now > f_prev + 1e-12 * (1.0 + abs(f_prev)):
            monotone = False
            break
        f_prev = f_now
    rows.append(("exact line search never increases f", monotone, f"{state.ell} steps"))

    before = a.access_count
    state = engine.init_state(a, np.eye(30)[0], rng=seed)
    base = a.access_count
    # averaged: a plain k = 4 batch diverges to nan from some seeds
    config = engine.StrategyConfig(pick="grad_power", update="coord_ls", t=1.0,
                                   k=4, averaged=True)
    for _ in range(250):
        engine.step(state, config)
    used = a.access_count - base
    rows.append(("column accounting is exactly k per step", used == 1000,
                 f"init {base - before}, steps {used}"))

    state.revalidate()
    nu_err = abs(state.nu - float(state.x @ state.x))
    rows.append(("cached scalars survive revalidation", nu_err == 0.0, f"nu drift {nu_err:.1e}"))
    return rows


def accounting_suite(seed: int = 2) -> list[CheckRow]:
    rows: list[CheckRow] = []
    a = build_synthetic(SpectrumSpec.gapped_grid(40, 7.0, 0.2, 4.0, seed=seed))
    shifted = shift_scale(a, 1.0, 3.0)
    ref = compute_reference(shifted)
    drift = abs(ref.lambda1 - 10.0)
    rows.append(("shifted reference eigenvalue", drift < 1e-8, f"|lam1 - 10| {drift:.2e}"))

    before = shifted.access_count
    compute_reference(shifted)
    rows.append(("setup passes are uncounted", shifted.access_count == before,
                 f"counter moved by {shifted.access_count - before}"))

    gamma = engine.stepsize_bound(a)
    state = engine.init_state(a, 0.05 * np.ones(40))
    config = engine.StrategyConfig(pick="cyclic", update="fixed_grad", gamma=gamma)
    r = math.sqrt(1.0 / (4.0 * (a.dim + 4) * gamma))
    inside = True
    for _ in range(5000):
        engine.step(state, config)
        if np.abs(state.x).max() >= r:
            inside = False
            break
    rows.append(("cyclic gradient iterates stay in the stepsize box", inside,
                 f"5000 steps, R {r:.3f}"))
    return rows


def run_all(verbose: bool = True) -> bool:
    ok = True
    for name, suite in (("landscape", landscape_suite),
                        ("engine", engine_suite),
                        ("accounting", accounting_suite)):
        for check, passed, detail in suite():
            ok &= passed
            if verbose:
                print(f"[{name}] {'PASS' if passed else 'FAIL'}  {check} ({detail})")
    return ok
