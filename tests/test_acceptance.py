"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  The two large-sector checks (10-electron spectrum, full power-method
convergence on the 6-electron system) are enabled by EIGENCD_EXTENDED=1.
"""

import math
import os

import numpy as np
import pytest

from eigencd.engine import (StrategyConfig, coord_cubic, delta_f, init_state,
                            solve_cubic_min, step, stepsize_bound)
from eigencd.harness import (AllSeedsFailed, compute_reference,
                             run_experiment, run_single)
from eigencd.hubbard import HubbardOracle, LatticeSpec
from eigencd.landscape import (constants, gradient, hessian_apply,
                               multistart_second_order_points)
from eigencd.operators import (SpectrumSpec, build_synthetic, column_norm_max,
                               shift_scale)

from conftest import (dense_objective, grid_newton_min, quartic_gain,
                      random_assumption1_matrix)

EXTENDED = bool(os.environ.get("EIGENCD_EXTENDED"))


def check(num: int, name: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def a108():
    oracle = build_synthetic(SpectrumSpec.gapped_grid(500, 108.0, 1.0, 100.0, seed=42))
    return oracle, compute_reference(oracle)


@pytest.fixture(scope="module")
def a108_shifted(a108):
    oracle, _ = a108
    shifted = shift_scale(oracle, 1.0, 1000.0)
    return shifted, compute_reference(shifted)


@pytest.fixture(scope="module")
def hubbard33():
    spec = LatticeSpec(l1=4, l2=4, n_up=3, n_down=3, t_hop=1.0, u=4.0)
    oracle = HubbardOracle(spec)
    oracle.prepare()
    shifted = shift_scale(oracle, -1.0, 100.0)
    return oracle, shifted, compute_reference(shifted)


def e1(n: int) -> np.ndarray:
    x = np.zeros(n)
    x[0] = 1.0
    return x


def test_criterion_01_landscape_oracles():
    grad_worst = 0.0
    hess_worst = 0.0
    for seed in range(20):
        a = random_assumption1_matrix(30, seed=seed)
        vals, vecs = np.linalg.eigh(a)
        lam1 = vals[-1]
        for i in np.flatnonzero(vals > 0):
            x = np.sqrt(vals[i]) * vecs[:, i]
            g = gradient(x, a @ x, float(x @ x))
            grad_worst = max(grad_worst, float(np.linalg.norm(g)))
            if vals[i] < lam1:
                hv = float(vecs[:, -1] @ hessian_apply(a, x, vecs[:, -1]))
                expect = 4.0 * (vals[i] - lam1)
                hess_worst = max(hess_worst, abs(hv - expect) / abs(expect))
    spurious = 0
    for seed in range(5):
        a = random_assumption1_matrix(8, seed=100 + seed)
        vals, vecs = np.linalg.eigh(a)
        target = np.sqrt(vals[-1]) * vecs[:, -1]
        for p in multistart_second_order_points(a, n_starts=100, seed=seed):
            if min(np.linalg.norm(p - target), np.linalg.norm(p + target)) >= 1e-5:
                spurious += 1
    ok = grad_worst < 1e-8 and hess_worst < 1e-6 and spurious == 0
    check(1, "landscape oracle suite", ok,
          f"max|grad|={grad_worst:.2e}, saddle curvature rel err={hess_worst:.2e}, "
          f"spurious minima={spurious}")


def test_criterion_02_line_search_kernel():
    rng = np.random.default_rng(202)
    h_gap_worst = 0.0
    df_worst = 0.0
    eq_worst = 0.0
    mats = [build_synthetic(SpectrumSpec.gapped_grid(30, 8.0, 0.3, 4.0, seed=s))
            for s in range(20)]
    for trial in range(1000):
        oracle = mats[trial % 20]
        a = oracle.array
        x = rng.standard_normal(30)
        state = init_state(oracle, x)
        j = int(rng.integers(30))
        coeffs = coord_cubic(state, j)
        alpha = solve_cubic_min(coeffs)

        ref_alpha = grid_newton_min(*coeffs)
        h_gap_worst = max(h_gap_worst, quartic_gain(alpha, *coeffs)
                          - quartic_gain(ref_alpha, *coeffs))

        e = np.zeros(30)
        e[j] = alpha
        direct = dense_objective(a, x + e) - dense_objective(a, x)
        df_worst = max(df_worst, abs(delta_f(alpha, coeffs) - direct)
                       / (1.0 + abs(direct)))

        # independent route: depressed cubic in the new coordinate value
        ajj = float(a[j, j])
        p = state.nu - x[j] ** 2 - ajj
        q = ajj * x[j] - state.z[j]
        roots = np.roots([1.0, 0.0, p, q])
        betas = roots[np.abs(roots.imag) < 1e-8].real
        fvals = []
        for beta in betas:
            y = x.copy()
            y[j] = beta
            fvals.append(dense_objective(a, y))
        alpha_b = betas[int(np.argmin(fvals))] - x[j]
        eq_worst = max(eq_worst, abs(alpha - alpha_b) / (1.0 + abs(alpha)))
    ok = h_gap_worst <= 1e-8 and df_worst <= 1e-10 and eq_worst <= 1e-10
    check(2, "line-search kernel vs brute force", ok,
          f"h gap={h_gap_worst:.2e}, delta-f err={df_worst:.2e}, "
          f"cubic-forms mismatch={eq_worst:.2e}")


def test_criterion_03_cyclic_gradient_safety():
    oracle = build_synthetic(SpectrumSpec.gapped_grid(100, 3.0, 0.2, 1.0, seed=11))
    gamma = stepsize_bound(oracle)
    box = math.sqrt(column_norm_max(oracle))
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(100)
    x0 *= (0.5 * box) / np.abs(x0).max()
    state = init_state(oracle, x0)
    config = StrategyConfig(pick="cyclic", update="fixed_grad", gamma=gamma)
    sup = 0.0
    samples = []
    for i in range(100_000):
        step(state, config)
        sup = max(sup, float(np.abs(state.x).max()))
        if i % 1000 == 999:
            g = gradient(state.x, state.z, state.nu)
            samples.append(float(np.linalg.norm(g)))
    # trend: after the early transient (decay from x0 plus the growth hump
    # while the iterate climbs toward the minimizer scale), block maxima of
    # the gradient norm decrease monotonically
    blocks = [max(samples[i:i + 10]) for i in range(0, len(samples), 10)]
    trend = all(blocks[j + 1] < blocks[j] for j in range(2, len(blocks) - 1))
    ok = sup < box and samples[-1] < 1e-4 and trend
    check(3, "cyclic gradient safety", ok,
          f"sup|x|_inf={sup:.4f} < R={box:.4f}, final|grad|={samples[-1]:.2e}, "
          f"block maxima decreasing={trend}")


def test_criterion_04_local_rate_ordering(a108):
    oracle, ref = a108
    cons = constants(oracle, ref.lambda1, ref.lambda2)
    rng = np.random.default_rng(7)
    d = rng.standard_normal(500)
    d /= np.linalg.norm(d)
    x0 = np.sqrt(ref.lambda1) * ref.v1 + 0.5 * cons.ball_radius * d

    medians = {}
    for t in (0.0, 1.0, 2.0):
        config = StrategyConfig(pick="grad_power", update="coord_ls", t=t)
        res = run_experiment(oracle, config, x0, 1e-6, 10**9, seeds=20,
                             reference=ref, label=f"SCD-Grad-LS({t:g})")
        medians[t] = res.stats.med_iters
    greedy = run_experiment(oracle, StrategyConfig(pick="gauss_southwell",
                                                   update="coord_ls"),
                            x0, 1e-6, 10**9, reference=ref, label="GCD-Grad-LS")
    g_iters = greedy.stats.med_iters
    ok = medians[0.0] >= medians[1.0] >= medians[2.0] >= g_iters
    check(4, "local rate ordering in sampling power", ok,
          f"medians t=0/1/2: {medians[0.0]}/{medians[1.0]}/{medians[2.0]}, "
          f"greedy {g_iters}")


def test_criterion_05_shift_insensitivity(a108, a108_shifted):
    oracle, ref = a108
    shifted, ref_s = a108_shifted
    x0 = e1(500)
    pm = StrategyConfig(pick="pm", update="coord_ls")
    gls = StrategyConfig(pick="greedy_ls", update="coord_ls")
    pm_plain = run_experiment(oracle, pm, x0, 1e-6, 10**8, reference=ref).stats
    pm_shift = run_experiment(shifted, pm, x0, 1e-6, 10**8, reference=ref_s).stats
    gls_plain = run_experiment(oracle, gls, x0, 1e-6, 10**8, reference=ref).stats
    gls_shift = run_experiment(shifted, gls, x0, 1e-6, 10**8, reference=ref_s).stats
    pm_factor = pm_shift.med_iters / pm_plain.med_iters
    gls_factor = gls_shift.total_col_access / gls_plain.total_col_access
    ok = pm_factor >= 5.0 and 0.5 <= gls_factor <= 2.0
    check(5, "shift insensitivity", ok,
          f"PM iters {pm_plain.med_iters} -> {pm_shift.med_iters} (x{pm_factor:.1f}), "
          f"GCD-LS-LS access {gls_plain.total_col_access} -> "
          f"{gls_shift.total_col_access} (x{gls_factor:.2f})")


def test_criterion_06_batch_speedup(a108):
    oracle, ref = a108
    x0 = e1(500)
    res1 = run_experiment(oracle, StrategyConfig(pick="grad_power", update="coord_ls",
                                                 t=1.0, k=1),
                          x0, 1e-6, 10**9, seeds=20, reference=ref)
    res4 = run_experiment(oracle, StrategyConfig(pick="grad_power", update="coord_ls",
                                                 t=1.0, k=4),
                          x0, 1e-6, 10**9, seeds=20, reference=ref)
    iter_ratio = res4.stats.med_iters / res1.stats.med_iters
    access_ratio = res4.stats.total_col_access / res1.stats.total_col_access
    ok = 1.0 / 6.0 <= iter_ratio <= 1.0 / 2.5 and access_ratio <= 1.5
    check(6, "batch speedup for stochastic sampling", ok,
          f"median iters {res1.stats.med_iters} vs {res4.stats.med_iters} "
          f"(ratio {iter_ratio:.3f}), access ratio {access_ratio:.3f}")


def test_criterion_07_greedy_batch_failure(a108):
    oracle, ref = a108
    x0 = e1(500)
    naive = StrategyConfig(pick="greedy_ls", update="coord_ls", k=4)
    tripped = False
    statuses = []
    try:
        run_experiment(oracle, naive, x0, 1e-6, 5_000_000, reference=ref)
    except AllSeedsFailed:
        out = run_single(oracle, naive, x0, 1e-6, 5_000_000, 0, ref)
        statuses.append(out.status)
        tripped = out.status in ("stalled", "diverged")
    averaged = run_experiment(oracle,
                              StrategyConfig(pick="greedy_ls", update="coord_ls",
                                             k=4, averaged=True),
                              x0, 1e-6, 10**9, reference=ref)
    converged = averaged.outcomes[0].status == "converged"
    ok = tripped and converged
    check(7, "greedy multi-coordinate failure vs averaged rule", ok,
          f"naive k=4 status={statuses or 'converged?!'}, averaged iters="
          f"{averaged.stats.med_iters}")


def test_criterion_08_hubbard_structure(hubbard33):
    oracle, _, _ = hubbard33
    nnz = oracle.nnz_per_column()
    csc = oracle._csc
    rng = np.random.default_rng(808)

    off_ok = True
    for j in rng.integers(0, oracle.dim, size=2000):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        rows = csc.indices[lo:hi]
        vals = csc.data[lo:hi]
        off = vals[rows != j]
        if not np.all(np.abs(off) == 0.25):
            off_ok = False
            break
    full_off_ok = bool(np.all(np.abs(csc.data[csc.indices != np.repeat(
        np.arange(oracle.dim), np.diff(csc.indptr))]) == 0.25))

    herm_worst = 0.0
    for _ in range(1000):
        j = int(rng.integers(oracle.dim))
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        pos = int(rng.integers(lo, hi))
        i = int(csc.indices[pos])
        h_ij = csc.data[pos]
        lo_i, hi_i = csc.indptr[i], csc.indptr[i + 1]
        back = np.searchsorted(csc.indices[lo_i:hi_i], j)
        h_ji = csc.data[lo_i + back]
        herm_worst = max(herm_worst, abs(h_ij - h_ji))

    ok = (oracle.dim == 19600
          and (int(nnz.min()), int(np.median(nnz)), int(nnz.max())) == (100, 102, 112)
          and off_ok and full_off_ok and herm_worst <= 1e-14)
    check(8, "hubbard structural checks", ok,
          f"dim={oracle.dim}, nnz={nnz.min()}/{int(np.median(nnz))}/{nnz.max()}, "
          f"offdiag +-0.25={off_ok and full_off_ok}, max |H_ij - H_ji|={herm_worst:.1e}")


def test_criterion_09_hubbard_spectrum(hubbard33):
    _, _, ref = hubbard33
    ground = 100.0 - ref.lambda1
    second = 100.0 - ref.lambda2
    ok = abs(ground - (-14.90)) <= 0.01 and abs(second - (-14.55)) <= 0.01
    check(9, "hubbard reference spectrum", ok,
          f"ground={ground:.4f} (want -14.90 +- 0.01), "
          f"second={second:.4f} (want -14.55 +- 0.01)")


@pytest.mark.skipif(not EXTENDED, reason="set EIGENCD_EXTENDED=1 for the 10-electron run")
def test_criterion_09_extended_ten_electrons():
    spec = LatticeSpec(l1=4, l2=4, n_up=5, n_down=5)
    oracle = HubbardOracle(spec)
    shifted = shift_scale(oracle, -1.0, 100.0)
    ref = compute_reference(shifted)
    ground = 100.0 - ref.lambda1
    nnz = oracle.nnz_per_column()
    diag = oracle.basis.diagonal
    structure_ok = (oracle.dim == 1_192_464
                    and (int(nnz.min()), int(np.median(nnz)), int(nnz.max()))
                    == (196, 202, 240)
                    and diag.min() == pytest.approx(-17.75)
                    and diag.max() == pytest.approx(30.25))
    ok = abs(ground - (-19.58)) <= 0.01 and structure_ok
    check(9, "hubbard spectrum, 10 electrons (extended)", ok,
          f"dim={oracle.dim}, nnz={nnz.min()}/{int(np.median(nnz))}/{nnz.max()}, "
          f"diag [{diag.min()}, {diag.max()}], ground={ground:.4f} "
          f"(want -19.58 +- 0.01)")


def test_criterion_10_hubbard_benchmark(hubbard33):
    _, shifted, ref = hubbard33
    n = shifted.dim
    x0 = np.zeros(n)
    hf = shifted.base.hf_index
    x0[hf] = 10.0

    gls = run_experiment(shifted, StrategyConfig(pick="greedy_ls", update="coord_ls"),
                         x0, 1e-6, 10**8, reference=ref, label="GCD-LS-LS").stats
    ggl = run_experiment(shifted, StrategyConfig(pick="gauss_southwell",
                                                 update="coord_ls"),
                         x0, 1e-6, 10**8, reference=ref, label="GCD-Grad-LS").stats
    in_band = all(0.5 * 31000 <= s.total_col_access <= 2.0 * 31000
                  for s in (gls, ggl))

    pm_budget = 100 * max(gls.total_col_access, ggl.total_col_access)
    pm_out = run_single(shifted, StrategyConfig(pick="pm", update="coord_ls"),
                        x0, 1e-6, pm_budget + n, 0, ref)
    if pm_out.status == "converged":
        pm_cost = pm_out.iterations * n
        beats = pm_cost >= 100 * max(gls.total_col_access, ggl.total_col_access)
        pm_note = f"PM converged at {pm_cost} accesses"
    else:
        # still above tolerance after 100x the greedy budget
        beats = pm_out.col_accesses >= pm_budget - n
        pm_note = (f"PM unconverged at {pm_out.col_accesses} accesses "
                   f"(eps_obj={pm_out.trace[-1].eps_obj:.2e})")
    ok = in_band and beats
    check(10, "hubbard solver benchmark", ok,
          f"GCD-LS-LS={gls.total_col_access}, GCD-Grad-LS={ggl.total_col_access} "
          f"(band [15500, 62000]); {pm_note}")


@pytest.mark.skipif(not EXTENDED, reason="set EIGENCD_EXTENDED=1 for the full PM run")
def test_criterion_10_extended_power_method(hubbard33):
    _, shifted, ref = hubbard33
    n = shifted.dim
    x0 = np.zeros(n)
    x0[shifted.base.hf_index] = 10.0
    pm = run_experiment(shifted, StrategyConfig(pick="pm", update="coord_ls"),
                        x0, 1e-6, 10**8, reference=ref, label="PM").stats
    total = pm.total_col_access
    ok = 0.5 * 44_198_000 <= total <= 2.0 * 44_198_000
    check(10, "hubbard power method, full run (extended)", ok,
          f"PM iters={pm.med_iters}, accesses={total} (expected scale 44198000)")
