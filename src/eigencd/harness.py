"""Reference eigenpairs, error metrics, and experiment orchestration.

The reference route is intentionally independent of the coordinate-descent
solvers: dense problems go through the LAPACK symmetric eigensolver, large
ones through restarted Lanczos with full reorthogonalization on ``A``
itself: Krylov subspaces are shift-invariant, so no spectral shift is
needed to reach the largest eigenvalue.  Setup passes never count column
accesses.

A run stops when ``eps_obj < tol``, the access budget is exhausted, or the
divergence/stall detector trips.  ``eps_obj`` is available every iteration
in O(1) through the identity ``f - f* = lambda_1^2 - 2 s + nu^2`` over the
engine's maintained scalars; the stop rule and the trace read that one gap,
never the difference of ``f`` and ``f*``, whose ``||A||_F^2`` terms cancel.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .engine import (PowerIterationBreakdown, StationaryIterate, StrategyConfig,
                     init_state, step)
from .operators import ColumnOracle, frobenius_norm_sq

DENSE_REFERENCE_CUTOFF = 2000
LANCZOS_BLOCK = 60
LANCZOS_MAX_RESTARTS = 40
LANCZOS_RESIDUAL_TOL = 1e-10
DIVERGENCE_FACTOR = 1e6
# run_single refuses a start with x0 @ x0 above START_SCALE_FACTOR * lambda1.
# The first steps collapse a huge coordinate, and the maintained nu and
# z = A x then carry an absolute error near u ||x0||^2 until a revalidation
# (every n applications: 19,600 on Hubbard 4x4 3+3).  From 1e20 e1 on
# synthetic n = 20 (lambda1 = 500) GCD-LS-LS claimed eps_obj 0.0 at a lambda
# estimate of 8.2e7; from 1e7 e_HF on 3+3 as 100 I - H GCD-Grad-LS claimed
# 2.8e-8 against a true 1.0e-4.  Claimed against true eps_obj at tol 1e-6,
# for GCD-LS-LS, CD-Cyc-LS, GCD-Grad-LS and SCD-Grad-LS(1), by ||x0||^2 /
# lambda1: on n = 20 and n = 60 (lambda1 = 108) equal to two digits from 20
# to 9.3e5, 9.8e-7 and 9.9e-7 against 1.0e-6 (greedy) at 2e7, 8.9e-7 against
# 1.1e-6 (GCD-LS-LS) at 2e9; on 3+3 equal to five digits at 6.3e4 (hf:2700,
# greedy).  The default starts are far inside: hf:10 is 0.87 lambda1 on 3+3,
# e1 is lambda1 / 108 on n = 60.
START_SCALE_FACTOR = 2.0 ** 16
STALL_CHECKS = 1000


class ReferenceFailure(RuntimeError):
    """The reference eigensolver did not reach its residual target."""


@dataclass(frozen=True)
class ReferenceSolution:
    """Leading eigenpair data every metric is measured against; refused
    where ``eps_obj`` cannot score a run against it."""

    lambda1: float
    v1: np.ndarray
    lambda2: float
    frob_sq: float
    source: str

    @property
    def fstar(self) -> float:
        """``f* = ||A||_F^2 - lambda1^2``, the objective at its minimizers."""
        return self.frob_sq - self.lambda1 * self.lambda1

    def __post_init__(self):
        gap, bound = self.lambda1 - self.lambda2, _resolution(self.lambda1)
        if not gap > bound:
            raise ValueError(
                f"leading eigenvalue must be simple: lambda1 - lambda2 = {self.lambda1!r} - "
                f"{self.lambda2!r} = {gap:.3g} is within the reference's resolution {bound:.3g}")
        # eps_obj = sqrt((f - f*) / f*) needs minimizers +-sqrt(lambda1) v1 and an f*
        # above its rounding, about n ulps of ||A||_F^2
        if not self.lambda1 > 0:
            raise ValueError(f"no positive leading eigenvalue (lambda1 = {self.lambda1:g})")
        if not self.fstar > self.v1.size * np.finfo(float).eps * self.frob_sq:
            raise ValueError(
                f"f* = ||A||_F^2 - lambda1^2 = {self.fstar:.3g} is rounding noise against "
                f"||A||_F^2 = {self.frob_sq:.6g}: the matrix is rank one, and the relative "
                "gap eps_obj = sqrt((f - f*) / f*) is undefined for it")


def _resolution(lam1: float) -> float:
    """Eigenvalue resolution of a reference: the residual it accepts."""
    return 1e-8 * max(1.0, abs(lam1))


def _lanczos_extreme(matvec, v0: np.ndarray, *, ortho_against=()
                     ) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Largest eigenpair by restarted Lanczos with full reorthogonalization.

    ``ortho_against`` deflates already-converged eigenvectors: every Krylov
    vector is reprojected off them, so the method converges to the largest
    eigenvalue of the complementary invariant subspace.  The start ``v0`` is
    tested first: if its Rayleigh quotient already meets the residual
    target, the first product is the only one.  Returns the pair and the
    last cycle's second Ritz vector, None when that space has one vector;
    it starts the deflated run for the next eigenvalue.
    """
    v = np.array(v0, dtype=float)
    n = v.size
    for u in ortho_against:
        v -= (u @ v) * u
    v /= np.linalg.norm(v)

    theta = 0.0
    for cycle in range(LANCZOS_MAX_RESTARTS):
        m = min(LANCZOS_BLOCK, n - len(ortho_against))
        basis = np.empty((m, n))
        alphas = np.empty(m)
        betas = np.empty(max(m - 1, 0))
        basis[0] = v
        w = None
        size = 0
        for i in range(m):
            size = i + 1
            w = matvec(basis[i])
            alphas[i] = basis[i] @ w
            w -= alphas[i] * basis[i]
            if i > 0:
                w -= betas[i - 1] * basis[i - 1]
            for u in ortho_against:
                w -= (u @ w) * u
            # w is now the start's residual under its Rayleigh quotient
            if cycle == i == 0 and _converged(np.linalg.norm(w), alphas[0]):
                return float(alphas[0]), v, None
            # full reorthogonalization, twice for safety
            for _ in range(2):
                w -= basis[:size].T @ (basis[:size] @ w)
            if i + 1 == m:
                break
            beta = np.linalg.norm(w)
            if beta < 1e-14:
                break
            betas[i] = beta
            basis[i + 1] = w / beta
        tri_vals, tri_vecs = np.linalg.eigh(
            np.diag(alphas[:size]) + np.diag(betas[:size - 1], 1)
            + np.diag(betas[:size - 1], -1))
        theta = float(tri_vals[-1])
        ritz = basis[:size].T @ tri_vecs[:, -1]
        ritz /= np.linalg.norm(ritz)
        resid = np.linalg.norm(matvec(ritz) - theta * ritz)
        if _converged(resid, theta):
            second = basis[:size].T @ tri_vecs[:, -2] if size > 1 else None
            return theta, ritz, second
        v = ritz
    raise ReferenceFailure(
        f"Lanczos stalled at residual {resid:.3e} after {LANCZOS_MAX_RESTARTS} restarts")


def _converged(resid: float, theta: float) -> bool:
    return resid <= LANCZOS_RESIDUAL_TOL * max(1.0, abs(theta))


def compute_reference(oracle: ColumnOracle) -> ReferenceSolution:
    """Top two eigenpairs plus ``f* = ||A||_F^2 - lambda_1^2``; all uncounted.

    Orders up to ``DENSE_REFERENCE_CUTOFF`` go through LAPACK, larger ones
    through Lanczos from a seeded random start.  The second eigenpair's run
    is deflated against ``v1`` and starts from the first run's second Ritz
    vector; where that vector already meets the residual target (it does on
    the 4x4 3+3 and 4+3 Hubbard sectors, 62 products in all) the run costs
    one product instead of a cycle, and by the Ritz residual bound its value
    lies within that residual of an eigenvalue of the deflated operator.  A
    first run whose last space was one vector hands nothing over, and the
    second run starts from a random vector.
    """
    n = oracle.dim
    if n < 2:
        raise ValueError(
            f"the operator has dimension {n}: the reference needs a second eigenvalue, and a "
            "1x1 matrix is rank one, so the relative gap eps_obj = sqrt((f - f*) / f*) is "
            "undefined for it (f* = 0)")
    with np.errstate(over="ignore", invalid="ignore"):
        frob_sq = frobenius_norm_sq(oracle)
    if not math.isfinite(frob_sq):
        raise ValueError(f"||A||_F^2 = {frob_sq} is not a finite number: the objective "
                         "f = ||A - x x^T||_F^2 overflows for this operator")
    if n <= DENSE_REFERENCE_CUTOFF:
        dense = np.zeros((n, n))
        with oracle.counting_paused():
            for j in range(n):
                oracle.add_column(j, 1.0, dense[:, j])
        vals, vecs = np.linalg.eigh(dense)
        lam1, lam2 = float(vals[-1]), float(vals[-2])
        v1 = vecs[:, -1]
        source = "dense"
        resid = np.linalg.norm(oracle.matvec(v1) - lam1 * v1)
        if resid > _resolution(lam1):
            raise ReferenceFailure(f"reference residual {resid:.3e} too large")
    else:
        # each run returns only a pair that met LANCZOS_RESIDUAL_TOL, which is
        # stricter than the resolution the dense route checks against
        rng = np.random.default_rng(12345)
        lam1, v1, second = _lanczos_extreme(oracle.matvec, rng.standard_normal(n))
        if second is None:
            second = rng.standard_normal(n)
        lam2, _, _ = _lanczos_extreme(oracle.matvec, second, ortho_against=(v1,))
        source = "lanczos"
    return ReferenceSolution(lambda1=lam1, v1=v1, lambda2=lam2, frob_sq=frob_sq,
                             source=source)


def eps_obj(*, gap: float, fstar: float) -> float:
    """Square root of the relative objective gap ``sqrt((f - f*) / f*)``,
    from the gap ``f - f*`` itself, clamped at 0.  Keyword-only, so a call
    that passes ``f`` in place of the gap fails."""
    if fstar <= 0:
        raise ValueError(f"fstar must be positive, got {fstar}")
    return math.sqrt(max(gap, 0.0) / fstar)


def projected_energy(x: np.ndarray, z: np.ndarray, x_ref: np.ndarray) -> float:
    """Eigenvalue estimate ``x_ref^T A x / x_ref^T x``; nan on zero overlap."""
    denom = float(x_ref @ x)
    if denom == 0.0:
        return math.nan
    return float(x_ref @ z) / denom


def eps_tan(x: np.ndarray, v1: np.ndarray) -> float:
    """Tangent of the angle between x and the reference eigvector; sign-free."""
    overlap = float(v1 @ x)
    if overlap == 0.0:
        return math.inf
    residual = x - overlap * v1
    return float(np.sqrt(residual @ residual)) / abs(overlap)


class TraceRecord(NamedTuple):
    """One trace row; the field names are the trace CSV's header."""

    iteration: int
    col_access: int
    f: float
    eps_obj: float
    eps_energy: float
    eps_tan: float


@dataclass
class RunOutcome:
    """Per-seed result; status is converged / budget / diverged / stalled."""

    seed: int
    status: str
    iterations: int
    col_accesses: int
    final_nu: float = math.nan  # ||x||^2, the eigenvalue estimate at the end
    trace: list[TraceRecord] = field(default_factory=list)


@dataclass(frozen=True)
class RunStats:
    min_iters: int
    med_iters: int
    max_iters: int
    total_col_access: int
    seeds_used: int
    diverged_count: int


@dataclass
class ExperimentResult:
    label: str
    k: int
    config: StrategyConfig
    stats: RunStats
    outcomes: list[RunOutcome]


class AllSeedsFailed(RuntimeError):
    """No seed of a stochastic run reached the tolerance."""


def _lower_median(values: list[int]) -> int:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def run_single(oracle: ColumnOracle, config: StrategyConfig, x0: np.ndarray,
               tol: float, max_col_access: int, seed: int,
               reference: ReferenceSolution, trace_stride: int = 0) -> RunOutcome:
    """Drive one seeded run to convergence, budget, or failure.

    The energy metric projects onto ``x0``.  Both detectors read the best
    gap: the run diverges once ``f = gap + f*`` exceeds ``DIVERGENCE_FACTOR``
    times the best f before it, and stalls after ``STALL_CHECKS`` checks
    without a new best gap.  Refuses, before any access, a start with
    ``x0 @ x0`` above ``START_SCALE_FACTOR * lambda1`` or not finite.
    """
    lam1 = reference.lambda1
    with np.errstate(over="ignore"):
        x0_sq = float(x0 @ x0)
    if not x0_sq <= START_SCALE_FACTOR * lam1:
        raise ValueError(
            f"x0 @ x0 = {x0_sq:.6g} is above {START_SCALE_FACTOR:g} times lambda1 = "
            f"{lam1:.6g}: from so far above the solution's scale the maintained A x and "
            "||x||^2 lose the accuracy eps_obj is measured with; scale x0 down")
    fstar = reference.fstar
    frob_sq = reference.frob_sq
    v1 = reference.v1
    ref_nonzero = np.flatnonzero(x0)
    sparse_ref = int(ref_nonzero[0]) if ref_nonzero.size == 1 else None

    start_count = oracle.access_count
    state = init_state(oracle, x0, rng=np.random.default_rng(seed))
    k_per_step = config.columns_per_step(oracle.dim)

    trace: list[TraceRecord] = []

    def gap() -> float:
        return lam1 * lam1 - 2.0 * state.s + state.nu * state.nu

    def objective() -> float:
        return frob_sq - 2.0 * state.s + state.nu * state.nu

    def record():
        if sparse_ref is not None:
            energy = (state.z[sparse_ref] / state.x[sparse_ref]
                      if state.x[sparse_ref] != 0.0 else math.nan)
        else:
            energy = projected_energy(state.x, state.z, x0)
        e_energy = abs(energy - lam1) / abs(lam1) if math.isfinite(energy) else math.nan
        trace.append(TraceRecord(
            iteration=state.ell,
            col_access=oracle.access_count - start_count,
            f=float(objective()),
            eps_obj=eps_obj(gap=gap(), fstar=fstar),
            eps_energy=float(e_energy),
            eps_tan=eps_tan(state.x, v1),
        ))

    record()
    best_gap = gap()
    checks_since_best = 0
    while True:
        g = gap()
        if eps_obj(gap=g, fstar=fstar) < tol:
            status = "converged"
            break
        accesses = oracle.access_count - start_count
        if accesses + k_per_step > max_col_access:
            status = "budget"
            break
        f_floor = max(best_gap + fstar, 1e-9 * max(frob_sq, 1.0))
        if not math.isfinite(g) or g + fstar > DIVERGENCE_FACTOR * f_floor:
            status = "diverged"
            break
        if g < best_gap:
            best_gap = g
            checks_since_best = 0
        else:
            checks_since_best += 1
            if checks_since_best >= STALL_CHECKS:
                status = "stalled"
                break
        try:
            step(state, config)
        except PowerIterationBreakdown:
            status = "diverged"
            break
        except StationaryIterate:
            status = "stalled"  # raised before the state moved, found short of tol above
            break
        if trace_stride and state.ell % trace_stride == 0:
            record()
    col_accesses = oracle.access_count - start_count
    # every step charges an access, so an unmoved count means an unmoved state
    if trace[-1].col_access != col_accesses:
        record()
    return RunOutcome(seed=seed, status=status, iterations=state.ell,
                      col_accesses=col_accesses,
                      final_nu=float(state.nu), trace=trace)


def run_experiment(oracle: ColumnOracle, config: StrategyConfig, x0: np.ndarray,
                   tol: float, max_col_access: int, seeds: int = 20,
                   reference: ReferenceSolution | None = None,
                   label: str = "", trace_stride: int = 0) -> ExperimentResult:
    """Multi-seed run with Table-style statistics.

    Deterministic strategies run once; stochastic ones once per seed with
    seeds 0..seeds-1, each owning its generator so results are independent
    of scheduling.  Non-converged seeds are excluded from the iteration
    stats; if every seed fails the experiment raises.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    config.validate()
    if reference is None:
        reference = compute_reference(oracle)
    n_runs = 1 if config.deterministic else seeds
    outcomes = [run_single(oracle, config, x0, tol, max_col_access, seed_i,
                           reference, trace_stride=trace_stride)
                for seed_i in range(n_runs)]
    converged = [o.iterations for o in outcomes if o.status == "converged"]
    failed = len(outcomes) - len(converged)
    if not converged:
        raise AllSeedsFailed(
            f"{label or config.pick}: no seed converged "
            f"(statuses: {sorted({o.status for o in outcomes})})")
    k_per_step = config.columns_per_step(oracle.dim)
    med = _lower_median(converged)
    stats = RunStats(
        min_iters=min(converged),
        med_iters=med,
        max_iters=max(converged),
        total_col_access=k_per_step * med,
        seeds_used=n_runs,
        diverged_count=failed,
    )
    return ExperimentResult(label=label or config.pick, k=k_per_step,
                            config=config, stats=stats, outcomes=outcomes)


_SUMMARY_HEADER = ["Method", "k", "MinIter", "MedIter", "MaxIter", "TotalColAccess"]


def _slug(label: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in label)


def emit_trace(results: list[ExperimentResult], out_dir) -> None:
    """Write one trace CSV per (method, seed) plus the summary table."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for result in results:
            for outcome in result.outcomes:
                path = os.path.join(
                    out_dir, f"trace_{_slug(result.label)}_seed{outcome.seed}.csv")
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(TraceRecord._fields)
                    writer.writerows([repr(v) for v in rec] for rec in outcome.trace)
        summary = os.path.join(out_dir, "summary.csv")
        with open(summary, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_SUMMARY_HEADER)
            for result in results:
                s = result.stats
                writer.writerow([result.label, result.k, s.min_iters, s.med_iters,
                                 s.max_iters, s.total_col_access])
    except OSError as exc:
        raise OSError(f"writing traces under {out_dir}: {exc}") from exc

