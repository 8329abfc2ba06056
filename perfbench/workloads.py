"""Workloads, their solver legs and the correctness gate every leg passes.

Each workload is a closed batch driven through the calls ``eigencd bench``
makes: build the oracle, ``prepare`` it, compute the reference, then run
each leg with ``harness.run_experiment`` (deterministic legs) or
``harness.run_single`` (one call per stochastic seed, and the budgeted
power-method leg, whose expected outcome is ``budget``).  On ``a108-suite``
the workload seed sets the synthetic basis seed and the base of the
stochastic seeds.  The Hubbard lattice is fixed, and the Hubbard workloads
run their stochastic legs from the fixed seed of ``Workload.fixed_seed``, so
their iteration and access counts repeat exactly whatever the workload seed.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from eigencd import cli, harness, hubbard, landscape, operators

NO_BUDGET = 10**9
SEED_STRIDE = 1000  # stochastic seeds of workload seed s: s*1000, s*1000+1, ...
RESIDUAL_TOL = 1e-10  # ||z - A x|| / ||A x|| after a run: roundoff only
OBJECTIVE_TOL = 1e-10  # |f(x) - (frob_sq - 2 s + nu^2)| relative to frob_sq


@dataclass(frozen=True)
class Leg:
    label: str
    method: str  # conventional name, parsed by eigencd.cli.parse_method
    operand: str
    tol: float
    k: int = 1
    seeds: int = 0  # runs of a stochastic method, seeds base..base+seeds-1
    pm_steps: int = 0  # power method stopped by a budget of this many steps
    eps_ceiling: float = 0.0  # largest eps_obj a budgeted leg may end at


@dataclass
class Operand:
    """One matrix with its reference and start vector."""

    oracle: operators.ColumnOracle
    reference: harness.ReferenceSolution
    x0: np.ndarray
    lambda1: float  # value the reference must reproduce, independently known
    lambda1_tol: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], dict[str, Operand]]
    legs: tuple[Leg, ...]
    setup_repeats: int
    # used in place of the workload seed for the stochastic seeds, where that
    # seed sets no input: the counts then do not vary with the workload seed
    fixed_seed: int | None = None

    def counts_seed(self, seed: int) -> int:
        """The seed the leg counts depend on, for a run on workload seed ``seed``."""
        return seed if self.fixed_seed is None else self.fixed_seed


@dataclass
class LegRun:
    """One solver call's outcome, its charged accesses and the gate verdict."""

    label: str
    seed: int
    status: str
    iterations: int
    col_accesses: int
    eps_obj: float
    seconds: float
    failures: list[str]


def _unit(n: int, j: int, amp: float = 1.0) -> np.ndarray:
    x = np.zeros(n)
    x[j] = amp
    return x


def setup_a108(seed: int) -> dict[str, Operand]:
    """Dense n=500, lambda1=108 over a tail on [1, 100), and its +1000 I shift."""
    a = operators.build_synthetic(
        operators.SpectrumSpec.gapped_grid(500, 108.0, 1.0, 100.0, seed=seed))
    shifted = operators.shift_scale(a, 1.0, 1000.0)
    out = {}
    for key, oracle, lam in (("A", a, 108.0), ("A+1000I", shifted, 1108.0)):
        oracle.prepare()
        out[key] = Operand(oracle, harness.compute_reference(oracle),
                           _unit(500, 0), lam, 1e-9 * lam)
    return out


HUBBARD_SPEC = dict(l1=4, l2=4, n_up=3, n_down=3, t_hop=1.0, u=4.0)
HUBBARD_SHIFT = 100.0
HUBBARD_GROUND = -14.90  # acceptance criterion 9, +- 0.01


def setup_hubbard(seed: int) -> dict[str, Operand]:
    """4x4 lattice, 3+3 electrons, U=4 (dim 19,600), run as ``100 I - H``."""
    del seed  # the lattice is fixed
    base = hubbard.HubbardOracle(hubbard.LatticeSpec(**HUBBARD_SPEC))
    oracle = operators.shift_scale(base, -1.0, HUBBARD_SHIFT)
    oracle.prepare()
    reference = harness.compute_reference(oracle)
    x0 = _unit(oracle.dim, base.hf_index, 10.0)
    return {"100I-H": Operand(oracle, reference, x0,
                              HUBBARD_SHIFT - HUBBARD_GROUND, 0.01)}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="a108-suite",
        why="small dense n=500 and its +1000I shift: per-call overhead of the sampling "
            "pick, scalar cubic, apply_coordinate_delta and harness loop dominates; "
            "Hubbard is bypassed",
        setup=setup_a108,
        legs=(
            Leg("PM", "PM", "A", 1e-6),
            Leg("GCD-LS-LS", "GCD-LS-LS", "A", 1e-6),
            Leg("SCD-Grad-LS(1)", "SCD-Grad-LS(1)", "A", 1e-6, seeds=4),
            Leg("SCD-Grad-LS(1)-k4", "SCD-Grad-LS(1)", "A", 1e-6, k=4, seeds=4),
            Leg("SCD-Grad-vecLS(2)-k16", "SCD-Grad-vecLS(2)", "A", 1e-6, k=16, seeds=4),
            Leg("PM+1000I", "PM", "A+1000I", 1e-6),
            Leg("GCD-LS-LS+1000I", "GCD-LS-LS", "A+1000I", 1e-6),
        ),
        setup_repeats=7,
    ),
    Workload(
        name="hubbard-greedy",
        why="Hubbard 4x4 3+3 as 100I-H: the vectorised cubic sweep carries most of "
            "solve and sector assembly carries setup; few charged columns, no "
            "sampling, no PM",
        setup=setup_hubbard,
        legs=(
            Leg("GCD-LS-LS", "GCD-LS-LS", "100I-H", 1e-4),
            Leg("GCD-Grad-LS", "GCD-Grad-LS", "100I-H", 1e-6),
        ),
        setup_repeats=3,
        fixed_seed=42,
    ),
    Workload(
        name="hubbard-sampled",
        why="same operator and setup as hubbard-greedy: the sampling pick at "
            "n=19,600 and per-column calls through ShiftScaled carry solve; the "
            "greedy sweep is bypassed",
        setup=setup_hubbard,
        legs=(
            Leg("SCD-Grad-LS(1)", "SCD-Grad-LS(1)", "100I-H", 2e-4, seeds=2),
            Leg("PM-budget", "PM", "100I-H", 1e-6, pm_steps=8, eps_ceiling=9.0e-4),
        ),
        setup_repeats=3,
        fixed_seed=42,
    ),
)}


class FinalState:
    """Captures the ``SolverState`` each run starts from by wrapping
    ``harness.init_state``; the harness mutates it in place, so after the
    run it holds the final iterate."""

    def __init__(self):
        self.state = None
        self._original = None

    def __enter__(self):
        self._original = original = harness.init_state

        def capture(*args, **kwargs):
            self.state = original(*args, **kwargs)
            return self.state

        harness.init_state = capture
        return self

    def __exit__(self, *exc):
        harness.init_state = self._original


def check_reference(operand: Operand) -> list[str]:
    lam = operand.reference.lambda1
    if abs(lam - operand.lambda1) > operand.lambda1_tol:
        return [f"reference lambda1 {lam!r} is not {operand.lambda1} "
                f"+- {operand.lambda1_tol:g}"]
    return []


def check_run(leg: Leg, operand: Operand, outcome: harness.RunOutcome,
              charged: int, state) -> list[str]:
    """Independent checks of one solver call; returns what failed."""
    ref = operand.reference
    oracle = operand.oracle
    fails = check_reference(operand)
    expected = "budget" if leg.pm_steps else "converged"
    if outcome.status != expected:
        fails.append(f"status {outcome.status}, expected {expected}")
    if charged != outcome.col_accesses:
        fails.append(f"access_count moved {charged}, run reports {outcome.col_accesses}")
    per_step = oracle.dim if leg.method == "PM" else leg.k
    identity = per_step * outcome.iterations + int(np.count_nonzero(operand.x0))
    if charged != identity:
        fails.append(f"charged {charged} != {per_step}*{outcome.iterations} + nnz(x0)")
    if leg.pm_steps:
        eps = outcome.trace[-1].eps_obj
        if not eps <= leg.eps_ceiling:
            fails.append(f"eps_obj {eps:.3e} at the budget exceeds {leg.eps_ceiling:g}")
        eps = leg.eps_ceiling
    else:
        eps = leg.tol
    # f - f* >= (lambda1 - nu)^2, so eps_obj < tol bounds |nu - lambda1|
    nu_err = abs(outcome.final_nu - ref.lambda1)
    nu_bound = eps * math.sqrt(ref.fstar) * (1.0 + 1e-6)
    if not nu_err <= nu_bound:
        fails.append(f"|final_nu - lambda1| = {nu_err:.3e} > {nu_bound:.3e}")
    if state is None:
        return fails + ["final state not captured"]
    ax = oracle.matvec(state.x)
    resid = float(np.linalg.norm(state.z - ax) / np.linalg.norm(ax))
    if not resid <= RESIDUAL_TOL:
        fails.append(f"||z - Ax||/||Ax|| = {resid:.3e}")
    f_direct = landscape.objective(oracle, state.x, ref.frob_sq)
    f_kept = ref.frob_sq - 2.0 * state.s + state.nu * state.nu
    if not abs(f_direct - f_kept) <= OBJECTIVE_TOL * ref.frob_sq:
        fails.append(f"objective {f_direct!r} vs maintained {f_kept!r}")
    return fails


def run_leg(leg: Leg, operand: Operand, seed_base: int, capture: FinalState,
            span=contextlib.nullcontext) -> list[LegRun]:
    """Run one leg (every seed of it), gate each call after its timing.

    ``span()`` is entered around exactly the timed solver call.
    """
    config = cli.parse_method(leg.method, k=leg.k)
    oracle, ref, x0 = operand.oracle, operand.reference, operand.x0
    if leg.seeds or leg.pm_steps:
        budget = NO_BUDGET
        if leg.pm_steps:
            budget = leg.pm_steps * oracle.dim + int(np.count_nonzero(x0))
        seeds = [seed_base + i for i in range(max(leg.seeds, 1))]

        def call(seed):
            return harness.run_single(oracle, config, x0, leg.tol, budget, seed, ref)
    else:
        seeds = [0]  # run_experiment runs a deterministic method once, seed 0

        def call(seed):
            return harness.run_experiment(oracle, config, x0, leg.tol, NO_BUDGET,
                                          reference=ref, label=leg.label).outcomes[0]
    runs = []
    for seed in seeds:
        capture.state = None
        before = oracle.access_count
        start = time.perf_counter()
        try:
            with span():
                outcome = call(seed)
        except harness.AllSeedsFailed as exc:
            runs.append(LegRun(leg.label, seed, "error", 0, 0, math.nan,
                               time.perf_counter() - start, [repr(exc)]))
            continue
        seconds = time.perf_counter() - start
        charged = oracle.access_count - before
        runs.append(LegRun(leg.label, seed, outcome.status, outcome.iterations,
                           charged, outcome.trace[-1].eps_obj, seconds,
                           check_run(leg, operand, outcome, charged, capture.state)))
    return runs


def run_batch(workload: Workload, operands: dict[str, Operand], seed: int,
              span=contextlib.nullcontext) -> list[LegRun]:
    """Every leg of the workload back to back."""
    seed = workload.counts_seed(seed)
    runs = []
    with FinalState() as capture:
        for leg in workload.legs:
            runs += run_leg(leg, operands[leg.operand], seed * SEED_STRIDE,
                            capture, span)
    return runs
