"""Checks of the benchmark's span bookkeeping, instrumentation and gate.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from eigencd import engine, harness, hubbard, operators
from eigencd.engine import StrategyConfig

import layers
import run
from spans import Tracer
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_children_and_counts_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.now += seconds
        tracer.count("leaf.work", 2)
        return seconds

    def middle():
        clock.now += 1.0
        got = traced_leaf(2.0) + traced_leaf(3.0)
        clock.now += 0.5
        return got

    def outer():
        clock.now += 0.25
        got = traced_middle()
        clock.now += 0.25
        return got

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_middle = tracer.wrap(middle, "middle")
    assert tracer.wrap(outer, "outer")() == 5.0

    spans = tracer.spans
    assert (spans["leaf"].calls, spans["leaf"].total_s, spans["leaf"].self_s) == (2, 5.0, 5.0)
    assert (spans["middle"].calls, spans["middle"].total_s, spans["middle"].self_s) == (1, 6.5, 1.5)
    assert (spans["outer"].calls, spans["outer"].total_s, spans["outer"].self_s) == (1, 7.0, 0.5)
    assert sum(s.self_s for s in spans.values()) == spans["outer"].total_s
    assert tracer.counts["leaf.work"] == 4


def test_span_closes_on_exception_and_reports_parent():
    clock = FakeClock()
    tracer = Tracer(clock)
    parents = []

    def failing():
        parents.append(tracer.parent)
        clock.now += 1.0
        raise KeyError("boom")

    traced = tracer.wrap(failing, "inner")
    with tracer.span("outer"):
        with pytest.raises(KeyError):
            traced()
        clock.now += 2.0
    assert parents == ["outer"]
    assert tracer.parent is None
    assert tracer.spans["inner"].total_s == 1.0
    assert tracer.spans["outer"].self_s == 2.0


def test_restore_puts_every_original_back():
    watched = [(operators.ColumnOracle, "column"), (operators, "frobenius_norm_sq"),
               (harness, "frobenius_norm_sq"), (harness, "init_state"),
               (harness, "step"), (engine, "step"), (engine, "cubic_min_roots"),
               (hubbard, "_column_kernel"), (hubbard.HubbardOracle, "prepare"),
               (engine.SolverState, "apply_coordinate_delta")]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(watched, before))
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(watched, before))


LEGS = [StrategyConfig(pick="pm", update="coord_ls"),
        StrategyConfig(pick="greedy_ls", update="coord_ls"),
        StrategyConfig(pick="gauss_southwell", update="coord_ls"),
        StrategyConfig(pick="grad_power", update="coord_ls", t=1.0, k=3),
        StrategyConfig(pick="grad_power", update="vec_ls", t=2.0, k=4)]


def _solve_all(oracle, reference, x0):
    out = []
    for config in LEGS:
        before = oracle.access_count
        o = harness.run_single(oracle, config, x0, 1e-6, 10**6, 3, reference)
        out.append((o.status, o.iterations, o.col_accesses, o.final_nu,
                    oracle.access_count - before))
    return out


def test_wrappers_leave_results_and_access_counts_unchanged():
    oracle = operators.build_synthetic(
        operators.SpectrumSpec.gapped_grid(40, 12.0, 0.5, 8.0, seed=3))
    shifted = operators.shift_scale(oracle, 1.0, 5.0)
    x0 = np.zeros(40)
    x0[0] = 1.0
    reference = harness.compute_reference(shifted)
    plain = _solve_all(shifted, reference, x0)

    tracer = Tracer()
    layers.instrument(tracer)
    try:
        traced_reference = harness.compute_reference(shifted)
        traced = _solve_all(shifted, traced_reference, x0)
    finally:
        tracer.restore()

    assert traced == plain
    assert traced_reference.lambda1 == reference.lambda1
    charged = sum(row[4] for row in traced)
    free = tracer.counts["operators.free_columns"]
    assert tracer.spans["operators.column"].calls == charged + free
    assert free == 2 * 40  # the reference's norm survey and dense assembly
    assert tracer.counts["harness.reference.matvecs"] == 1
    assert tracer.spans["harness.run_single"].calls == len(LEGS)
    assert tracer.spans["engine.cubic_min_roots"].calls == \
        tracer.counts["engine.cubic_min_roots.coords"] // 40


def test_benchmark_json_names_the_metrics_and_workloads_reported():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.PER_LAYER
    assert all(workloads.WORKLOADS[w["name"]].why == w["why"] for w in spec["workloads"])
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_gate_passes_real_runs_and_catches_a_wrong_charge():
    oracle = operators.build_synthetic(
        operators.SpectrumSpec.gapped_grid(40, 12.0, 0.5, 8.0, seed=4))
    x0 = np.zeros(40)
    x0[0] = 1.0
    operand = workloads.Operand(oracle, harness.compute_reference(oracle), x0,
                                12.0, 1e-9 * 12.0)
    legs = [workloads.Leg("PM", "PM", "A", 1e-6),
            workloads.Leg("SCD", "SCD-Grad-LS(1)", "A", 1e-6, k=2, seeds=2),
            workloads.Leg("PM-budget", "PM", "A", 1e-9, pm_steps=3, eps_ceiling=1.0)]
    with workloads.FinalState() as capture:
        runs = [r for leg in legs for r in workloads.run_leg(leg, operand, 7, capture)]
    assert [(r.label, r.seed, r.status) for r in runs] == [
        ("PM", 0, "converged"), ("SCD", 7, "converged"), ("SCD", 8, "converged"),
        ("PM-budget", 7, "budget")]
    assert all(not r.failures for r in runs)
    assert runs[-1].col_accesses == 3 * 40 + 1

    with workloads.FinalState() as capture:
        outcome = harness.run_single(oracle, StrategyConfig("pm", "coord_ls"),
                                     x0, 1e-6, 10**6, 0, operand.reference)
        fails = workloads.check_run(legs[0], operand, outcome,
                                    outcome.col_accesses + 1, capture.state)
    assert any("nnz(x0)" in f for f in fails)
