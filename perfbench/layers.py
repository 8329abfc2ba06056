"""The traced run's span plan and the per-layer metrics it yields.

Spans are opened around public calls into ``operators``, ``hubbard``,
``engine`` and ``harness`` (plus the Hubbard column kernel, whose call count
is the assembly's cost unit); nothing inside the package changes.  ``cli``,
``landscape`` and ``verify`` are off the hot path and are not traced.
"""

from __future__ import annotations

import numpy as np

from eigencd import engine, harness, hubbard, operators

from spans import Tracer

REFERENCE = "harness.compute_reference"
MATVEC = "operators.matvec"


def instrument(tracer: Tracer) -> None:
    """Patch every traced call; undo with ``tracer.restore()``."""
    def column(fn, args, kwargs):
        oracle = args[0]
        charged = oracle.access_count
        out = fn(*args, **kwargs)
        if oracle.access_count == charged:
            tracer.count("operators.free_columns")
        return out

    def matvec(fn, args, kwargs):
        # a shift wrapper's matvec calls its base's: count the outer call only
        if tracer.parent == REFERENCE:
            tracer.count("harness.reference.matvecs")
        return fn(*args, **kwargs)

    def cubic_roots(fn, args, kwargs):
        tracer.count("engine.cubic_min_roots.coords", int(np.size(args[0])))
        return fn(*args, **kwargs)

    tracer.patch(operators.ColumnOracle, "column", "operators.column", column)
    for cls in (operators.ColumnOracle, operators.DenseSymmetric,
                operators.ShiftScaled, hubbard.HubbardOracle):
        tracer.patch(cls, "matvec", MATVEC, matvec)
    tracer.patch(operators, "frobenius_norm_sq", "operators.survey")
    tracer.patch(operators, "column_abs_sum_max", "operators.survey")

    tracer.patch(hubbard, "enumerate_sector", "hubbard.enumerate_sector")
    tracer.patch(hubbard.HubbardOracle, "prepare", "hubbard.prepare")
    tracer.patch(hubbard, "_column_kernel", "hubbard.kernel")

    tracer.patch(engine, "cubic_min_roots", "engine.cubic_min_roots", cubic_roots)
    for name in ("pick_greedy_ls", "pick_grad_power", "pick_gauss_southwell",
                 "solve_cubic_min", "step", "power_method_step", "init_state"):
        tracer.patch(engine, name, f"engine.{name}")
    tracer.patch(engine.SolverState, "apply_coordinate_delta",
                 "engine.apply_coordinate_delta")

    tracer.patch(harness, "compute_reference", REFERENCE)
    tracer.patch(harness, "run_single", "harness.run_single")


# (metric, unit, better); "<span>.calls|self_s|us_per_call" read span totals,
# other names read counters, and the trace.* figures come from the run.
PER_LAYER = [
    ("operators.column.calls", "count", "lower"),
    ("operators.column.self_s", "s", "lower"),
    ("operators.column.us_per_call", "us", "lower"),
    ("operators.free_columns", "count", "lower"),
    ("operators.survey.self_s", "s", "lower"),
    ("hubbard.enumerate_sector.self_s", "s", "lower"),
    ("hubbard.prepare.self_s", "s", "lower"),
    ("hubbard.kernel.calls", "count", "lower"),
    ("hubbard.kernel.self_s", "s", "lower"),
    ("hubbard.kernel.us_per_call", "us", "lower"),
    ("engine.cubic_min_roots.calls", "count", "lower"),
    ("engine.cubic_min_roots.coords", "count", "lower"),
    ("engine.cubic_min_roots.self_s", "s", "lower"),
    ("engine.pick_greedy_ls.self_s", "s", "lower"),
    ("engine.pick_grad_power.calls", "count", "lower"),
    ("engine.pick_grad_power.self_s", "s", "lower"),
    ("engine.pick_grad_power.us_per_call", "us", "lower"),
    ("engine.pick_gauss_southwell.self_s", "s", "lower"),
    ("engine.solve_cubic_min.calls", "count", "lower"),
    ("engine.solve_cubic_min.self_s", "s", "lower"),
    ("engine.apply_coordinate_delta.self_s", "s", "lower"),
    ("engine.step.calls", "count", "lower"),
    ("engine.step.self_s", "s", "lower"),
    ("engine.power_method_step.self_s", "s", "lower"),
    ("engine.init_state.self_s", "s", "lower"),
    ("harness.compute_reference.self_s", "s", "lower"),
    ("harness.reference.matvecs", "count", "lower"),
    ("harness.run_single.calls", "count", "lower"),
    ("harness.run_single.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.solve_s_traced", "s", "lower"),
    ("trace.solve_s_untraced", "s", "lower"),
]


def per_layer_metrics(tracer: Tracer, run: dict[str, float]) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric; ``run`` holds the ``trace.*`` figures."""
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        stats = tracer.spans.get(span)
        if name in run:
            value = run[name]
        elif field == "calls":
            value = stats.calls if stats else 0
        elif field == "self_s":
            value = stats.self_s if stats else 0.0
        elif field == "us_per_call":
            value = 1e6 * stats.self_s / stats.calls if stats and stats.calls else 0.0
        else:
            value = tracer.counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
