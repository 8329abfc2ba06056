"""Benchmark of eigencd: time to accuracy and charged columns per workload.

Run from the repository root:

    python3 perfbench/run.py --workload hubbard-greedy --seed 42 --seconds 60 --trace 0

A run sets the workload up ``setup_repeats`` times (``setup_s`` is the
median).  After a set-up it runs the workload's batch of solver legs back to
back if another batch still fits in the run's ``--seconds`` (the first batch
always runs), then further batches while they fit.  ``solve_s`` is the sum
over solver calls of each call's mean time across batches.  Every solver
call is checked by the gate in ``workloads.py``.  ``--trace 1`` instead sets
up once with spans on, then runs pairs of one untraced and one traced batch,
in alternating order, while another pair fits in ``--seconds`` (the first
pair always runs), and reports the per-layer metrics of ``layers.py``.

Per-leg counts are compared with ``counts.json``; a workload seed that has
no entry there is recorded.  To re-record after a deliberate change of
method, delete that seed's entry first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with provenance and per-leg counts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS_FILE = HERE / "counts.json"
OUT_DIR = HERE / "out"
BLAS_THREADS = 1  # solver loops are single-threaded; one BLAS thread is steadiest
SOLVE_SPAN = "bench.solve"  # encloses each timed solver call of the traced batch
WORKLOAD_NAMES = ("a108-suite", "hubbard-greedy", "hubbard-sampled")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """Must run before numpy is imported: BLAS reads these once."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import eigencd from this checkout's ``src``, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "eigencd" / "__init__.py").is_file():
        print(f"error: no eigencd sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import eigencd
    if Path(eigencd.__file__).resolve().parent != (src / "eigencd").resolve():
        print(f"error: imported eigencd from {eigencd.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def git_sha() -> str | None:
    """HEAD of the checkout read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "note": "every working set fits in the 300 MiB L3, so any bytes-moved "
                "figure is computed, not measured",
    }


def run_batch_timed(workload, operands, seed, **kwargs):
    from workloads import run_batch

    runs = run_batch(workload, operands, seed, **kwargs)
    return runs, sum(r.seconds for r in runs)


def count_rows(runs) -> list[list]:
    return [[r.label, r.seed, r.iterations, r.col_accesses] for r in runs]


def compare_counts(workload: str, seed: int, rows: list[list]) -> tuple[str, list[str]]:
    """Per-leg counts against the record; a difference is a method change.

    Counts of a seed the record lacks are stored in it.
    """
    record = json.loads(COUNTS_FILE.read_text()) if COUNTS_FILE.is_file() else {}
    expected = record.get(workload, {}).get(str(seed))
    if expected is None:
        record.setdefault(workload, {})[str(seed)] = rows
        COUNTS_FILE.write_text(json.dumps(record, indent=1) + "\n")
        return "recorded", []
    diffs = [f"{got[0]} seed {got[1]}: iterations {want[2]} -> {got[2]}, "
             f"col_accesses {want[3]} -> {got[3]}"
             for want, got in zip(expected, rows) if want != got]
    if len(expected) != len(rows):
        diffs.append(f"{len(expected)} recorded leg runs, {len(rows)} now")
    return ("method-change" if diffs else "match"), diffs


def measure(workload, args):
    """Untraced run: the end-to-end metrics.

    Set-ups and batches alternate, so both sample the whole run; each batch
    uses the operands of the set-up just before it.
    """
    setup_times = []
    batches = []  # (leg runs, seconds in solver calls)
    start = time.perf_counter()

    def batch_fits() -> bool:
        elapsed = time.perf_counter() - start
        return not batches or elapsed + batches[-1][1] <= args.seconds

    for _ in range(workload.setup_repeats):
        operands = None
        gc.collect()
        setup_start = time.perf_counter()
        operands = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - setup_start)
        if batch_fits():
            batches.append(run_batch_timed(workload, operands, args.seed))
    while batch_fits():
        batches.append(run_batch_timed(workload, operands, args.seed))
    runs = [r for batch_runs, _ in batches for r in batch_runs]
    first = batches[0][0]
    per_call = zip(*([r.seconds for r in b] for b, _ in batches))
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        # Load from other tenants of a shared host slows stretches of a run,
        # by up to half; the mean over every batch of the run is the figure
        # such a stretch moves least (see README.md, "Metrics").
        "solve_s": {"value": sum(map(statistics.mean, per_call)), "unit": "s"},
        "col_accesses": {"value": sum(r.col_accesses for r in first), "unit": "count"},
        "iterations": {"value": sum(r.iterations for r in first), "unit": "count"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    print(f"setup_s per repeat: {[round(t, 4) for t in setup_times]}")
    print(f"solve_s per batch: {[round(t, 4) for _, t in batches]}")
    repeat_ok = all(count_rows(b) == count_rows(first) for b, _ in batches)
    return runs, first, repeat_ok, metrics


def measure_traced(workload, args):
    """Traced run: set up once with spans, then untraced/traced batch pairs.

    The order within a pair alternates, so neither side always runs first;
    ``trace.overhead`` is the median of the pairs' traced/untraced ratios.
    Each traced batch starts from the spans of the set-up, so the per-layer
    figures are those of the set-up and of the last traced batch.
    """
    from layers import instrument, per_layer_metrics
    from spans import Tracer

    tracer = Tracer()
    instrument(tracer)
    try:
        operands = workload.setup(args.seed)
    finally:
        tracer.restore()
    after_setup = copy.deepcopy((tracer.spans, tracer.counts))

    def plain_batch():
        return run_batch_timed(workload, operands, args.seed)

    def traced_batch():
        tracer.spans, tracer.counts = copy.deepcopy(after_setup)
        instrument(tracer)
        try:
            return run_batch_timed(workload, operands, args.seed,
                                   span=lambda: tracer.span(SOLVE_SPAN))
        finally:
            tracer.restore()

    pairs = []  # ((plain runs, seconds), (traced runs, seconds))
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start + pairs[-1][0][1]
                        + pairs[-1][1][1] <= args.seconds):
        if len(pairs) % 2:  # traced first
            traced = traced_batch()
            plain = plain_batch()
        else:
            plain = plain_batch()
            traced = traced_batch()
        pairs.append((plain, traced))
    plain_s = [plain[1] for plain, _ in pairs]
    traced_s = [traced[1] for _, traced in pairs]
    solve = tracer.spans[SOLVE_SPAN]
    loop = tracer.spans["harness.run_single"]
    print(f"untraced/traced solve_s per pair: "
          f"{[(round(p, 4), round(t, 4)) for p, t in zip(plain_s, traced_s)]}")
    metrics = per_layer_metrics(tracer, {
        "trace.overhead": statistics.median(t / p for p, t in zip(plain_s, traced_s)),
        "trace.coverage": 1.0 - (solve.self_s + loop.self_s) / solve.total_s,
        "trace.solve_s_traced": statistics.median(traced_s),
        "trace.solve_s_untraced": statistics.median(plain_s),
    })
    batches = [b for pair in pairs for b, _ in pair]
    first = batches[0]
    repeat_ok = all(count_rows(b) == count_rows(first) for b in batches)
    return [r for b in batches for r in b], first, repeat_ok, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prov = provenance(args)
    print("provenance: " + json.dumps(prov))
    gc.collect()
    measure_fn = measure_traced if args.trace else measure
    runs, first, repeat_ok, metrics = measure_fn(workload, args)

    failed = [r for r in runs if r.failures]
    for r in first:
        print(f"leg {r.label:24s} seed {r.seed:6d} {r.status:9s} "
              f"iterations {r.iterations:8d} col_accesses {r.col_accesses:9d} "
              f"eps_obj {r.eps_obj:.3e} {r.seconds:8.3f} s")
    for r in failed:
        print(f"FAILED {r.label} seed {r.seed}: {'; '.join(r.failures)}")
    if not repeat_ok:
        print("FAILED: per-leg counts differ between batches of one run")
    rows = count_rows(first)
    verdict, diffs = compare_counts(args.workload, workload.counts_seed(args.seed), rows)
    print(f"counts vs {COUNTS_FILE.name}: {verdict}")
    for line in diffs:
        print(f"  method change: {line}")
    print(f"failed_share: {len(failed)}/{len(runs)} = {len(failed) / len(runs):g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    result = {"correct": not failed and repeat_ok, "attempted": len(runs),
              "failed": len(failed), "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        **result, "provenance": prov, "counts": verdict, "count_changes": diffs,
        "legs": [vars(r) for r in runs]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
