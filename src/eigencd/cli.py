"""Command-line front end: solve, bench, hubbard info, verify, gen.

Method names follow the three-part convention <type>-<pick>-<update> with an
optional sampling-power suffix, e.g. ``SCD-Grad-LS(1)``.  Matrix sources are
a dense text file, a synthetic spectrum spec, or a Hubbard lattice spec; a
shift/scale wrapper can be layered on any of them.  ``solve`` is a one-method
``bench``: both commands read one table of run options through one loader.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import hubbard
from . import verify as verify_mod
from .engine import StrategyConfig, stepsize_bound
from .harness import (AllSeedsFailed, ReferenceFailure, _slug, compute_reference,
                      emit_trace, run_experiment)
from .hubbard import HubbardOracle, LatticeSpec, SectorTooLarge
from .operators import (ColumnOracle, SpectrumSpec, build_synthetic, load_dense,
                        parse_floats, parse_number, save_dense, shift_scale)

# name -> (pick, update, the sampling power the name fixes: Uni is t = 0)
METHOD_TABLE = {
    "CD-Cyc-Grad": ("cyclic", "fixed_grad", None),
    "CD-Cyc-LS": ("cyclic", "coord_ls", None),
    "GCD-Grad-LS": ("gauss_southwell", "coord_ls", None),
    "GCD-LS-LS": ("greedy_ls", "coord_ls", None),
    "SCD-Grad-LS": ("grad_power", "coord_ls", None),
    "SCD-Grad-vecLS": ("grad_power", "vec_ls", None),
    "SCD-Uni-LS": ("grad_power", "coord_ls", 0.0),
    "SCD-Uni-Grad": ("grad_power", "fixed_grad", 0.0),
    "Grad-vecLS": ("all", "vec_ls", None),
    "PM": ("pm", "coord_ls", None),
}


class UsageError(ValueError):
    pass


def parse_method(name: str, k: int = 1, gamma: float | None = None,
                 with_replacement: bool = True, averaged: bool = False,
                 t: float | None = None) -> StrategyConfig:
    """Map a conventional method name to a strategy configuration; refuses an
    option the method never reads and a ``t`` that contradicts the name."""
    base = name.strip()
    suffix_t = None
    if base.endswith(")") and "(" in base:
        base, _, arg = base[:-1].partition("(")
        try:
            suffix_t = float(arg)
        except ValueError:
            raise UsageError(f"bad sampling power in method name {name!r}") from None
    if base not in METHOD_TABLE:
        known = ", ".join(sorted(METHOD_TABLE))
        raise UsageError(f"unknown method {name!r}; supported: {known}")
    pick, update, name_t = METHOD_TABLE[base]
    samples = not StrategyConfig(pick, update).deterministic
    batches = update != "vec_ls" and pick != "pm"  # averaged divides their k > 1 steps
    for option, value, unset, reads in (("t", suffix_t if t is None else t, None, samples),
                                        ("replacement", with_replacement, True, samples),
                                        ("gamma", gamma, None, update == "fixed_grad"),
                                        ("k", k, 1, pick not in ("pm", "all")),
                                        ("averaged", averaged, False, batches and k > 1)):
        if value != unset and not reads:
            at_k = " at k = 1" if option == "averaged" and batches else ""
            raise UsageError(f"{base} never reads {option}{at_k}; got {option} = {value!r}")
    powers = [p for p in (name_t, suffix_t, t) if p is not None]
    if len(set(powers)) > 1:
        raise UsageError(
            f"{name} samples with t = {powers[0]:g}; t = {powers[-1]:g} contradicts it")
    config = StrategyConfig(pick=pick, update=update, t=powers[0] if powers else 1.0,
                            k=k, gamma=gamma, with_replacement=with_replacement,
                            averaged=averaged)
    # a fixed-step config without gamma is validated once the caller sets one
    if pick != "pm" and (gamma is not None or update != "fixed_grad"):
        config.validate()
    return config


def _build_spec(spec: str, what: str, keys, build):
    """``build(*values)`` from the ``key=value`` pairs of ``spec``, one value
    for each ``(key, kind, default)`` of ``keys`` (a None default marks a
    required key); every refusal names the spec."""
    kv = {}
    for part in spec.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"bad {what} spec {spec!r}: expected key=value pairs")
        key = key.strip()
        if key in kv:
            raise UsageError(f"{what} spec {spec!r}: {key} given twice")
        kv[key] = value.strip()
    required = [key for key, _, default in keys if default is None]
    if not kv.keys() >= set(required):
        raise UsageError(f"{what} spec needs {'=, '.join(required)}=: {spec!r}")
    values = [parse_number(kv.pop(key, default), kind, f"{what} spec {spec!r}: {key}")
              for key, kind, default in keys]
    if kv:
        raise UsageError(f"unknown {what} keys {sorted(kv)}")
    try:
        return build(*values)
    except ValueError as exc:
        raise UsageError(f"{what} spec {spec!r}: {exc}") from None


def parse_synthetic(spec: str) -> SpectrumSpec:
    keys = (("n", int, None), ("l1", float, None), ("lo", float, "1.0"),
            ("hi", float, "100.0"), ("seed", int, "0"))
    return _build_spec(spec, "synthetic", keys, SpectrumSpec.gapped_grid)


def parse_hubbard(spec: str) -> LatticeSpec:
    keys = (("l1", int, None), ("l2", int, None), ("nup", int, None),
            ("ndown", int, None), ("t", float, "1.0"), ("u", float, "4.0"))
    return _build_spec(spec, "hubbard", keys, LatticeSpec)


def parse_x0(spec: str, oracle: ColumnOracle, kind: str) -> np.ndarray:
    """Initial vectors: ``eJ[:amp]``, ``hf[:amp]``, or ``file:PATH``, for the
    matrix source ``oracle`` of ``kind`` as built, before any shift/scale."""
    if spec == "default":
        spec = "hf:10" if kind == "hubbard" else "e1"
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path) as fh:
            x0 = parse_floats(fh.read().split(), f"{path}: entry")
        if x0.shape != (oracle.dim,):
            raise UsageError(f"x0 file has shape {x0.shape}, expected ({oracle.dim},)")
    else:
        x0 = np.zeros(oracle.dim)
        body, _, amp_str = spec.partition(":")
        amp = parse_number(amp_str, float, f"x0 {spec!r}: amplitude") if amp_str else 1.0
        if body == "hf":
            if kind != "hubbard":
                raise UsageError("x0=hf needs a hubbard matrix source")
            x0[oracle.hf_index] = amp
        elif body.startswith("e"):
            idx = parse_number(body[1:], int, f"x0 {spec!r}: coordinate") - 1  # e1 is the first
            if not 0 <= idx < oracle.dim:
                raise UsageError(f"x0 index {body} out of range")
            x0[idx] = amp
        else:
            raise UsageError(f"bad x0 spec {spec!r}")
    if not np.isfinite(x0).all():
        raise UsageError(f"x0 {spec!r} has a non-finite entry")
    if not x0.any():
        raise UsageError(f"x0 {spec!r} is the zero vector; the methods need a nonzero start")
    return x0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list"}

# each range rule, keyed by the text a refusal quotes
_RULES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
          "a finite number": math.isfinite}

# Every run option once: (bench key, JSON type, default, range rule, help); the
# _METHOD_KEYS are per "methods" entry, and solve spells each key as _flag(key).
_RUN_KEYS = (
    ("matrix", str, None, None, "dense symmetric matrix text file"),
    ("synthetic", str, None, None, "spectrum spec, e.g. n=500,l1=108[,lo=..,hi=..,seed=..]"),
    ("hubbard", str, None, None, "lattice spec, e.g. l1=4,l2=4,nup=3,ndown=3[,t=..,u=..]"),
    ("scale", float, 1.0, "a finite number", "use scale*A + shift*I"),
    ("shift", float, 0.0, "a finite number", None),
    ("x0", str, "default", None, "eJ[:amp] | hf[:amp] | file:PATH (default e1, hf:10 for hubbard)"),
    ("tol", float, 1e-6, "> 0", None),
    ("max_col_access", int, 100_000_000, ">= 0", None),
    ("seeds", int, 20, ">= 1", None),
    ("trace_stride", int, 0, ">= 0",
     "record every Nth iteration; 0 writes the start and end rows only"),
    ("out", str, None, None, "directory for trace/summary CSVs"),
    ("methods", list, None, None, None),
)
_METHOD_KEYS = (
    ("name", str, None, None, None),
    ("label", str, None, None, None),
    ("k", int, 1, None, "coordinates per iteration"),
    ("gamma", float, None, None, "fixed stepsize; defaults to the safe bound"),
    ("t", float, None, None, "sampling power override"),
    ("replacement", bool, True, None, None),
    ("averaged", bool, False, None, None),
)


def _flag(key: str) -> str:
    return "--method" if key == "name" else "--" + key.replace("_", "-")


def _checked(section: dict, keys, where: str, flags: bool) -> dict:
    """Each key's value in ``section``, or its default when absent or null,
    refused unless the table lists the key, JSON gave the value the key's
    type (a float also takes an integer) and it passes the key's rule, a
    float under a rule being finite too."""
    unknown = sorted(section.keys() - {key for key, *_ in keys})
    if unknown:
        raise UsageError(f"{where}unknown keys {unknown}")
    values = {}
    for key, kind, default, rule, _ in keys:
        value = section.get(key)
        if kind is float and type(value) is int:
            value = float(value)
        name = _flag(key) if flags else key
        if value is None:
            value = default
        # bool is an int subclass, but true is not a count
        elif type(value) is not kind:
            raise UsageError(f"{where}{name} must be {_KIND_NAMES[kind]}, got {value!r}")
        elif rule and not _RULES[rule](value):
            raise UsageError(f"{where}{name} must be {rule}, got {value}")
        # tol = inf passes "> 0" and would stop every run at once
        elif rule and kind is float and not math.isfinite(value):
            raise UsageError(f"{where}{name} must be a finite number, got {value}")
        values[key] = value
    return values


def _load_run(cfg: dict, flags: bool = False, out: str | None = None):
    """``(options, [(label, run), ...])`` for a bench config, each ``run()``
    one ``run_experiment``.  Keys are checked first, then the oracle, x0 and
    each method's config built, and the reference comes last, so no refusal
    waits for it.  ``flags`` names each key by its solve flag; a given
    ``out`` replaces the config's."""
    where = "" if flags else "bench config: "
    options = _checked(cfg, _RUN_KEYS, where, flags)
    out = options["out"] = out or options["out"]
    if out and os.path.exists(out) and not os.path.isdir(out):
        raise UsageError(f"trace directory {out!r} exists and is not a directory")
    if not options["methods"]:
        raise UsageError(f"{where}methods must list at least one method entry")
    entries = []
    for i, entry in enumerate(options["methods"]):
        at = "" if flags else f"{where}methods[{i}]: "
        if not isinstance(entry, dict) or entry.get("name") is None:
            raise UsageError(f"{at}expected an object with a name, got {entry!r}")
        entries.append((at, _checked(entry, _METHOD_KEYS, at, flags)))
    sources = [key for key in ("matrix", "synthetic", "hubbard") if options[key]]
    if len(sources) != 1:
        raise UsageError("exactly one of --matrix/--synthetic/--hubbard is required")
    kind = sources[0]
    build = {"matrix": load_dense, "hubbard": lambda s: HubbardOracle(parse_hubbard(s)),
             "synthetic": lambda s: build_synthetic(parse_synthetic(s))}
    oracle: ColumnOracle = build[kind](options[kind])
    x0 = parse_x0(options["x0"], oracle, kind)
    if options["scale"] != 1.0 or options["shift"] != 0.0:
        oracle = shift_scale(oracle, options["scale"], options["shift"])
    methods = {}  # trace file slug -> (label, config)
    for at, entry in entries:
        name = entry["name"]
        try:
            config = parse_method(name, k=entry["k"], gamma=entry["gamma"],
                                  with_replacement=entry["replacement"],
                                  averaged=entry["averaged"], t=entry["t"])
            if config.update == "fixed_grad" and config.gamma is None:
                config = dataclasses.replace(config, gamma=stepsize_bound(oracle)).validate()
            config.columns_per_step(oracle.dim)  # refuses a batch the operator cannot supply
        except ValueError as exc:
            raise UsageError(f"{at}{exc}") from None
        label = entry["label"] or (f"{name}-k{config.k}" if config.k > 1 else name)
        slug = _slug(label)
        if slug in methods:
            raise UsageError(f"{at}labels {methods[slug][0]!r} and {label!r} would write "
                             "the same trace files; give each method entry its own label")
        methods[slug] = (label, config)
    reference = compute_reference(oracle)
    run = functools.partial(run_experiment, oracle, x0=x0, tol=options["tol"],
                            max_col_access=options["max_col_access"], seeds=options["seeds"],
                            reference=reference, trace_stride=options["trace_stride"])
    return options, [(label, functools.partial(run, config=config, label=label))
                     for label, config in methods.values()]


def cmd_solve(args) -> int:
    given = vars(args)
    cfg = {key: given[key] for key, *_ in _RUN_KEYS if key in given}
    cfg["methods"] = [{key: given[key] for key, *_ in _METHOD_KEYS if key in given}]
    options, [(_, run)] = _load_run(cfg, flags=True)
    result = run()
    stats = result.stats
    best = min((o for o in result.outcomes if o.status == "converged"),
               key=lambda o: o.trace[-1].eps_obj)
    print(f"method={args.name} k={result.k} seeds_used={stats.seeds_used} "
          f"failed={stats.diverged_count}")
    print(f"iterations min/med/max = {stats.min_iters}/{stats.med_iters}/{stats.max_iters}")
    print(f"total_col_access = {stats.total_col_access}")
    rec = best.trace[-1]
    lam_hat = best.final_nu  # ||x||^2 estimates lambda_1 at convergence
    print(f"lambda_estimate = {lam_hat!r}")
    if options["scale"] != 1.0 or options["shift"] != 0.0:
        print(f"unshifted_eigenvalue = {(lam_hat - options['shift']) / options['scale']!r}")
    print(f"eps_obj = {rec.eps_obj!r}  eps_energy = {rec.eps_energy!r}  "
          f"eps_tan = {rec.eps_tan!r}")
    if options["out"]:
        emit_trace([result], options["out"])
        print(f"traces written to {options['out']}")
    return 0


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("bench config: expected a JSON object")
    options, runs = _load_run(cfg, out=args.out or cfg.get("out") or "bench-out")
    out_dir = options["out"]
    results = []
    failures = 0
    for label, run in runs:
        try:
            result = run()
        except AllSeedsFailed as exc:
            print(f"{label}: FAILED ({exc})")
            failures += 1
            continue
        s = result.stats
        print(f"{label}: k={result.k} iters {s.min_iters}/{s.med_iters}/{s.max_iters} "
              f"col_access {s.total_col_access} failed_seeds {s.diverged_count}")
        results.append(result)
    if results:
        emit_trace(results, out_dir)
        print(f"traces written to {out_dir}")
    return 1 if failures else 0


def cmd_hubbard_info(args) -> int:
    given = {"l1": args.l[0], "l2": args.l[1], "nup": args.nup, "ndown": args.ndown,
             "t": args.t, "u": args.u}
    spec = parse_hubbard(",".join(f"{key}={value}" for key, value in given.items()
                                  if value is not None))
    oracle = HubbardOracle(spec, max_dim=args.max_dim)
    nnz, diag = oracle.nnz_per_column(), oracle.diagonal
    print(f"lattice {spec.l1}x{spec.l2}  t={spec.t_hop} U={spec.u}  "
          f"electrons {spec.n_up}+{spec.n_down}")
    print(f"sector momentum = {oracle.basis.sector_momentum}")
    print(f"dim = {oracle.dim}")
    print(f"nnz per col min/med/max = {nnz.min()}/{int(np.median(nnz))}/{nnz.max()}")
    print(f"diagonal range = [{float(diag.min())}, {float(diag.max())}]")
    print(f"hf determinant index = {oracle.hf_index}")
    return 0


def cmd_verify(args) -> int:
    return 0 if verify_mod.run_all(verbose=True) else 1


def cmd_gen(args) -> int:
    spec = parse_synthetic(args.synthetic)
    save_dense(args.out, build_synthetic(spec))
    print(f"wrote {spec.dim}x{spec.dim} synthetic matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigencd",
        description="Coordinate-wise descent benchmarks for leading eigenvalue problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one method on one matrix")
    # every key but bench's own two; no default, so an absent flag takes the table's
    for key, kind, _, _, text in _RUN_KEYS + _METHOD_KEYS:
        if key not in ("methods", "label"):
            p_solve.add_argument(_flag(key), dest=key, required=key == "name", help=text,
                                 type=_parse_bool if kind is bool else kind)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a method suite from a JSON config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_hub = sub.add_parser("hubbard", help="hubbard model utilities")
    hub_sub = p_hub.add_subparsers(dest="hubbard_command", required=True)
    p_info = hub_sub.add_parser("info", help="sector dimension and sparsity stats")
    p_info.add_argument("--l", type=int, nargs=2, required=True, metavar=("L1", "L2"))
    p_info.add_argument("--nup", type=int, required=True)
    p_info.add_argument("--ndown", type=int, required=True)
    # an absent t or U takes parse_hubbard's default
    p_info.add_argument("--t", type=float)
    p_info.add_argument("--u", type=float)
    p_info.add_argument("--max-dim", type=_positive_int, default=hubbard.DEFAULT_SECTOR_CAP)
    p_info.set_defaults(func=cmd_hubbard_info)

    p_verify = sub.add_parser("verify", help="run the invariant self-checks")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a synthetic dense matrix to a file")
    p_gen.add_argument("--synthetic", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AllSeedsFailed, ReferenceFailure, SectorTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
