"""Command-line front end: solve, bench, hubbard info, verify, gen.

Method names follow the three-part convention <type>-<pick>-<update> with an
optional sampling-power suffix, e.g. ``SCD-Grad-LS(1)``.  Matrix sources are
a dense text file, a synthetic spectrum spec, or a Hubbard lattice spec; a
shift/scale wrapper can be layered on any of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import verify as verify_mod
from .engine import StrategyConfig, stepsize_bound
from .harness import (AllSeedsFailed, ReferenceFailure, ReferenceSolution,
                      compute_reference, emit_trace, run_experiment)
from .hubbard import HubbardOracle, LatticeSpec, SectorTooLarge, sector_info
from .operators import (ColumnOracle, SpectrumSpec, build_synthetic, load_dense,
                        parse_floats, parse_number, save_dense, shift_scale)

METHOD_TABLE = {
    "CD-Cyc-Grad": ("cyclic", "fixed_grad", None),
    "CD-Cyc-LS": ("cyclic", "coord_ls", None),
    "GCD-Grad-LS": ("gauss_southwell", "coord_ls", None),
    "GCD-LS-LS": ("greedy_ls", "coord_ls", None),
    "SCD-Grad-LS": ("grad_power", "coord_ls", 1.0),
    "SCD-Grad-vecLS": ("grad_power", "vec_ls", 1.0),
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
    """Map a conventional method name to a strategy configuration."""
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
    pick, update, default_t = METHOD_TABLE[base]
    if suffix_t is not None and pick != "grad_power":
        raise UsageError(f"{base} does not take a sampling power")
    t_eff = suffix_t if suffix_t is not None else (
        t if t is not None else (default_t if default_t is not None else 1.0))
    config = StrategyConfig(pick=pick, update=update, t=t_eff, k=k, gamma=gamma,
                            with_replacement=with_replacement, averaged=averaged)
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
        kv[key.strip()] = value.strip()
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


def _build_oracle(args) -> tuple[ColumnOracle, str]:
    sources = [s for s in ("matrix", "synthetic", "hubbard")
               if getattr(args, s, None)]
    if len(sources) != 1:
        raise UsageError("exactly one of --matrix/--synthetic/--hubbard is required")
    src = sources[0]
    if src == "matrix":
        oracle: ColumnOracle = load_dense(args.matrix)
    elif src == "synthetic":
        oracle = build_synthetic(parse_synthetic(args.synthetic))
    else:
        oracle = HubbardOracle(parse_hubbard(args.hubbard))
    scale = float(getattr(args, "scale", 1.0))
    shift = float(getattr(args, "shift", 0.0))
    for name, value in (("scale", scale), ("shift", shift)):
        if not np.isfinite(value):
            raise UsageError(f"{name} must be a finite number, got {value}")
    if scale != 1.0 or shift != 0.0:
        oracle = shift_scale(oracle, scale, shift)
    return oracle, src


def parse_x0(spec: str, oracle: ColumnOracle, kind: str) -> np.ndarray:
    """Initial vectors: ``eJ[:amp]``, ``hf[:amp]``, or ``file:PATH``."""
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
            base = oracle
            while not isinstance(base, HubbardOracle):
                base = getattr(base, "base", None)
                if base is None:
                    raise UsageError("x0=hf needs a hubbard matrix source")
            x0[base.hf_index] = amp
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


def _add_matrix_args(parser):
    parser.add_argument("--matrix", help="dense symmetric matrix text file")
    parser.add_argument("--synthetic", help="spectrum spec, e.g. n=500,l1=108[,lo=..,hi=..,seed=..]")
    parser.add_argument("--hubbard", help="lattice spec, e.g. l1=4,l2=4,nup=3,ndown=3[,t=..,u=..]")
    parser.add_argument("--scale", type=float, default=1.0, help="use scale*A + shift*I")
    parser.add_argument("--shift", type=float, default=0.0)


def _add_run_args(parser):
    parser.add_argument("--method", required=True)
    parser.add_argument("--t", type=float, default=None, help="sampling power override")
    parser.add_argument("--k", type=int, default=1, help="coordinates per iteration")
    parser.add_argument("--gamma", type=float, default=None,
                        help="fixed stepsize; defaults to the safe bound")
    parser.add_argument("--replacement", type=_parse_bool, default=True)
    parser.add_argument("--averaged", type=_parse_bool, default=False)
    parser.add_argument("--x0", default="default",
                        help="eJ[:amp] | hf[:amp] | file:PATH (default e1, or hf:10 for hubbard)")
    parser.add_argument("--tol", type=_positive_float, default=1e-6)
    parser.add_argument("--max-col-access", type=_nonnegative_int, default=100_000_000)
    parser.add_argument("--seeds", type=_positive_int, default=20)
    parser.add_argument("--trace-stride", type=_nonnegative_int, default=0,
                        help="record every Nth iteration; 0 records none")
    parser.add_argument("--out", default=None, help="directory for trace/summary CSVs")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
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

# the keys of a bench method entry, with the type JSON must give each
_METHOD_KEYS = (("name", str), ("label", str), ("k", int), ("gamma", float),
                ("t", float), ("replacement", bool), ("averaged", bool))


def _config_value(section: dict, key: str, kind: type, default=None, *,
                  where: str = "bench config"):
    """``section[key]``, or ``default`` when absent or null, refused unless
    JSON gave it type ``kind``; a float key also takes an integer."""
    value = section.get(key)
    if value is None:
        return default
    if kind is float and type(value) is int:
        value = float(value)
    # bool is an int subclass, but true is not a count
    if type(value) is not kind:
        raise UsageError(f"{where}: {key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _run_one_method(oracle, name, args_like) -> StrategyConfig:
    config = parse_method(name, k=args_like.get("k", 1),
                          gamma=args_like.get("gamma"),
                          with_replacement=args_like.get("replacement", True),
                          averaged=args_like.get("averaged", False),
                          t=args_like.get("t"))
    if config.update == "fixed_grad" and config.gamma is None:
        config = dataclasses.replace(config, gamma=stepsize_bound(oracle)).validate()
    config.columns_per_step(oracle.dim)  # refuses a batch the operator cannot supply
    return config


def _checked_reference(oracle: ColumnOracle) -> ReferenceSolution:
    """The reference, refused when the runs or their metric would be meaningless."""
    reference = compute_reference(oracle)
    if not reference.lambda1 > 0:
        raise UsageError(f"no positive leading eigenvalue (lambda1 = {reference.lambda1:g})")
    # f* = ||A||_F^2 - lambda1^2 carries rounding of about n ulps of ||A||_F^2
    if abs(reference.fstar) <= oracle.dim * np.finfo(float).eps * reference.frob_sq:
        raise UsageError(
            f"f* = ||A||_F^2 - lambda1^2 = {reference.fstar:.3g} is rounding noise against "
            f"||A||_F^2 = {reference.frob_sq:.6g}: the matrix is rank one, and the relative "
            "gap eps_obj = sqrt((f - f*) / f*) is undefined for it")
    return reference


def cmd_solve(args) -> int:
    oracle, kind = _build_oracle(args)
    config = _run_one_method(oracle, args.method, vars(args))
    x0 = parse_x0(args.x0, oracle, kind)
    reference = _checked_reference(oracle)
    result = run_experiment(oracle, config, x0, args.tol, args.max_col_access,
                            seeds=args.seeds, reference=reference,
                            label=args.method, trace_stride=args.trace_stride)
    stats = result.stats
    best = min((o for o in result.outcomes if o.status == "converged"),
               key=lambda o: o.trace[-1].eps_obj)
    print(f"method={args.method} k={result.k} seeds_used={stats.seeds_used} "
          f"failed={stats.diverged_count}")
    print(f"iterations min/med/max = {stats.min_iters}/{stats.med_iters}/{stats.max_iters}")
    print(f"total_col_access = {stats.total_col_access}")
    rec = best.trace[-1]
    lam_hat = best.final_nu  # ||x||^2 estimates lambda_1 at convergence
    print(f"lambda_estimate = {lam_hat!r}")
    if args.scale != 1.0 or args.shift != 0.0:
        print(f"unshifted_eigenvalue = {(lam_hat - args.shift) / args.scale!r}")
    print(f"eps_obj = {rec.eps_obj!r}  eps_energy = {rec.eps_energy!r}  "
          f"eps_tan = {rec.eps_tan!r}")
    if args.out:
        emit_trace([result], args.out)
        print(f"traces written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("bench config: expected a JSON object")
    seeds = _config_value(cfg, "seeds", int, 20)
    tol = _config_value(cfg, "tol", float, 1e-6)
    budget = _config_value(cfg, "max_col_access", int, 100_000_000)
    stride = _config_value(cfg, "trace_stride", int, 0)
    for key, value, ok, rule in (("seeds", seeds, seeds >= 1, ">= 1"),
                                 ("tol", tol, tol > 0, "> 0"),
                                 ("max_col_access", budget, budget >= 0, ">= 0"),
                                 ("trace_stride", stride, stride >= 0, ">= 0")):
        if not ok:
            raise UsageError(f"bench config: {key} must be {rule}, got {value}")
    methods = _config_value(cfg, "methods", list)
    if not methods:
        raise UsageError("bench config: methods must list at least one method entry")
    ns = argparse.Namespace(
        **{key: _config_value(cfg, key, str) for key in ("matrix", "synthetic", "hubbard")},
        scale=_config_value(cfg, "scale", float, 1.0),
        shift=_config_value(cfg, "shift", float, 0.0))
    oracle, kind = _build_oracle(ns)
    x0 = parse_x0(_config_value(cfg, "x0", str, "default"), oracle, kind)
    configs = []
    for i, entry in enumerate(methods):
        where = f"bench config: methods[{i}]"
        if not isinstance(entry, dict) or entry.get("name") is None:
            raise UsageError(f"{where}: expected an object with a name, got {entry!r}")
        entry = {key: _config_value(entry, key, kind, where=where)
                 for key, kind in _METHOD_KEYS if entry.get(key) is not None}
        configs.append((entry, _run_one_method(oracle, entry["name"], entry)))
    reference = _checked_reference(oracle)
    out_dir = args.out or _config_value(cfg, "out", str, "bench-out")
    results = []
    failures = 0
    for entry, config in configs:
        name = entry["name"]
        label = entry.get("label", f"{name}-k{config.k}" if config.k > 1 else name)
        try:
            result = run_experiment(oracle, config, x0, tol, budget, seeds=seeds,
                                    reference=reference, label=label,
                                    trace_stride=stride)
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
    spec = LatticeSpec(l1=args.l[0], l2=args.l[1], n_up=args.nup,
                       n_down=args.ndown, t_hop=args.t, u=args.u)
    info = sector_info(spec, max_dim=args.max_dim)
    print(f"lattice {spec.l1}x{spec.l2}  t={spec.t_hop} U={spec.u}  "
          f"electrons {spec.n_up}+{spec.n_down}")
    print(f"sector momentum = {info.sector_momentum}")
    print(f"dim = {info.dim}")
    print(f"nnz per col min/med/max = {info.nnz_min}/{info.nnz_median}/{info.nnz_max}")
    print(f"diagonal range = [{info.diag_min}, {info.diag_max}]")
    print(f"hf determinant index = {info.hf_index}")
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
    _add_matrix_args(p_solve)
    _add_run_args(p_solve)
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
    p_info.add_argument("--t", type=float, default=1.0)
    p_info.add_argument("--u", type=float, default=4.0)
    p_info.add_argument("--max-dim", type=_positive_int, default=5_000_000)
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
