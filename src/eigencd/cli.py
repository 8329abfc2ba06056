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
from .operators import (ColumnOracle, SpectrumSpec, build_synthetic,
                        load_dense, save_dense, shift_scale)

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
    if pick != "pm":
        config.validate()
    return config


def _parse_kv(spec: str, what: str) -> dict[str, str]:
    out = {}
    for part in spec.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"bad {what} spec {spec!r}: expected key=value pairs")
        out[key.strip()] = value.strip()
    return out


def parse_synthetic(spec: str) -> SpectrumSpec:
    kv = _parse_kv(spec, "synthetic")
    try:
        n = int(kv.pop("n"))
        lam1 = float(kv.pop("l1"))
    except KeyError as exc:
        raise UsageError(f"synthetic spec needs n= and l1=: {spec!r}") from exc
    low = float(kv.pop("lo", 1.0))
    high = float(kv.pop("hi", 100.0))
    seed = int(kv.pop("seed", 0))
    if kv:
        raise UsageError(f"unknown synthetic keys {sorted(kv)}")
    return SpectrumSpec.gapped_grid(n, lam1, low, high, seed=seed)


def parse_hubbard(spec: str) -> LatticeSpec:
    kv = _parse_kv(spec, "hubbard")
    try:
        return LatticeSpec(
            l1=int(kv.pop("l1")), l2=int(kv.pop("l2")),
            n_up=int(kv.pop("nup")), n_down=int(kv.pop("ndown")),
            t_hop=float(kv.pop("t", 1.0)), u=float(kv.pop("u", 4.0)),
        )
    except KeyError as exc:
        raise UsageError(f"hubbard spec needs l1=, l2=, nup=, ndown=: {spec!r}") from exc


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
    scale = getattr(args, "scale", 1.0)
    shift = getattr(args, "shift", 0.0)
    if scale != 1.0 or shift != 0.0:
        oracle = shift_scale(oracle, scale, shift)
    return oracle, src


def parse_x0(spec: str, oracle: ColumnOracle, kind: str) -> np.ndarray:
    """Initial vectors: ``eJ[:amp]``, ``hf[:amp]``, or ``file:PATH``."""
    if spec == "default":
        spec = "hf:10" if kind == "hubbard" else "e1"
    if spec.startswith("file:"):
        x0 = np.loadtxt(spec[5:]).astype(float)
        if x0.shape != (oracle.dim,):
            raise UsageError(f"x0 file has shape {x0.shape}, expected ({oracle.dim},)")
    else:
        x0 = np.zeros(oracle.dim)
        body, _, amp_str = spec.partition(":")
        amp = float(amp_str) if amp_str else 1.0
        if body == "hf":
            base = oracle
            while not isinstance(base, HubbardOracle):
                base = getattr(base, "base", None)
                if base is None:
                    raise UsageError("x0=hf needs a hubbard matrix source")
            x0[base.hf_index] = amp
        elif body.startswith("e"):
            idx = int(body[1:]) - 1  # e1 is the first coordinate
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


def _run_one_method(oracle, name, args_like) -> StrategyConfig:
    config = parse_method(name, k=args_like.get("k", 1),
                          gamma=args_like.get("gamma"),
                          with_replacement=args_like.get("replacement", True),
                          averaged=args_like.get("averaged", False),
                          t=args_like.get("t"))
    if config.update == "fixed_grad" and config.gamma is None:
        config = dataclasses.replace(config, gamma=stepsize_bound(oracle))
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
    seeds = int(cfg.get("seeds", 20))
    tol = float(cfg.get("tol", 1e-6))
    budget = int(cfg.get("max_col_access", 100_000_000))
    stride = int(cfg.get("trace_stride", 0))
    for key, value, ok, rule in (("seeds", seeds, seeds >= 1, ">= 1"),
                                 ("tol", tol, tol > 0, "> 0"),
                                 ("max_col_access", budget, budget >= 0, ">= 0"),
                                 ("trace_stride", stride, stride >= 0, ">= 0")):
        if not ok:
            raise UsageError(f"bench config: {key} must be {rule}, got {value}")
    ns = argparse.Namespace(
        matrix=cfg.get("matrix"), synthetic=cfg.get("synthetic"),
        hubbard=cfg.get("hubbard"), scale=cfg.get("scale", 1.0),
        shift=cfg.get("shift", 0.0))
    oracle, kind = _build_oracle(ns)
    x0 = parse_x0(cfg.get("x0", "default"), oracle, kind)
    reference = _checked_reference(oracle)
    out_dir = args.out or cfg.get("out", "bench-out")
    results = []
    failures = 0
    for entry in cfg["methods"]:
        name = entry["name"]
        config = _run_one_method(oracle, name, entry)
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
    p_info.add_argument("--max-dim", type=int, default=5_000_000)
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
