"""Command-line front end: ``solve``, ``verify``, ``sweep`` and ``plotdata``,
each described by ``build_parser``.  ``verify`` re-checks a finished run,
with its own settings, against ``verify_run`` and exits 1 when a check
fails; every command exits 2 on bad flags or input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from ..bundle import _VARIANTS, SolverConfig, run
from .problems import (ParseError, build_completion, build_maxcut,
                       gen_completion, gen_er_graph, read_gset,
                       read_observations, triangle_graph)
from .reference import (ReferenceValues, compute_metrics, completion_reference,
                        maxcut_reference, rel_gap)
from .traceio import (TraceFormatError, read_summary, read_trace,
                      summary_dict, write_summary, write_trace)
from .verify import verify_run


def _parse_kv(text, types, label):
    """Parse 'k=v,k=v' against a dict of allowed keys and their types."""
    out = {}
    if not text:
        return out
    for item in text.split(","):
        key, sep, val = item.partition("=")
        if not sep or key not in types:
            raise ValueError(
                f"bad {label} parameter {item!r}; allowed keys: {', '.join(types)}")
        try:
            out[key] = types[key](val)
        except ValueError:
            raise ValueError(f"bad value in {label} parameter {item!r}") from None
    return out


def make_instance(problem, gen, input_path):
    """Instance plus a short label from --gen/--input flags."""
    if (gen is None) == (input_path is None):
        raise ValueError("pass exactly one of --gen and --input")
    if problem == "maxcut":
        if input_path is not None:
            return read_gset(input_path), f"maxcut {input_path}"
        if gen == "triangle":
            return triangle_graph(), "maxcut triangle"
        head, _, rest = gen.partition(",")
        if head != "er":
            raise ValueError(f"unknown max-cut generator {gen!r}; use 'triangle' or 'er,...'")
        kv = {"n": 100, "p": 0.1, "seed": 0}
        kv.update(_parse_kv(rest, {"n": int, "p": float, "seed": int}, "er"))
        g = gen_er_graph(kv["n"], kv["p"], kv["seed"])
        return g, f"maxcut er n={kv['n']} p={kv['p']} seed={kv['seed']}"
    if input_path is not None:
        return read_observations(input_path), f"completion {input_path}"
    kv = {"d": 50, "rank": 3, "pobs": 0.3, "seed": 0}
    kv.update(_parse_kv(gen, {"d": int, "rank": int, "pobs": float,
                              "seed": int}, "completion"))
    inst = gen_completion(kv["d"], kv["rank"], kv["pobs"], kv["seed"])
    return inst, (f"completion d={kv['d']} rank={kv['rank']} "
                  f"pobs={kv['pobs']} seed={kv['seed']}")


def load_references(path):
    with open(path) as fh:
        return ReferenceValues.from_dict(json.load(fh))


def _alpha_arg(text):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float or 'auto', got {text!r}") from None


def _config_from_args(args, variant, rbar):
    storage = "explicit"
    sketch_rank = None
    sketch = getattr(args, "sketch", "off")
    if sketch != "off":
        try:
            sketch_rank = int(sketch)
        except ValueError:
            raise ValueError(f"--sketch takes a rank or 'off', got {sketch!r}") from None
        storage = "compressed"
    return SolverConfig(
        variant=variant, beta=args.beta, rho=args.rho, rbar=rbar,
        max_iters=args.max_iters, inner_max_iter=args.inner_max_iter,
        storage=storage, sketch_rank=sketch_rank,
        target_gap=args.target_gap, seed=args.seed,
        check_invariants=args.check_invariants,
    ).validate()


def _set_up(args):
    """(problem, label, references or None) from the instance and
    reference flags of ``solve`` and ``sweep``."""
    inst, label = make_instance(args.problem, args.gen, args.input)
    if args.problem == "maxcut":
        prob = build_maxcut(inst, alpha=args.alpha)
    else:
        prob = build_completion(inst, alpha=args.alpha)
    refs = None
    if args.ref is not None:
        refs = load_references(args.ref)
    elif args.auto_ref and args.problem == "maxcut":
        refs, _ = maxcut_reference(inst)
    elif args.auto_ref:
        refs = completion_reference(inst)
    return prob, label, refs


def _solve_and_record(prob, cfg, refs, label, trace=None, summary=None):
    """Solve ``prob`` under ``cfg``, score the run against ``refs`` on its
    last iteration (the trace's tail), and write its trace and summary to
    the paths given; returns the result, its wall time and the metrics
    (None without references)."""
    t0 = time.perf_counter()
    result = run(prob, cfg)
    elapsed = time.perf_counter() - t0
    metrics = None
    if refs is not None:
        rec = result.records[-1]
        metrics = compute_metrics(result.state.F_y, rec.pval, rec.feas,
                                  float(np.linalg.norm(prob.b)), refs)
    if trace:
        write_trace(trace, result.records, cfg.rbar)
    if summary:
        write_summary(summary, summary_dict(cfg, result, refs=refs, metrics=metrics,
                                            problem_label=label,
                                            alpha_effective=prob.alpha))
    return result, elapsed, metrics


# the solver flags' defaults
_DEFAULT = SolverConfig()


def _add_instance_flags(p):
    p.add_argument("--problem", required=True, choices=("maxcut", "completion"))
    p.add_argument("--input", help="instance file (edge list or observation CSV)")
    p.add_argument("--gen", help="generator spec, e.g. 'triangle', "
                                 "'er,n=100,p=0.1,seed=0', 'd=50,rank=3,pobs=0.3,seed=0'")
    p.add_argument("--alpha", type=_alpha_arg, default="auto",
                   help="trace penalty, or 'auto' for the builder default")


def _add_solver_flags(p):
    p.add_argument("--rho", type=float, default=_DEFAULT.rho, help="proximal weight")
    p.add_argument("--beta", type=float, default=_DEFAULT.beta, help="descent parameter")
    p.add_argument("--max-iters", type=int, default=_DEFAULT.max_iters)
    p.add_argument("--inner-max-iter", type=int, default=_DEFAULT.inner_max_iter)
    p.add_argument("--seed", type=int, default=_DEFAULT.seed)
    p.add_argument("--target-gap", type=float, default=_DEFAULT.target_gap,
                   help="stop once the combined optimality metric drops below this")
    p.add_argument("--check-invariants", action="store_true",
                   help="record model dominance and membership slacks while solving")
    p.add_argument("--ref", help="reference-values JSON produced by an earlier run")
    p.add_argument("--auto-ref", action="store_true",
                   help="compute reference values with the built-in oracle")


def cmd_solve(args):
    if args.save_ref and args.ref is None and not args.auto_ref:
        raise ValueError("--save-ref needs --ref or --auto-ref")
    cfg = _config_from_args(args, args.variant, args.rbar)
    prob, label, refs = _set_up(args)
    result, elapsed, metrics = _solve_and_record(prob, cfg, refs, label,
                                                 args.trace, args.summary)
    print(f"{label}: n={prob.n} m={prob.m} alpha={prob.alpha:g}")
    print(f"{cfg.variant} rbar={cfg.rbar}: {result.stats.iterations} iterations "
          f"({result.stats.descent_steps} descent), stop: {result.stats.stop_reason}, "
          f"{elapsed:.2f}s")
    print(f"final objective {result.state.F_y:.12g}")
    if metrics is not None:
        print(f"dual opt {metrics['dual_opt']:.3e}  primal opt {metrics['primal_opt']:.3e}  "
              f"primal feas {metrics['primal_feas']:.3e}")
    for w in result.stats.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.summary:
        print(f"summary written to {args.summary}")
    if args.save_ref:
        with open(args.save_ref, "w") as fh:
            json.dump(refs.to_dict(), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_verify(args):
    records, _ = read_trace(args.trace)
    summary = read_summary(args.summary)
    if args.ref is not None:
        refs = load_references(args.ref)
    elif summary.get("refs"):
        refs = ReferenceValues.from_dict(summary["refs"])
    else:
        raise ValueError("no reference values: pass --ref or solve with --auto-ref")
    conf = summary["config"]
    rep = verify_run(records, refs, conf["rho"], conf["beta"], summary["alpha_effective"],
                     summary["max_norm_y"], invariants=summary.get("invariants"))
    for line in rep.lines():
        print(line)
    return 0 if rep.passed else 1


def cmd_sweep(args):
    rbars = []
    for tok in args.rbar.split(","):
        try:
            rbars.append(int(tok))
        except ValueError:
            raise ValueError(f"--rbar takes a comma-separated list of sizes, got {tok!r}") from None
    cfgs = [_config_from_args(args, variant, rbar)
            for variant in args.variants.split(",") for rbar in rbars]
    prob, label, refs = _set_up(args)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    print(f"{label}: n={prob.n} m={prob.m} alpha={prob.alpha:g}")
    header = (f"{'variant':<8} {'rbar':>4} {'iters':>5} {'descent':>7} "
              f"{'dual opt.':>11} {'primal opt.':>11} {'primal feas.':>12} {'time (s)':>9}")
    print(header)
    print("-" * len(header))
    for cfg in cfgs:
        trace = summary = None
        if args.out_dir:
            stem = f"{args.out_dir}/{args.problem}_{cfg.variant}_r{cfg.rbar}"
            trace, summary = stem + ".csv", stem + ".json"
        result, elapsed, metrics = _solve_and_record(prob, cfg, refs, label, trace, summary)
        if metrics is not None:
            cells = (f"{metrics['dual_opt']:>11.3e} {metrics['primal_opt']:>11.3e} "
                     f"{metrics['primal_feas']:>12.3e}")
        else:
            cells = f"{'-':>11} {'-':>11} {'-':>12}"
        print(f"{cfg.variant:<8} {cfg.rbar:>4} {result.stats.iterations:>5} "
              f"{result.stats.descent_steps:>7} {cells} {elapsed:>9.2f}", flush=True)
    return 0


def cmd_plotdata(args):
    if (args.ref is None) == (args.d_star is None):
        raise ValueError("pass exactly one of --ref or --d-star for the gap denominator")
    d_star = args.d_star if args.ref is None else load_references(args.ref).d_star
    records, _ = read_trace(args.trace)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["t", "rel_gap"])
        if records:
            w.writerow([0, format(rel_gap(records[0].F_y, d_star), ".17g")])
        for rec in records:
            f_ref = rec.F_z if rec.descent else rec.F_y
            w.writerow([rec.t, format(rel_gap(f_ref, d_star), ".17g")])
    finally:
        if args.out:
            out.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specbundle",
        description="spectral bundle solver for penalized-dual semidefinite programs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver on one instance")
    _add_instance_flags(p)
    p.add_argument("--variant", default=_DEFAULT.variant, choices=_VARIANTS)
    p.add_argument("--rbar", type=int, default=_DEFAULT.rbar, help="bundle size")
    _add_solver_flags(p)
    p.add_argument("--sketch", default="off",
                   help="sketch rank for compressed primal tracking, or 'off'")
    p.add_argument("--trace", help="write the per-iteration CSV trace here")
    p.add_argument("--summary", help="write the JSON run summary here")
    p.add_argument("--save-ref", help="write computed reference values here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a finished run's guarantees")
    p.add_argument("--trace", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--ref", help="reference-values JSON (defaults to the summary's)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="bundle-size sweep with an accuracy table")
    _add_instance_flags(p)
    p.add_argument("--rbar", default="2,3,4", help="comma-separated bundle sizes")
    p.add_argument("--variants", default="block,hr",
                   help="comma-separated variants to sweep")
    _add_solver_flags(p)
    p.add_argument("--out-dir", help="write one trace and summary per run here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plotdata", help="emit t,rel_gap rows from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--ref", help="reference-values JSON")
    p.add_argument("--d-star", type=float, default=None,
                   help="optimal value to measure the gap against")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TraceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
