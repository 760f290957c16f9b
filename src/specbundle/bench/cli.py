"""Command-line front end.

Four subcommands:

* ``solve``: build one instance, run the bundle solver, write the
  per-iteration trace and a JSON summary, print final metrics.
* ``verify``: re-check a finished run, with its own settings, against the
  structural guarantees (descent-step bounds, recorded dominance/membership
  slacks, spectral accuracy sampling); nonzero exit when any check fails.
* ``sweep``: run a comma-separated list of bundle sizes over one
  instance and print an accuracy table, one row per (variant, size).
* ``plotdata``: reduce a trace to ``t, rel_gap`` rows, the relative
  distance of the reference objective from the optimum.

Instances come either from files (``--input``) or generators
(``--gen``): ``triangle`` or ``er,n=..,p=..,seed=..`` for max-cut,
``d=..,rank=..,pobs=..,seed=..`` for completion.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..bundle import SolverConfig, run
from .metrics import metrics_from_run
from .problems import (ParseError, build_completion, build_maxcut,
                       gen_completion, gen_er_graph, read_gset,
                       read_observations, triangle_graph)
from .reference import ReferenceValues, completion_reference, maxcut_reference
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
        kv = {"n": 100, "p": 0.1, "seed": 0, "weight": 1.0}
        kv.update(_parse_kv(rest, {"n": int, "p": float, "seed": int,
                                   "weight": float}, "er"))
        g = gen_er_graph(kv["n"], kv["p"], kv["seed"], weight=kv["weight"])
        return g, f"maxcut er n={kv['n']} p={kv['p']} seed={kv['seed']}"
    if input_path is not None:
        return read_observations(input_path), f"completion {input_path}"
    kv = {"d": 50, "rank": 3, "pobs": 0.3, "seed": 0}
    kv.update(_parse_kv(gen, {"d": int, "rank": int, "pobs": float,
                              "seed": int}, "completion"))
    inst = gen_completion(kv["d"], kv["rank"], kv["pobs"], kv["seed"])
    return inst, (f"completion d={kv['d']} rank={kv['rank']} "
                  f"pobs={kv['pobs']} seed={kv['seed']}")


def build_problem(problem, inst, alpha):
    if problem == "maxcut":
        return build_maxcut(inst, alpha=alpha)
    return build_completion(inst, alpha=alpha)


def make_references(problem, inst):
    if problem == "maxcut":
        refs, _ = maxcut_reference(inst)
        return refs
    return completion_reference(inst)


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


def _resolve_refs(args, problem, inst):
    if args.ref is not None:
        return load_references(args.ref)
    if args.auto_ref:
        return make_references(problem, inst)
    return None


def _add_instance_flags(p):
    p.add_argument("--problem", required=True, choices=("maxcut", "completion"))
    p.add_argument("--input", help="instance file (edge list or observation CSV)")
    p.add_argument("--gen", help="generator spec, e.g. 'triangle', "
                                 "'er,n=100,p=0.1,seed=0', 'd=50,rank=3,pobs=0.3,seed=0'")
    p.add_argument("--alpha", type=_alpha_arg, default="auto",
                   help="trace penalty, or 'auto' for the builder default")


def _add_solver_flags(p):
    p.add_argument("--rho", type=float, default=1.0, help="proximal weight")
    p.add_argument("--beta", type=float, default=0.25, help="descent parameter")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--inner-max-iter", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-gap", type=float, default=0.0,
                   help="stop once the combined optimality metric drops below this")
    p.add_argument("--check-invariants", action="store_true",
                   help="record model dominance and membership slacks while solving")
    p.add_argument("--ref", help="reference-values JSON produced by an earlier run")
    p.add_argument("--auto-ref", action="store_true",
                   help="compute reference values with the built-in oracle")


def cmd_solve(args):
    inst, label = make_instance(args.problem, args.gen, args.input)
    prob = build_problem(args.problem, inst, args.alpha)
    cfg = _config_from_args(args, args.variant, args.rbar)
    refs = _resolve_refs(args, args.problem, inst)
    t0 = time.perf_counter()
    result = run(prob, cfg)
    elapsed = time.perf_counter() - t0
    metrics = None
    if refs is not None:
        metrics = metrics_from_run(result, refs, float(np.linalg.norm(prob.b)))
    print(f"{label}: n={prob.n} m={prob.m} alpha={prob.alpha:g}")
    print(f"{cfg.variant} rbar={cfg.rbar}: {result.stats.iterations} iterations "
          f"({result.stats.descent_steps} descent), stop: {result.stats.stop_reason}, "
          f"{elapsed:.2f}s")
    print(f"final objective {result.state.F_y:.12g}")
    if metrics is not None:
        print(f"dual opt {metrics.dual_opt:.3e}  primal opt {metrics.primal_opt:.3e}  "
              f"primal feas {metrics.primal_feas:.3e}")
    for w in result.stats.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.trace:
        write_trace(args.trace, result.records, cfg.rbar)
        print(f"trace written to {args.trace}")
    if args.summary:
        write_summary(args.summary, summary_dict(
            cfg, result, refs=refs, metrics=metrics, problem_label=label,
            alpha_effective=prob.alpha))
        print(f"summary written to {args.summary}")
    if args.save_ref and refs is not None:
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


# BLAS thread settings that sweep workers start with: parallel workers that
# each run a multi-threaded BLAS oversubscribe the cores (a dense n=1000
# eigensolve went from 57 ms to 3.9 s beside one more BLAS-heavy process on
# two cores), and the thread count also changes the solver's trajectory
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _sweep_job(job):
    """One sweep run; also returns the BLAS thread setting it ran under."""
    prob, cfg = job
    t0 = time.perf_counter()
    result = run(prob, cfg)
    return (result, time.perf_counter() - t0,
            os.environ.get("OPENBLAS_NUM_THREADS", "unset"))


def _pool_map(jobs, workers):
    """``_sweep_job`` over ``jobs`` in freshly spawned worker processes,
    which inherit ``_WORKER_ENV`` (set here only while they start, since
    BLAS reads it once, when numpy loads)."""
    saved = {k: os.environ.get(k) for k in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(_sweep_job, jobs))
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def cmd_sweep(args):
    rbars = []
    for tok in args.rbar.split(","):
        try:
            rbars.append(int(tok))
        except ValueError:
            raise ValueError(f"--rbar takes a comma-separated list of sizes, got {tok!r}") from None
    variants = args.variants.split(",")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    inst, label = make_instance(args.problem, args.gen, args.input)
    prob = build_problem(args.problem, inst, args.alpha)
    refs = _resolve_refs(args, args.problem, inst)
    norm_b = float(np.linalg.norm(prob.b))

    jobs = []
    for variant in variants:
        for rbar in rbars:
            jobs.append((variant, rbar,
                         _config_from_args(args, variant, rbar)))
    if args.jobs > 1:
        outcomes = _pool_map([(prob, cfg) for _, _, cfg in jobs], args.jobs)
    else:
        outcomes = [_sweep_job((prob, cfg)) for _, _, cfg in jobs]
    threads = ",".join(sorted({t for _, _, t in outcomes}))

    print(f"{label}: n={prob.n} m={prob.m} alpha={prob.alpha:g}")
    print(f"jobs: {args.jobs}, BLAS threads per job: {threads}")
    header = (f"{'variant':<8} {'rbar':>4} {'iters':>5} {'descent':>7} "
              f"{'dual opt.':>11} {'primal opt.':>11} {'primal feas.':>12} {'time (s)':>9}")
    print(header)
    print("-" * len(header))
    for (variant, rbar, cfg), (result, elapsed, _) in zip(jobs, outcomes):
        metrics = metrics_from_run(result, refs, norm_b) if refs is not None else None
        if metrics is not None:
            cells = (f"{metrics.dual_opt:>11.3e} {metrics.primal_opt:>11.3e} "
                     f"{metrics.primal_feas:>12.3e}")
        else:
            cells = f"{'-':>11} {'-':>11} {'-':>12}"
        print(f"{variant:<8} {rbar:>4} {result.stats.iterations:>5} "
              f"{result.stats.descent_steps:>7} {cells} {elapsed:>9.2f}")
        if args.out_dir:
            stem = f"{args.out_dir}/{args.problem}_{variant}_r{rbar}"
            write_trace(stem + ".csv", result.records, cfg.rbar)
            summary = summary_dict(cfg, result, refs=refs, metrics=metrics,
                                   problem_label=label, alpha_effective=prob.alpha)
            summary["blas_threads"] = threads
            write_summary(stem + ".json", summary)
    return 0


def cmd_plotdata(args):
    records, _ = read_trace(args.trace)
    if args.ref is not None:
        d_star = load_references(args.ref).d_star
    elif args.d_star is not None:
        d_star = args.d_star
    else:
        raise ValueError("pass --ref or --d-star for the gap denominator")
    denom = abs(d_star) if d_star != 0.0 else 1.0
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(out)
        w.writerow(["t", "rel_gap"])
        if records:
            w.writerow([0, format((records[0].F_y - d_star) / denom, ".17g")])
        for rec in records:
            f_ref = rec.F_z if rec.descent else rec.F_y
            w.writerow([rec.t, format((f_ref - d_star) / denom, ".17g")])
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
    p.add_argument("--variant", default="block", choices=("block", "hr", "hybrid"))
    p.add_argument("--rbar", type=int, default=1, help="bundle size")
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
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (spawned, one BLAS thread each)")
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
