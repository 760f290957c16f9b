"""Write the seed-0 solve traces and summaries of the four benchmark
workloads, of sixteen small runs and of one run on the Lanczos path, and
the artifacts of the command-line front end on two small instances.

    python3 tools/seed_traces.py OUTDIR [--write MANIFEST | --check MANIFEST]

Solves each workload of ``perfbench/workloads.py`` once, at seed 0, with
the solver from this checkout's ``src/``, through the command-line front
end's ``_solve_and_record``, and writes its ``write_trace`` CSV to
``OUTDIR/<workload>.csv`` and its ``summary_dict`` (invariant slacks,
warnings, stop reason, ``max_norm_y``, final objective) to
``OUTDIR/<workload>.json``.

It then writes the same two files to ``OUTDIR/small/<name>.csv|json``
for sixteen small runs on max-cut over an Erdos-Renyi graph (n=30,
p=0.2, seed 0) and matrix completion (d=8, rank 2, p_obs 0.5, seed 0):
each with the block, hr and hybrid rules at ``rbar=3`` in explicit and
in compressed storage (``sketch_rank=3``), and each with the block and
hr rules at ``rbar=1`` in explicit storage, so every bundle has width 1
(files ``<problem>-<rule>-rbar1``); all with ``max_iters=60``,
``inner_max_iter=60`` (so inner-solver cap warnings occur) and the
invariant diagnostics on.

Last, it writes ``OUTDIR/lanczos/maxcut-450-block-compressed.csv|json``:
max-cut over an Erdos-Renyi graph (n=450, p=0.02, seed 0), above the
order where the objective's eigensolve switches from dense ``eigh`` to
Lanczos on a sparse slack, block rule at ``rbar=2``, ``rho=1``,
compressed storage (``sketch_rank=5``), 30 steps.

Then it runs the command-line front end, through ``specbundle.bench.cli.main``
alone, on the same max-cut graph (n=30) and completion instance (d=8),
each with ``max_iters=60`` and ``inner_max_iter=60``, and writes under
``OUTDIR/cli/``: ``<problem>.csv|json`` and ``<problem>-ref.json`` from a
block ``solve --rbar 3 --auto-ref --check-invariants --trace --summary
--save-ref``; ``<problem>-sweep/`` from a ``sweep --variants
block,hr --rbar 1,3 --ref <problem>-ref.json --check-invariants
--out-dir``; and ``<problem>-gap.csv`` from ``plotdata --ref`` on the
solve's trace.  The commands' printed output, which holds wall times, is
not written.

Both files write floats that parse back to the same bits (17 significant
digits in the CSV, Python's round-trip ``repr`` in the JSON), so two
checkouts that run the same arithmetic give byte-identical files.  The
committed manifest ``tools/seed_traces.manifest.json`` holds the sha256 of
each file and the environment that wrote them, and a change that must leave
the iterates alone is checked against it with

    python3 tools/seed_traces.py OUTDIR --check tools/seed_traces.manifest.json

which exits 1 and names each file that differs, is missing or is extra,
and exits 2 without comparing when this environment (numpy and scipy
versions, BLAS name and version, OpenBLAS core of each loaded library)
differs from the manifest's, since another BLAS build or kernel may round
differently.  A change that moves bits rewrites the manifest with

    python3 tools/seed_traces.py OUTDIR --write tools/seed_traces.manifest.json

BLAS and OpenMP are pinned to one thread before numpy loads, as in
``perfbench/run.py``, because the thread count changes the trajectory.
All thirty-one solves, with the check, take about 18 s on a 2-vCPU VM.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from specbundle import SolverConfig  # noqa: E402
from specbundle.bench import (build_completion, build_maxcut, gen_completion,  # noqa: E402
                              gen_er_graph)
from specbundle.bench.cli import _solve_and_record, main as cli_main  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402


def small_runs():
    """(name, problem, config) of the sixteen small runs."""
    probs = (("maxcut-30", build_maxcut(gen_er_graph(30, 0.2, 0))),
             ("completion-8", build_completion(gen_completion(8, 2, 0.5, 0))))
    storages = (("explicit", {}), ("compressed", dict(storage="compressed", sketch_rank=3)))
    for pname, prob in probs:
        for variant in ("block", "hr", "hybrid"):
            for sname, kw in storages:
                cfg = SolverConfig(variant=variant, rbar=3, max_iters=60, inner_max_iter=60,
                                   check_invariants=True, **kw)
                yield f"{pname}-{variant}-{sname}", prob, cfg
        for variant in ("block", "hr"):
            cfg = SolverConfig(variant=variant, rbar=1, max_iters=60, inner_max_iter=60,
                               check_invariants=True)
            yield f"{pname}-{variant}-rbar1", prob, cfg


def lanczos_run():
    """(name, problem, config) of the run on the Lanczos path."""
    cfg = SolverConfig(variant="block", rbar=2, rho=1.0, max_iters=30,
                       storage="compressed", sketch_rank=5)
    return "maxcut-450-block-compressed", build_maxcut(gen_er_graph(450, 0.02, 0)), cfg


def write_run(out, name, prob, cfg):
    """Solve and write the trace and summary through the command-line
    front end's own record path, without references."""
    path = out / f"{name}.csv"
    res, _, _ = _solve_and_record(prob, cfg, None, "", str(path), str(out / f"{name}.json"))
    print(f"{name}: {len(res.records)} iterations -> {path}")


def cli_runs(out):
    """Write the artifacts of the command-line runs under ``out``."""
    for problem, gen in (("maxcut", "er,n=30,p=0.2,seed=0"),
                         ("completion", "d=8,rank=2,pobs=0.5,seed=0")):
        stem = str(out / problem)
        common = ["--problem", problem, "--gen", gen, "--max-iters", "60",
                  "--inner-max-iter", "60", "--check-invariants"]
        for argv in (["solve", *common, "--rbar", "3", "--auto-ref", "--trace", stem + ".csv",
                      "--summary", stem + ".json", "--save-ref", stem + "-ref.json"],
                     ["sweep", *common, "--variants", "block,hr", "--rbar", "1,3",
                      "--ref", stem + "-ref.json", "--out-dir", stem + "-sweep"],
                     ["plotdata", "--trace", stem + ".csv", "--ref", stem + "-ref.json",
                      "--out", stem + "-gap.csv"]):
            if cli_main(argv) != 0:
                raise SystemExit(f"seed_traces.py: specbundle {' '.join(argv)} failed")


def environment():
    """What the traces' bits depend on besides the source: numpy and scipy
    versions, the BLAS that numpy was built with, and the core that each
    loaded OpenBLAS library dispatches to (empty where the process map
    cannot be read)."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cores = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                cores[Path(path).name] = fn().decode()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "openblas_cores": cores}


def digests(outdir):
    """sha256 of each file under ``outdir``, keyed by its relative path."""
    root = Path(outdir)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_manifest(outdir, manifest, env):
    """Record the digests of the files under ``outdir`` and ``env`` in ``manifest``."""
    Path(manifest).write_text(json.dumps({"environment": env, "files": digests(outdir)},
                                         indent=1, sort_keys=True) + "\n")


def same_environment(manifest, env):
    """Whether ``manifest`` was written in the environment ``env``; prints
    both to stderr when it was not."""
    want = json.loads(Path(manifest).read_text())["environment"]
    if want != env:
        print(f"seed_traces.py: environment differs from {manifest}, not comparing:\n"
              f"  manifest: {json.dumps(want, sort_keys=True)}\n"
              f"  here:     {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    return want == env


def check_manifest(outdir, manifest, env):
    """Compare the files under ``outdir`` with ``manifest``, printing each
    file that differs, is missing or is extra.  Returns 0 when all match,
    1 when any does not, and 2, without comparing, when ``env`` is not the
    manifest's environment."""
    if not same_environment(manifest, env):
        return 2
    want = json.loads(Path(manifest).read_text())
    have = digests(outdir)
    bad = [f"differs: {k}" for k in sorted(want["files"].keys() & have.keys())
           if want["files"][k] != have[k]]
    bad += [f"missing: {k}" for k in sorted(want["files"].keys() - have.keys())]
    bad += [f"extra: {k}" for k in sorted(have.keys() - want["files"].keys())]
    for line in bad:
        print(line)
    print(f"{len(have)} files, {len(bad)} not as in {manifest}")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for the <workload>.csv/.json files")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--write", metavar="MANIFEST",
                      help="record the files' digests and the environment in MANIFEST")
    mode.add_argument("--check", metavar="MANIFEST",
                      help="compare the files with MANIFEST (exit 1 on a difference)")
    args = ap.parse_args(argv)
    env = environment()
    if args.check and not same_environment(args.check, env):
        return 2    # before the solves, which another environment makes moot
    out = Path(args.outdir)
    (out / "small").mkdir(parents=True, exist_ok=True)
    (out / "lanczos").mkdir(exist_ok=True)
    (out / "cli").mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        write_run(out, name, set_up(wl).prob, wl.solver_config(0))
    for name, prob, cfg in small_runs():
        write_run(out / "small", name, prob, cfg)
    write_run(out / "lanczos", *lanczos_run())
    cli_runs(out / "cli")
    if args.write:
        write_manifest(out, args.write, env)
    elif args.check:
        return check_manifest(out, args.check, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
