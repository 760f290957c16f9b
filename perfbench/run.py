"""Time-to-gap benchmark of the specbundle solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the solver is imported from its
``src/`` directory.  The process pins BLAS and OpenMP to one thread before
numpy loads, then solves the workload's instance in a closed loop, one
solve at a time, for ``--seconds``; before each solve the instance is set
up afresh five times (``setup_s`` is the median over the run).  Each
solve passes a correctness gate (finite objective, gap threshold reached,
descent bounds, recorded invariants where checked, exact counts equal
across the run's solves).

With ``--trace 0`` the figures are the end-to-end metrics, medians over
the run's solves.  With ``--trace 1`` untraced and traced solves alternate
and the figures are the per-layer metrics of the traced ones, plus the
tracing overhead against the untraced ones; the spans are written to
``perfbench/out/``.  Human-readable lines go first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See NOTES.md for the workloads and metrics.
"""

import os

# the BLAS thread count changes the solver's trajectory, so it is fixed
# before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_solver():
    """Put the checkout's src/ first on the path and import from it only."""
    if not (SRC / "specbundle" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no solver sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import specbundle
    if SRC not in Path(specbundle.__file__).resolve().parents:
        raise SystemExit(f"run.py: specbundle was imported from {specbundle.__file__}, not {SRC}")


def blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process
    (empty where the process map cannot be read)."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import harness
    import tracing

    wl = WORKLOADS[args.workload]
    env = environment()
    timings, outcomes = harness.measure(wl, wl.solver_config(args.seed), args.seconds,
                                        bool(args.trace))
    env["loadavg_after"] = os.getloadavg()
    print("env " + json.dumps(env))

    for k, o in enumerate(outcomes):
        kind = "traced" if o.traced else "timed"
        shown = {key: o.figures[key] for key in ("time_to_gap_s", "iters_to_gap",
                                                 "solve_s", "iterations") if key in o.figures}
        print(f"solve {k} {kind}: {json.dumps(shown)}"
              + (f" FAILED: {o.failure}" if o.failure else ""))

    # figures: every value each metric took in this run, from the solves
    # of the kind the mode reports and from the set-ups
    timed = [o for o in outcomes if not o.traced]
    traced = [o for o in outcomes if o.traced]
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    figures = {name: [o.figures[name] for o in (traced if args.trace else timed)
                      if name in o.figures] for name in units}
    for name in timings[0]:
        figures[name] = [t[name] for t in timings]
    if args.trace:
        figures["trace.overhead_pct"] = [100.0 * (
            statistics.median(o.solve_s for o in traced)
            / statistics.median(o.solve_s for o in timed) - 1.0)]
        HERE.joinpath("out").mkdir(exist_ok=True)
        t0 = time.perf_counter()
        nbytes = tracing.write_spans(HERE / "out" / f"{wl.name}-seed{args.seed}.spans.csv",
                                     [o.trace for o in traced if o.trace is not None])
        figures["traceio.write_s"] = [time.perf_counter() - t0]
        figures["traceio.bytes"] = [nbytes]

    metrics = {}
    for name, unit in units.items():
        values = figures.get(name) or []
        if values:
            q1, med, q3 = harness.quartiles(values)
            print(f"{name} = {med!r} {unit} (median of {len(values)}; quartiles {q1:.6g}, {q3:.6g})")
            metrics[name] = {"value": med, "unit": unit}
    failed = sum(o.failure is not None for o in outcomes)
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _import_solver()
    sys.exit(main())
