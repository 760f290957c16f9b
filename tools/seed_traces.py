"""Write the seed-0 solve traces and summaries of the four benchmark workloads.

    python3 tools/seed_traces.py OUTDIR

Solves each workload of ``perfbench/workloads.py`` once, at seed 0, with
the solver from this checkout's ``src/``, and writes its ``write_trace``
CSV to ``OUTDIR/<workload>.csv`` and its ``summary_dict`` (invariant
slacks, warnings, stop reason, ``max_norm_y``, final objective) to
``OUTDIR/<workload>.json``.  Both files write floats that parse back to
the same bits (17 significant digits in the CSV, Python's round-trip
``repr`` in the JSON), so two checkouts that run the same arithmetic
give byte-identical files, and a change that must leave the iterates
alone is checked with

    python3 tools/seed_traces.py /tmp/before     # in the parent checkout
    python3 tools/seed_traces.py /tmp/after      # in the changed checkout
    diff -r /tmp/before /tmp/after

BLAS and OpenMP are pinned to one thread before numpy loads, as in
``perfbench/run.py``, because the thread count changes the trajectory.
The four solves take about half a minute on two cores.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from specbundle import run  # noqa: E402
from specbundle.bench import summary_dict, write_summary, write_trace  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", help="directory for the <workload>.csv/.json files")
    args = ap.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, wl in WORKLOADS.items():
        cfg = wl.solver_config(0)
        prob = set_up(wl).prob
        res = run(prob, cfg)
        path = out / f"{name}.csv"
        write_trace(str(path), res.records, cfg.rbar)
        write_summary(str(out / f"{name}.json"),
                      summary_dict(cfg, res, alpha_effective=prob.alpha))
        print(f"{name}: {len(res.records)} iterations -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
