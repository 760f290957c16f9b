"""Recompute the committed max-cut references under perfbench/refs/.

    python3 perfbench/make_refs.py

Runs ``maxcut_reference`` (factor coordinate ascent, oracle seed equal to
the graph seed) once per max-cut workload and writes the values with the
instance fingerprint and their provenance.  The n=1000 graph takes about
a minute on one core; the benchmark itself never calls the oracle.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import scipy

from specbundle.bench import maxcut_reference
from workloads import REF_DIR, WORKLOADS, fingerprint, instance


def main():
    REF_DIR.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        if wl.family != "maxcut":
            continue
        g = instance(wl)
        t0 = time.perf_counter()
        refs, _ = maxcut_reference(g, seed=wl.gen["seed"])
        elapsed = time.perf_counter() - t0
        data = {
            "instance": {"family": "maxcut", "generator": "gen_er_graph", **wl.gen},
            "fingerprint": fingerprint(g),
            "refs": refs.to_dict(),
            "provenance": {
                "call": f"maxcut_reference(gen_er_graph({wl.gen['n']}, {wl.gen['p']}, "
                        f"{wl.gen['seed']}), seed={wl.gen['seed']})",
                "oracle_s": round(elapsed, 1),
                "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas_threads": 1,
            },
        }
        path = wl.ref_path()
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        print(f"{path.name}: d*={refs.d_star!r} rank={refs.rank} in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
