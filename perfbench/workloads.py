"""The benchmark's workloads and their set-up.

Each workload is one fixed instance, one solver configuration and one
relative-gap threshold.  The instances do not change with the run's seed:
relabelling the vertices of the n=200 graph moved its gap crossing from
step 94 to step 105, because eigenvector sign conventions and warm starts
depend on the labelling, so a drawn instance would measure the draw rather
than the code.  The seed goes to the solver's own random streams (sketch
test matrices, invariant probe directions), which never feed back into the
iterates; iteration counts are therefore identical on every run.

Max-cut references are committed under ``refs/`` (see ``make_refs.py``),
so set-up never runs the reference oracle.  Each file carries a
fingerprint of the instance it belongs to and is refused for any other.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from specbundle import SolverConfig
from specbundle.bench import (ReferenceValues, build_completion, build_maxcut,
                              completion_reference, gen_completion, gen_er_graph)

REF_DIR = Path(__file__).resolve().parent / "refs"


class ReferenceMismatch(ValueError):
    """A committed reference belongs to another instance."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    family is "maxcut" (``gen`` holds n, p, seed of an Erdos-Renyi graph)
    or "completion" (``gen`` holds d, rank, p_obs, seed).  ``config`` holds
    the SolverConfig fields; ``gap`` is the relative-gap threshold that
    defines time_to_gap_s.
    """

    name: str
    family: str
    gen: dict
    config: dict
    gap: float

    def solver_config(self, seed):
        return SolverConfig(seed=seed, **self.config)

    def ref_path(self):
        g = self.gen
        return REF_DIR / f"maxcut-er-n{g['n']}-p{g['p']}-s{g['seed']}.json"


WORKLOADS = {w.name: w for w in (
    # inner-QP bound: solve_subproblem takes about 97% of the solve
    Workload("maxcut-200-block", "maxcut", dict(n=200, p=0.1, seed=2),
             dict(variant="block", rbar=7, rho=0.5, target_gap=1e-4, max_iters=200),
             gap=1e-6),
    # eigensolve bound (dense top_eigs, slack assembly); the only sketch run
    Workload("maxcut-1000-sketch", "maxcut", dict(n=1000, p=0.01, seed=0),
             dict(variant="block", rbar=2, rho=1.0, storage="compressed",
                  sketch_rank=5, max_iters=100),
             gap=1e-2),
    # invariant diagnostics on, m=6600 constraints for the congruence
    Workload("completion-150-verified", "completion",
             dict(d=150, rank=3, p_obs=0.3, seed=0),
             dict(variant="block", rbar=3, rho=5.0, target_gap=1e-5,
                  check_invariants=True, max_iters=200),
             gap=1e-6),
    # the paper's hr recycling rule: eigh(S), orthonormalize, partial aggregate
    Workload("maxcut-100-hr", "maxcut", dict(n=100, p=0.1, seed=2),
             dict(variant="hr", rbar=3, rho=0.5, max_iters=100),
             gap=1e-2),
)}


def instance(wl):
    g = wl.gen
    if wl.family == "maxcut":
        return gen_er_graph(g["n"], g["p"], g["seed"])
    return gen_completion(g["d"], g["rank"], g["p_obs"], g["seed"])


def fingerprint(graph):
    """Vertex count, edge count and a hash of the canonical edge array."""
    edges = np.ascontiguousarray(graph.edges, dtype="<f8")
    return {"n": int(graph.n), "edges": int(edges.shape[0]),
            "sha256": hashlib.sha256(edges.tobytes()).hexdigest()}


def load_reference(path, graph):
    """Reference values from a committed file, refused unless its
    fingerprint matches ``graph``."""
    with open(path) as fh:
        data = json.load(fh)
    want = fingerprint(graph)
    if data.get("fingerprint") != want:
        raise ReferenceMismatch(
            f"{Path(path).name} was computed for {data.get('fingerprint')}, "
            f"the instance is {want}")
    return ReferenceValues.from_dict(data["refs"])


@dataclass(eq=False)
class SetUp:
    """A built problem and its reference, with the time each part took."""

    prob: object
    refs: ReferenceValues
    gen_s: float
    build_s: float
    ref_load_s: float

    @property
    def total_s(self):
        return self.gen_s + self.build_s + self.ref_load_s


def set_up(wl):
    """Generate the instance, build the SDP and load its reference."""
    t0 = time.perf_counter()
    inst = instance(wl)
    t1 = time.perf_counter()
    prob = build_maxcut(inst) if wl.family == "maxcut" else build_completion(inst)
    t2 = time.perf_counter()
    if wl.family == "maxcut":
        refs = load_reference(wl.ref_path(), inst)
    else:
        refs = completion_reference(inst)
    t3 = time.perf_counter()
    return SetUp(prob, refs, t1 - t0, t2 - t1, t3 - t2)
