"""Public export lists, the solver configuration's fields, and the
benchmark tracer's hooks.

``perfbench/tracing.py`` rebinds solver callables by name for the duration
of a traced solve, so renaming or deleting one of them breaks every traced
benchmark run.  The benchmark's own tests live in a separate pytest session
(both directories carry a ``conftest.py`` that tests import by name), so
the tracer is loaded here from its file path.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

import specbundle
import specbundle.bench
import specbundle.subproblem
from specbundle import SolverConfig, run
from specbundle.bench import build_maxcut
from specbundle.bench.problems import triangle_graph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


# The public surface, pinned: a name joins an export list or a field joins
# the solver configuration only by editing these lists.
SPECBUNDLE_ALL = [
    "ConstraintMap", "DimensionError", "IterationRecord", "LowRankFactors",
    "RankError", "RunResult", "SdpProblem", "SolverConfig",
    "project_simplex_hull", "run", "sketch_init", "sketch_reconstruct",
    "sketch_scale", "sketch_update", "solve_inner_apg", "solve_subproblem",
]
BENCH_ALL = [
    "ReferenceValues", "TraceFormatError", "build_completion", "build_maxcut",
    "check_descent_bounds", "check_recorded_invariants",
    "check_spectral_accuracy", "completion_reference", "gen_completion",
    "gen_er_graph", "maxcut_reference", "summary_dict", "verify_run",
    "write_summary", "write_trace",
]
SOLVER_CONFIG_FIELDS = [
    "variant", "beta", "rho", "rbar", "max_iters", "inner_max_iter",
    "storage", "sketch_rank", "target_gap", "seed", "check_invariants",
]


def test_export_lists_are_pinned():
    assert sorted(specbundle.__all__) == SPECBUNDLE_ALL
    assert sorted(specbundle.bench.__all__) == BENCH_ALL


def test_solver_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == SOLVER_CONFIG_FIELDS


@pytest.mark.parametrize("module", [specbundle, specbundle.bench],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_imports():
    exec("from specbundle import *\nfrom specbundle.bench import *", {})


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_patches_and_restores(tracing):
    owners = [(owner, attr) for owner, attr in tracing._TARGETS]
    before = [owner.__dict__[attr] for owner, attr in owners]
    build = specbundle.subproblem.InnerProblem.__dict__["build"]
    with tracing.patched(tracing.Tracer()):
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(owners, before))
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(owners, before))
    assert specbundle.subproblem.InnerProblem.__dict__["build"] is build


def test_traced_solve_records_layer_spans(tracing):
    prob = build_maxcut(triangle_graph())
    tr = tracing.Tracer()
    res = tracing.traced(tr, lambda: run(prob, SolverConfig(rbar=2, max_iters=3)))
    assert len(res.records) == 3
    names = set(tr.name)
    for want in ("run", "step", "solve_subproblem", "InnerProblem.build",
                 "solve_inner_apg", "project_psd_simplex_hull",
                 "objective_with_spectrum", "top_eigs", "slack", "congruence"):
        assert want in names
    assert len(tr.inner) == 3
