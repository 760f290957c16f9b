"""Public export lists and the benchmark tracer's hooks.

``perfbench/tracing.py`` rebinds solver callables by name for the duration
of a traced solve, so renaming or deleting one of them breaks every traced
benchmark run.  The benchmark's own tests live in a separate pytest session
(both directories carry a ``conftest.py`` that tests import by name), so
the tracer is loaded here from its file path.
"""

import importlib.util
from pathlib import Path

import pytest

import specbundle
import specbundle.bench
from specbundle import SolverConfig, run
from specbundle.bench import build_maxcut, triangle_graph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
    build = specbundle.InnerProblem.__dict__["build"]
    with tracing.patched(tracing.Tracer()):
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(owners, before))
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(owners, before))
    assert specbundle.InnerProblem.__dict__["build"] is build


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
