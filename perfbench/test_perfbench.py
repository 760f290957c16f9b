"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import specbundle.bundle as bundle
from specbundle import IterationRecord
from specbundle.bench import build_maxcut, gen_er_graph, maxcut_reference

import harness
import tracing
from workloads import (WORKLOADS, ReferenceMismatch, SetUp, Workload, fingerprint,
                       instance, load_reference)

ROOT = Path(__file__).resolve().parent.parent


def record(t, F_y, F_z, descent):
    return IterationRecord(t=t, F_y=F_y, F_z=F_z, Fbar_z=F_z, descent=descent,
                           feas=0.0, lammin=0.0, pval=0.0, dval=0.0, step=0.0,
                           gaps=(), inner_res=0.0)


def test_first_crossing_uses_the_updated_reference_point():
    d_star = 100.0
    recs = [record(1, 110.0, 105.0, True),     # reference moves to 105
            record(2, 105.0, 100.01, False),   # null step: reference stays 105
            record(3, 105.0, 100.05, True),    # reference moves to 100.05
            record(4, 100.05, 100.0, True)]
    assert harness.first_crossing(recs, d_star, 1e-3) == 2
    assert harness.first_crossing(recs, d_star, 0.0) == 3
    assert harness.first_crossing(recs, d_star, -1.0) is None


def test_first_crossing_scales_by_the_magnitude_of_a_negative_optimum():
    recs = [record(1, -80.0, -95.0, True), record(2, -95.0, -99.5, True)]
    assert harness.first_crossing(recs, -100.0, 0.01) == 1


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > grandchild [2,3]; root > b [5,6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_times_count_overlapping_children_once():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 4.0, 5.0]
    assert tracing.self_times(start, end, [-1, 0, 0]) == pytest.approx([6.0, 3.0, 3.0])


def test_reference_with_another_fingerprint_is_refused(tmp_path):
    g = gen_er_graph(30, 0.2, seed=1)
    other = gen_er_graph(30, 0.2, seed=2)
    path = tmp_path / "ref.json"
    path.write_text(json.dumps({
        "fingerprint": fingerprint(g),
        "refs": {"d_star": 1.0, "p_star": -1.0, "nuc": 30.0, "rank": 1,
                 "provenance": "test"}}))
    assert load_reference(path, g).d_star == 1.0
    with pytest.raises(ReferenceMismatch):
        load_reference(path, other)


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.family == "maxcut"])
def test_committed_references_match_their_instances(name):
    wl = WORKLOADS[name]
    refs = load_reference(wl.ref_path(), instance(wl))
    assert refs.d_star > 0 and refs.nuc == wl.gen["n"]


def test_count_mismatches_fail_the_odd_solve_out():
    outs = [harness.Outcome(False, 1.0, {"iterations": 50, "iters_to_gap": 40}),
            harness.Outcome(True, 1.0, {"iterations": 50, "iters_to_gap": 40,
                                        "subproblem.inner_iters": 900}),
            harness.Outcome(False, 1.0, {"iterations": 51, "iters_to_gap": 40}),
            harness.Outcome(True, 1.0, {"iterations": 50, "iters_to_gap": 40,
                                        "subproblem.inner_iters": 900},
                            failure="gap missed")]
    harness.fail_count_mismatches(outs)
    assert [o.failure is not None for o in outs] == [False, False, True, True]
    assert "iterations=51" in outs[2].failure
    assert outs[3].failure == "gap missed"


@pytest.fixture(scope="module")
def small():
    """A small max-cut workload with its oracle reference."""
    wl = Workload("small", "maxcut", dict(n=24, p=0.3, seed=1),
                  dict(variant="block", rbar=3, rho=0.5, max_iters=60), gap=1e-3)
    g = instance(wl)
    refs, _ = maxcut_reference(g, seed=1)
    return wl, SetUp(build_maxcut(g), refs, 0.0, 0.0, 0.0)


def test_gate_passes_a_good_solve_and_names_each_failure(small):
    wl, setup = small
    cfg = wl.solver_config(0)
    good = harness.solve_once(wl, setup, cfg, traced=False)
    assert good.failure is None, good.failure
    assert 1 <= good.figures["iters_to_gap"] <= good.figures["iterations"]
    assert 0 < good.figures["time_to_gap_s"] <= good.figures["solve_s"]

    missed = harness.solve_once(dataclasses.replace(wl, gap=-1.0), setup, cfg, traced=False)
    assert "not reached" in missed.failure and "iters_to_gap" not in missed.figures

    result, *_ = harness.timed_run(setup.prob, cfg)
    result.records[3] = dataclasses.replace(result.records[3], F_y=math.nan)
    problems, _ = harness.gate(wl, setup, cfg, result)
    assert "non-finite F_y" in problems


def test_exception_fails_the_solve_not_the_run(small):
    wl, setup = small
    bad = dataclasses.replace(wl, config=dict(wl.config, rho=-1.0))
    out = harness.solve_once(bad, setup, bad.solver_config(0), traced=False)
    assert "ValueError" in out.failure


def test_traced_solve_matches_untraced_and_restores_the_solver(small):
    wl, setup = small
    cfg = wl.solver_config(0)
    originals = (bundle.solve_subproblem, bundle.stopping_metric)
    plain = harness.solve_once(wl, setup, cfg, traced=False)
    traced = harness.solve_once(wl, setup, cfg, traced=True)
    assert (bundle.solve_subproblem, bundle.stopping_metric) == originals
    assert traced.failure is None, traced.failure
    for key in ("iterations", "iters_to_gap"):
        assert traced.figures[key] == plain.figures[key]
    tr = traced.trace
    steps = [i for i, n in enumerate(tr.name) if n == "step"]
    assert len(steps) == traced.figures["iterations"]
    assert tr.name.count("solve_subproblem") == len(steps)
    assert tr.name.count("tail") == 1 and tr.name[0] == "run"
    assert tr.parent[tr.name.index("solve_subproblem")] == steps[0]
    f = traced.figures
    assert f["subproblem.inner_iters"] > 0 and f["subproblem.hull_proj_calls"] > 0
    assert f["model.objective_calls"] == f["iterations"] + 1
    assert 0 < f["bundle.self_s"] < f["bundle.step_ms"] * f["iterations"] / 1e3


def test_traced_solve_counts_inner_solves_stopped_at_their_cap(small):
    wl, setup = small
    capped = dataclasses.replace(wl, config=dict(wl.config, inner_max_iter=2, max_iters=5))
    out = harness.solve_once(capped, setup, capped.solver_config(0), traced=True)
    assert out.figures["subproblem.capped"] > 0
    assert out.figures["subproblem.inner_iters_max"] == 2


def test_benchmark_json_names_the_workloads_and_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
