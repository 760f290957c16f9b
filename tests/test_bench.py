"""Benchmark instances, reference oracles, trace files, verification
checks, and the command-line front end."""

import csv
import json
import os

import numpy as np
import pytest
import scipy.linalg

from specbundle import SolverConfig, run
from specbundle.bench import (ReferenceValues, TraceFormatError,
                              build_completion, build_maxcut,
                              check_recorded_invariants,
                              check_spectral_accuracy, completion_reference,
                              gen_completion, gen_er_graph, maxcut_reference,
                              summary_dict, verify_run, write_summary,
                              write_trace)
from specbundle.bench.cli import main
from specbundle.bench.metrics import compute_metrics, metrics_from_run
from specbundle.bench.problems import (CompletionInstance, GraphInstance,
                                       ParseError, read_gset, read_observations,
                                       triangle_graph)
from specbundle.bench.reference import maxcut_factor_ascent, numerical_rank
from specbundle.bench.traceio import read_summary, read_trace, trace_header
from specbundle.bench.verify import sample_gapped_matrix, spectral_truncation_gap

from conftest import embed_completion, symm


# -- graphs -----------------------------------------------------------------

def test_triangle_laplacian_frozen():
    g = triangle_graph()
    assert g.n == 3
    want = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    assert np.array_equal(g.laplacian(), want)


def test_single_edge_laplacian():
    g = GraphInstance(2, np.array([[0, 1, 2.5]]))
    want = np.array([[2.5, -2.5], [-2.5, 2.5]])
    assert np.array_equal(g.laplacian(), want)


def test_laplacian_rows_sum_to_zero():
    g = gen_er_graph(20, 0.3, seed=4)
    L = g.laplacian()
    assert np.abs(L.sum(axis=1)).max() <= 1e-12
    assert np.array_equal(L, L.T)


def test_laplacian_matches_edge_loop_bitwise():
    # float weights whose diagonal sums depend on the order of addition
    rng = np.random.default_rng(5)
    g0 = gen_er_graph(60, 0.2, seed=1)
    g = GraphInstance(60, np.column_stack([g0.edges[:, :2],
                                           rng.normal(size=len(g0.edges)) * 1e3]))
    want = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        i, j = int(i), int(j)
        want[i, i] += w
        want[j, j] += w
        want[i, j] -= w
        want[j, i] -= w
    assert np.array_equal(g.laplacian().view(np.int64), want.view(np.int64))


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphInstance(3, np.array([[0, 0, 1.0]]))          # self-loop
    with pytest.raises(ValueError):
        GraphInstance(3, np.array([[0, 3, 1.0]]))          # out of range
    with pytest.raises(ValueError):
        GraphInstance(3, np.array([[0, 1, 1.0], [1, 0, 2.0]]))  # duplicate
    with pytest.raises(ValueError):
        GraphInstance(3, np.array([[0.0, 1.0]]))           # wrong shape


def test_er_generator_deterministic():
    a = gen_er_graph(30, 0.2, seed=7)
    b = gen_er_graph(30, 0.2, seed=7)
    assert np.array_equal(a.edges, b.edges)
    c = gen_er_graph(30, 0.2, seed=8)
    assert not np.array_equal(a.edges, c.edges)
    assert a.edges[:, 0].min() >= 0 and a.edges[:, 1].max() < 30
    with pytest.raises(ValueError):
        gen_er_graph(5, 0.0, seed=0)


def test_build_maxcut_conventions():
    g = triangle_graph()
    prob = build_maxcut(g)
    assert prob.alpha == 2 * g.n
    assert np.array_equal(prob.C, -g.laplacian())
    assert np.array_equal(prob.b, np.ones(3))
    X = symm(np.random.default_rng(0).normal(size=(3, 3)))
    assert np.abs(prob.A.apply(X) - np.diag(X)).max() <= 1e-15
    prob2 = build_maxcut(g, alpha=10.0)
    assert prob2.alpha == 10.0


def test_gset_round_trip_and_comments(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("# weighted toy graph\n3 2\n1 2 1.5\n% trailing comment\n2 3\n")
    g = read_gset(str(path))
    assert g.n == 3
    want = np.array([[0.0, 1.0, 1.5], [1.0, 2.0, 1.0]])
    assert np.array_equal(g.edges, want)


@pytest.mark.parametrize("text,fragment", [
    ("", "empty file"),
    ("3\n1 2\n", "expected header"),
    ("a b\n1 2\n", "non-integer header"),
    ("3 1\n1 2 3 4\n", "expected 'i j [w]'"),
    ("3 1\n1 x\n", "malformed edge"),
    ("3 1\n1 4\n", "out of range"),
    ("3 2\n1 2\n", "promises 2 edges"),
])
def test_gset_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_gset(str(path))
    assert fragment in str(err.value)
    assert "bad.txt" in str(err.value)


def test_gset_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n3 1\n1 zz\n")
    with pytest.raises(ParseError) as err:
        read_gset(str(path))
    assert ":3:" in str(err.value)


# -- max-cut references -------------------------------------------------------

def test_triangle_solves_to_nine():
    prob = build_maxcut(triangle_graph())
    cfg = SolverConfig(variant="block", rbar=2, rho=1.0, target_gap=1e-9,
                       max_iters=50)
    res = run(prob, cfg)
    assert res.stats.stop_reason == "target_gap"
    assert abs(res.state.F_y - 9.0) <= 1e-8


def test_factor_ascent_triangle():
    _, val = maxcut_factor_ascent(triangle_graph().laplacian(), seed=0)
    assert abs(val - 9.0) <= 1e-9


def test_factor_ascent_single_edge():
    L = GraphInstance(2, np.array([[0, 1, 2.0]])).laplacian()
    R, val = maxcut_factor_ascent(L, seed=1)
    assert abs(val - 8.0) <= 1e-9
    assert np.abs(np.linalg.norm(R, axis=1) - 1.0).max() <= 1e-12


def test_maxcut_reference_triangle():
    refs, X = maxcut_reference(triangle_graph())
    assert abs(refs.d_star - 9.0) <= 1e-9
    assert abs(refs.p_star + 9.0) <= 1e-9
    assert abs(refs.nuc - 3.0) <= 1e-12
    assert refs.rank == 2
    assert refs.provenance
    # the witness is feasible for the relaxation
    assert np.abs(np.diag(X) - 1.0).max() <= 1e-12
    assert scipy.linalg.eigvalsh(X).min() >= -1e-10


def test_reference_values_from_dict():
    refs = ReferenceValues(d_star=-9.0, p_star=9.0, nuc=3.0, rank=1,
                           provenance="test")
    # unknown keys, such as the retired f_upper, are ignored
    assert ReferenceValues.from_dict({**refs.to_dict(), "f_upper": None}) == refs
    with pytest.raises(ValueError, match="nuc, rank"):
        ReferenceValues.from_dict({"d_star": 1.0, "p_star": -1.0, "provenance": ""})
    with pytest.raises(ValueError, match="JSON object"):
        ReferenceValues.from_dict([1.0])
    for name, bad in (("d_star", "x"), ("nuc", None), ("p_star", True),
                      ("rank", 2.0), ("provenance", 3)):
        with pytest.raises(ValueError, match=f"reference value {name} must be"):
            ReferenceValues.from_dict({**refs.to_dict(), name: bad})


def test_numerical_rank():
    assert numerical_rank(np.diag([1.0, 1e-3, 1e-9])) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4


# -- completion ---------------------------------------------------------------

def test_completion_single_cell_embedding():
    inst = CompletionInstance(d=1, rows=np.array([0]), cols=np.array([0]),
                              vals=np.array([5.0]), factors=None)
    prob = build_completion(inst, alpha=7.0)
    assert prob.n == 2 and prob.m == 1
    assert np.array_equal(prob.b, np.array([5.0]))
    assert np.array_equal(prob.C, np.eye(2))
    X = np.array([[1.0, 3.0], [3.0, 2.0]])
    # the constraint reads the off-diagonal cell
    assert prob.A.apply(X) == pytest.approx([3.0], abs=0)


def test_completion_generator_properties():
    inst = gen_completion(d=6, rank=2, p_obs=1.0, seed=3)
    assert inst.n_obs == 36
    again = gen_completion(d=6, rank=2, p_obs=1.0, seed=3)
    assert np.array_equal(inst.vals, again.vals)
    # rank-2 sign-factor products are integers no larger than the rank
    assert np.all(inst.vals == np.round(inst.vals))
    assert np.abs(inst.vals).max() <= 2
    assert abs(inst.nuclear_norm() - 6 * 2) <= 1e-9


def test_completion_ground_truth_is_feasible():
    inst = gen_completion(d=8, rank=3, p_obs=0.4, seed=5)
    prob = build_completion(inst)
    X = embed_completion(inst)
    assert np.array_equal(prob.A.apply(X), prob.b)
    assert scipy.linalg.eigvalsh(X).min() >= -1e-9
    # embedded witness has twice the ground-truth nuclear norm
    nuc_emb = np.abs(scipy.linalg.eigvalsh(X)).sum()
    assert abs(nuc_emb - 2 * inst.nuclear_norm()) <= 1e-8


def test_completion_default_penalty():
    inst = gen_completion(d=5, rank=2, p_obs=0.5, seed=0)
    prob = build_completion(inst)
    assert abs(prob.alpha - 4.0 * inst.nuclear_norm()) <= 1e-9
    plain = CompletionInstance(d=5, rows=inst.rows, cols=inst.cols,
                               vals=inst.vals, factors=None)
    with pytest.raises(ValueError):
        build_completion(plain)
    assert build_completion(plain, alpha=3.0).alpha == 3.0


def test_completion_instance_validation():
    with pytest.raises(ValueError):
        CompletionInstance(d=2, rows=np.array([], dtype=int),
                           cols=np.array([], dtype=int), vals=np.array([]),
                           factors=None)
    with pytest.raises(ValueError):
        CompletionInstance(d=2, rows=np.array([2]), cols=np.array([0]),
                           vals=np.array([1.0]), factors=None)
    with pytest.raises(ValueError):
        CompletionInstance(d=2, rows=np.array([0, 0]), cols=np.array([1, 1]),
                           vals=np.array([1.0, 2.0]), factors=None)


def test_completion_reference_closed_form():
    inst = gen_completion(d=4, rank=2, p_obs=0.9, seed=1)
    refs = completion_reference(inst)
    nuc = inst.nuclear_norm()
    assert refs.d_star == -2.0 * nuc
    assert refs.p_star == 2.0 * nuc
    assert refs.nuc == 2.0 * nuc
    assert refs.rank == 2
    assert "closed form" in refs.provenance


def test_observation_round_trip(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("i,j,value\n1,1,2.5\n1,2,-1.0\n3,2,0.25\n")
    inst = read_observations(str(path))
    assert inst.d == 3
    assert np.array_equal(inst.rows, np.array([0, 0, 2]))
    assert np.array_equal(inst.cols, np.array([0, 1, 1]))
    assert np.array_equal(inst.vals, np.array([2.5, -1.0, 0.25]))
    assert inst.factors is None
    # headerless files parse too
    path2 = tmp_path / "obs2.csv"
    path2.write_text("1,1,2.0\n2,2,3.0\n")
    assert read_observations(str(path2)).n_obs == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "no observations"),
    ("i,j,value\n", "no observations"),
    ("1,2\n", "expected 'i,j,value'"),
    ("1,1,2.0\n1,2,xx\n", "malformed row"),
    ("0,2,1.0\n", "1-based"),
])
def test_observation_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_observations(str(path))
    assert fragment in str(err.value)


# -- metrics -------------------------------------------------------------------

def test_compute_metrics_formulas():
    refs = ReferenceValues(d_star=-10.0, p_star=10.0, nuc=5.0, rank=2,
                           provenance="test")
    m = compute_metrics(F_y=-9.0, primal_value=10.5, feas_norm=0.4,
                        b_norm=2.0, refs=refs)
    assert m.dual_opt == pytest.approx(0.1)
    assert m.primal_opt == pytest.approx(0.05)
    assert m.primal_feas == pytest.approx(0.2)
    assert m.d_star == -10.0 and m.p_star == 10.0
    assert m.to_dict()["provenance"] == "test"


def test_compute_metrics_zero_denominators():
    refs = ReferenceValues(d_star=0.0, p_star=0.0, nuc=1.0, rank=1,
                           provenance="test")
    m = compute_metrics(F_y=0.25, primal_value=-0.5, feas_norm=0.3,
                        b_norm=0.0, refs=refs)
    assert m.dual_opt == 0.25
    assert m.primal_opt == 0.5
    assert m.primal_feas == 0.3


def test_metrics_from_run_uses_final_row():
    prob = build_maxcut(triangle_graph())
    refs, _ = maxcut_reference(triangle_graph())
    res = run(prob, SolverConfig(rbar=2, max_iters=4))
    m = metrics_from_run(res, refs, float(np.linalg.norm(prob.b)))
    rec = res.records[-1]
    again = compute_metrics(res.state.F_y, rec.pval, rec.feas,
                            float(np.linalg.norm(prob.b)), refs)
    assert m.dual_opt == again.dual_opt
    assert m.primal_opt == again.primal_opt
    assert m.primal_feas == again.primal_feas


# -- trace and summary files -----------------------------------------------------

def test_trace_header_layout():
    assert trace_header(2) == ["t", "F_y", "F_z", "Fbar_z", "descent", "feas",
                               "lammin", "pval", "dval", "step", "gap1",
                               "gap2", "inner_res"]


def _short_run(rbar=2, iters=5, invariants=False):
    prob = build_maxcut(triangle_graph())
    cfg = SolverConfig(variant="block", rbar=rbar, rho=1.0, max_iters=iters,
                       check_invariants=invariants)
    return prob, cfg, run(prob, cfg)


def test_trace_round_trip_bitwise(tmp_path):
    _, cfg, res = _short_run()
    path = tmp_path / "trace.csv"
    write_trace(str(path), res.records, cfg.rbar)
    back, rbar = read_trace(str(path))
    assert rbar == cfg.rbar
    assert len(back) == len(res.records)
    for a, b in zip(res.records, back):
        assert a.t == b.t and a.descent == b.descent
        for f in ("F_y", "F_z", "Fbar_z", "feas", "lammin", "pval", "dval",
                  "step", "inner_res"):
            assert getattr(a, f) == getattr(b, f)
        assert a.gaps == b.gaps


def test_trace_gap_count_mismatch(tmp_path):
    _, cfg, res = _short_run(rbar=2)
    with pytest.raises(TraceFormatError):
        write_trace(str(tmp_path / "t.csv"), res.records, 3)


def test_trace_read_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TraceFormatError):
        read_trace(str(empty))
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,columns\n1,2\n")
    with pytest.raises(TraceFormatError):
        read_trace(str(bad))


def test_summary_round_trip(tmp_path):
    prob, cfg, res = _short_run(invariants=True)
    refs, _ = maxcut_reference(triangle_graph())
    metrics = metrics_from_run(res, refs, float(np.linalg.norm(prob.b)))
    summary = summary_dict(cfg, res, refs=refs, metrics=metrics,
                           problem_label="maxcut triangle",
                           alpha_effective=prob.alpha)
    path = tmp_path / "summary.json"
    write_summary(str(path), summary)
    back = read_summary(str(path))
    assert back["config"]["rho"] == cfg.rho
    assert back["config"]["variant"] == cfg.variant
    assert back["problem"] == "maxcut triangle"
    assert back["alpha_effective"] == prob.alpha
    assert back["stop_reason"] == res.stats.stop_reason
    assert back["max_norm_y"] == res.stats.max_norm_y
    assert back["invariants"]["checked"] == res.stats.iterations
    assert back["refs"]["d_star"] == refs.d_star
    assert back["metrics"]["dual_opt"] == metrics.dual_opt


# -- verification -----------------------------------------------------------------

def test_verify_clean_run_passes():
    prob, cfg, res = _short_run(iters=8, invariants=True)
    refs, _ = maxcut_reference(triangle_graph())
    rep = verify_run(res.records, refs, cfg.rho, cfg.beta, prob.alpha,
                     res.stats.max_norm_y,
                     invariants=res.stats.invariants.as_dict(), samples=50)
    assert rep.passed
    lines = rep.lines()
    assert len(lines) == len(rep.checks)
    assert all(l.startswith("PASS") for l in lines)


def test_verify_flags_tampered_feasibility():
    prob, cfg, res = _short_run(iters=8, invariants=True)
    refs, _ = maxcut_reference(triangle_graph())
    victim = next(r for r in res.records if r.descent)
    victim.feas += 1e3
    rep = verify_run(res.records, refs, cfg.rho, cfg.beta, prob.alpha,
                     res.stats.max_norm_y,
                     invariants=res.stats.invariants.as_dict(), samples=50)
    assert not rep.passed
    failed = [c.name for c in rep.checks if not c.passed]
    assert "primal feasibility bound" in failed


def test_verify_without_telemetry_fails_dominance():
    prob, cfg, res = _short_run(iters=4)
    refs, _ = maxcut_reference(triangle_graph())
    rep = verify_run(res.records, refs, cfg.rho, cfg.beta, prob.alpha,
                     res.stats.max_norm_y, invariants=None, samples=50)
    assert not rep.passed
    note = next(c.note for c in rep.checks if not c.passed)
    assert "telemetry" in note


def test_check_recorded_invariants_thresholds():
    good = dict(checked=5, simple_minus_model=-1e-12, model_minus_f=-1e-12,
                membership_err=1e-12, membership_feas=0.0)
    assert all(c.passed for c in check_recorded_invariants(good))
    bad = dict(good, model_minus_f=1.0)
    assert not all(c.passed for c in check_recorded_invariants(bad))


def test_spectral_accuracy_property_holds():
    checks = check_spectral_accuracy(samples=60, seed=0)
    assert len(checks) == 3
    assert all(c.passed for c in checks)


def test_sample_gapped_matrix_exact_gap():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(1, n))
        X, vals = sample_gapped_matrix(rng, n, r, 0.37)
        assert vals[r - 1] - vals[r] == pytest.approx(0.37, abs=1e-12)
        spec = np.sort(scipy.linalg.eigvalsh(X))[::-1]
        assert np.abs(spec - vals).max() <= 1e-8 * (1 + np.abs(vals).max())


def test_truncation_gap_examples():
    X = np.diag([3.0, 2.0, 1.0])
    assert spectral_truncation_gap(X, X, 2) == 0.0
    # Y's top eigenvector lies outside the top-1 eigenspace of X
    Y = np.diag([0.0, 5.0, 0.0])
    got = spectral_truncation_gap(X, Y, 1)
    assert got == pytest.approx(5.0, abs=1e-12)


# -- command line ------------------------------------------------------------------

def _solve_triangle(tmp_path, extra=(), invariants=True):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    rc = main(["solve", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "2", "--max-iters", "20", "--target-gap", "1e-9",
               "--auto-ref", *(["--check-invariants"] if invariants else []),
               "--trace", str(trace), "--summary", str(summary), *extra])
    return rc, trace, summary


def test_cli_solve_writes_artifacts(tmp_path, capsys):
    ref = tmp_path / "ref.json"
    rc, trace, summary = _solve_triangle(tmp_path, ("--save-ref", str(ref)))
    assert rc == 0
    out = capsys.readouterr().out
    assert "maxcut triangle" in out
    assert "final objective 9" in out
    records, rbar = read_trace(str(trace))
    assert rbar == 2 and records
    data = read_summary(str(summary))
    assert data["config"]["rbar"] == 2
    refs = json.loads(ref.read_text())
    assert abs(refs["d_star"] - 9.0) <= 1e-8


def test_cli_verify_round_trip(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_cli_verify_without_telemetry_exits_one(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path, invariants=False)
    assert rc == 0
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 1
    fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert fails and all("no invariant telemetry" in l for l in fails)


def test_cli_verify_fails_summary_with_zero_checks(tmp_path, capsys):
    # a summary that records the invariant slacks but no checked step
    # carries no evidence for them
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    data = json.loads(summary.read_text())
    assert data["invariants"]["checked"] > 0
    data["invariants"]["checked"] = 0
    summary.write_text(json.dumps(data))
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == 4
    assert all("over 0 checks (no checks ran)" in l for l in fails)
    assert not any(l.startswith("PASS") and "over 0 checks" in l for l in lines)


def test_cli_verify_rejects_tampered_trace(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    records, rbar = read_trace(str(trace))
    victim = next(r for r in records if r.descent)
    victim.feas += 1e3
    write_trace(str(trace), records, rbar)
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_fails_nan_descent_slacks(tmp_path, capsys):
    # a NaN slack must fail its bound, not drop out of the worst-case max
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    records, rbar = read_trace(str(trace))
    for rec in records:
        rec.feas = rec.pval = float("nan")
    write_trace(str(trace), records, rbar)
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    for name in ("primal feasibility bound", "gap upper bound", "gap lower bound"):
        line = next(l for l in lines if f" {name}:" in l)
        assert line.startswith("FAIL") and "worst slack nan" in line


def test_cli_solve_completion_with_sketch(tmp_path, capsys):
    rc = main(["solve", "--problem", "completion",
               "--gen", "d=6,rank=2,pobs=0.6,seed=0",
               "--rbar", "2", "--max-iters", "10", "--auto-ref",
               "--sketch", "2",
               "--summary", str(tmp_path / "s.json")])
    assert rc == 0
    data = read_summary(str(tmp_path / "s.json"))
    inst = gen_completion(d=6, rank=2, p_obs=0.6, seed=0)
    assert data["alpha_effective"] == pytest.approx(4.0 * inst.nuclear_norm())
    assert data["config"]["storage"] == "compressed"


def test_cli_sweep_writes_tables_and_files(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    rc = main(["sweep", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "1,2", "--variants", "block,hr",
               "--max-iters", "8", "--auto-ref", "--out-dir", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "variant" in out and "block" in out and "hr" in out
    for variant in ("block", "hr"):
        for rbar in (1, 2):
            assert (out_dir / f"maxcut_{variant}_r{rbar}.csv").exists()
            assert (out_dir / f"maxcut_{variant}_r{rbar}.json").exists()


def test_cli_sweep_parallel_workers_run_one_blas_thread(tmp_path, capsys):
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    before = {k: os.environ.get(k) for k in blas_env}
    out_dir = tmp_path / "runs"
    rc = main(["sweep", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "1,2", "--variants", "block", "--jobs", "2",
               "--max-iters", "8", "--auto-ref", "--out-dir", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "jobs: 2, BLAS threads per job: 1" in out
    rows = [line.split() for line in out.splitlines() if line.startswith("block ")]
    assert [row[1] for row in rows] == ["1", "2"]
    for rbar in (1, 2):
        assert read_summary(str(out_dir / f"maxcut_block_r{rbar}.json"))["blas_threads"] == "1"
    # the workers' settings do not stay in this process's environment
    assert {k: os.environ.get(k) for k in blas_env} == before


def test_cli_sweep_creates_missing_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "not" / "yet"
    rc = main(["sweep", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "1", "--variants", "block",
               "--max-iters", "8", "--auto-ref", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    assert (out_dir / "maxcut_block_r1.csv").exists()


def test_cli_plotdata_rows(tmp_path, capsys):
    rc, trace, _ = _solve_triangle(tmp_path)
    assert rc == 0
    out_csv = tmp_path / "gap.csv"
    rc = main(["plotdata", "--trace", str(trace), "--d-star", "9.0",
               "--out", str(out_csv)])
    assert rc == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "rel_gap"]
    records, _ = read_trace(str(trace))
    assert int(rows[1][0]) == 0
    assert float(rows[1][1]) == pytest.approx((records[0].F_y - 9.0) / 9.0)
    want2 = (records[0].F_z if records[0].descent else records[0].F_y) - 9.0
    assert float(rows[2][1]) == pytest.approx(want2 / 9.0)
    assert len(rows) == len(records) + 2


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "maxcut", "--gen", "triangle", "--input", "x"],
    ["solve", "--problem", "maxcut"],
    ["solve", "--problem", "maxcut", "--gen", "er,frogs=1"],
    ["solve", "--problem", "maxcut", "--gen", "ring"],
    ["solve", "--problem", "completion", "--gen", "d=4,rank=nope"],
    ["solve", "--problem", "maxcut", "--gen", "triangle", "--sketch", "tiny"],
    ["solve", "--problem", "maxcut", "--input", "/nonexistent/file.txt"],
    ["plotdata", "--trace", "/nonexistent/trace.csv", "--d-star", "1.0"],
])
def test_cli_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_without_refs_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    rc = main(["solve", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "1", "--max-iters", "3",
               "--trace", str(trace), "--summary", str(summary)])
    assert rc == 0
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 2
    assert "no reference values" in capsys.readouterr().err


def test_cli_verify_incomplete_ref_exits_two(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"d_star": 1.0}))
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary),
               "--ref", str(ref)])
    assert rc == 2
    assert "p_star" in capsys.readouterr().err


def test_cli_verify_summary_without_max_norm_y_exits_two(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    data = read_summary(str(summary))
    del data["max_norm_y"]
    write_summary(str(summary), data)
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 2
    assert "max_norm_y" in capsys.readouterr().err


def test_cli_verify_non_numeric_ref_exits_two(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    data = read_summary(str(summary))
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({**data["refs"], "d_star": "x"}))
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary),
               "--ref", str(ref)])
    assert rc == 2
    assert "d_star" in capsys.readouterr().err


def test_cli_verify_summary_not_an_object_exits_two(tmp_path, capsys):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    summary.write_text(json.dumps([read_summary(str(summary))]))
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def edit(data):
        for k in keys:
            data = data[k]
        data[last] = value
    return edit


def _drop(outer, key):
    return lambda data: data[outer].pop(key)


@pytest.mark.parametrize("edit,field", [
    (_set("config", [1]), "config"),
    (_set("invariants", [1]), "invariants"),
    (_set("config", "rho", "x"), "config.rho"),
    (_set("max_norm_y", "x"), "max_norm_y"),
    (_drop("invariants", "model_minus_f"), "invariants.model_minus_f"),
    (_set("invariants", "membership_err", "x"), "invariants.membership_err"),
    (lambda data: data.pop("alpha_effective"), "alpha_effective"),
], ids=["config-list", "invariants-list", "rho-string", "max-norm-y-string",
        "invariants-without-model-minus-f", "membership-err-string",
        "without-alpha-effective"])
def test_cli_verify_malformed_summary_field_exits_two(tmp_path, capsys, edit, field):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    data = read_summary(str(summary))
    edit(data)
    write_summary(str(summary), data)
    capsys.readouterr()
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f" {field}" in err


def test_cli_plotdata_ref_not_an_object_exits_two(tmp_path, capsys):
    rc, trace, _ = _solve_triangle(tmp_path)
    assert rc == 0
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps([1.0, 2.0]))
    rc = main(["plotdata", "--trace", str(trace), "--ref", str(ref)])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_cli_plotdata_needs_some_reference(tmp_path, capsys):
    rc, trace, _ = _solve_triangle(tmp_path)
    rc = main(["plotdata", "--trace", str(trace)])
    assert rc == 2
    assert "--ref or --d-star" in capsys.readouterr().err


def test_cli_missing_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", ["--tol", "--alpha"])
def test_cli_verify_takes_no_check_settings(flag):
    # every setting of a check comes from the run it checks
    with pytest.raises(SystemExit) as err:
        main(["verify", "--trace", "t.csv", "--summary", "s.json", flag, "1"])
    assert err.value.code == 2


def test_cli_solve_has_no_hr_keep_flag():
    # hr and hybrid recycle rbar - 1 vectors; the count is not a setting
    with pytest.raises(SystemExit) as err:
        main(["solve", "--problem", "maxcut", "--gen", "triangle", "--variant", "hr",
              "--hr-keep", "1"])
    assert err.value.code == 2
