"""Benchmark instances, reference oracles, trace files, verification
checks, and the command-line front end."""

import csv
import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import specbundle.model as model
from specbundle import ConstraintMap, DimensionError, SolverConfig, run
from specbundle.bench import (ReferenceValues, TraceFormatError,
                              build_completion, build_maxcut, check_descent_bounds,
                              check_recorded_invariants,
                              check_spectral_accuracy, completion_reference,
                              gen_completion, gen_er_graph, maxcut_reference,
                              summary_dict, verify_run, write_summary,
                              write_trace)
from specbundle.bench import problems
from specbundle.bench.cli import main
from specbundle.bench.problems import (CompletionInstance, GraphInstance,
                                       ParseError, read_gset, read_observations,
                                       triangle_graph)
from specbundle.bench.reference import (compute_metrics, maxcut_factor_ascent,
                                        numerical_rank)
from specbundle.bench.traceio import read_summary, read_trace, trace_header
from specbundle.bench.verify import sample_gapped_matrix, spectral_truncation_gap
from specbundle.linops import symmetrize

from conftest import embed_completion, symm

REFS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "refs"


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


def _er_all_pairs(n, p, seed):
    """The all-pairs Erdos-Renyi draw, the oracle of the streamed one."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return np.column_stack([iu[mask], ju[mask], np.ones(int(mask.sum()))])


@pytest.mark.parametrize("n,p,seed", [
    (2, 1.0, 0), (3, 1.0, 0), (3, 0.5, 1), (30, 1.0, 4),
    (200, 0.1, 2), (1000, 0.01, 0), (100, 0.1, 2),   # the benchmark's graphs
])
def test_er_generator_equals_the_all_pairs_draw(n, p, seed):
    want = _er_all_pairs(n, p, seed)
    got = gen_er_graph(n, p, seed).edges
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [780, 390, 779, 7, 1])
def test_er_generator_chunk_boundaries(monkeypatch, chunk):
    # n = 40 has 780 pairs: one chunk, two, one past a chunk, and ragged
    monkeypatch.setattr(problems, "_ER_CHUNK", chunk)
    assert gen_er_graph(40, 0.3, 9).edges.tobytes() == _er_all_pairs(40, 0.3, 9).tobytes()


def test_er_generator_empty_draws_match_the_oracle():
    for n, p in ((1, 1.0), (0, 1.0), (5, 0.0)):
        assert _er_all_pairs(n, p, 0).shape[0] == 0
        with pytest.raises(ValueError, match="came out empty"):
            gen_er_graph(n, p, 0)


@pytest.mark.parametrize("call,message", [
    (lambda: gen_er_graph(-1, 0.5, 0), "n must be nonnegative"),
    (lambda: gen_er_graph(5.0, 0.5, 0), "n must be an integer"),
    (lambda: gen_er_graph(5, True, 0), "p must be a finite real number"),
    (lambda: gen_er_graph(5, 1.5, 0), "p must be in [0, 1]"),
    (lambda: gen_completion(d=0), "d must be positive"),
    (lambda: gen_completion(rank=0), "rank must be positive"),
    (lambda: gen_completion(p_obs=float("nan")), "p_obs must be a finite real number"),
    (lambda: gen_er_graph(5, 0.5, -1), "seed must be nonnegative, got -1"),
    (lambda: gen_er_graph(5, 0.5, 1.5), "seed must be an integer, got 1.5"),
    (lambda: gen_completion(seed=-2), "seed must be nonnegative, got -2"),
    (lambda: gen_er_graph(1, 0.5, 0),
     "G(1, 0.5) draw came out empty; with n < 2 there is no vertex pair"),
])
def test_generators_name_a_bad_parameter(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


def test_er_generator_large_draw_is_pinned_and_small():
    # the sha256 of the edges the all-pairs draw gave at n = 5000, which
    # held 298 MiB of pair arrays
    tracemalloc.start()
    try:
        g = gen_er_graph(5000, 0.002, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges.shape == (25063, 3)
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
        "c3b9b1ea4bf55cf8f3ebcf38ed690b0ea0673f9a2117425c638e9e0f796a259b")
    assert peak <= 8 * 2**20


def test_er_generator_peak_memory_is_far_below_one_dense_matrix():
    tracemalloc.start()
    try:
        gen_er_graph(1000, 0.01, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 1000 * 1000 * 8


def _graph_oracle(n, edges):
    """The set-of-tuples validation of an edge list: its message, or the
    canonical edge array."""
    e = np.atleast_2d(np.asarray(edges, dtype=float))
    outside = [(k, end, v) for k, ends in enumerate(e[:, :2].tolist())
               for end, v in enumerate(ends) if not 0 <= v < n]
    if outside:
        k, end, v = outside[0]
        return f"edges[{k}, {end}] must be in [0, {n}), got {v}"
    i, j = e[:, 0].astype(int), e[:, 1].astype(int)
    if np.any(i == j):
        return "self-loops are not allowed"
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if len(set(zip(lo.tolist(), hi.tolist()))) != e.shape[0]:
        return "duplicate edges"
    return np.column_stack([lo, hi, e[:, 2]]).astype(float)


def _cells_oracle(d, rows, cols):
    for name, a in (("rows", rows), ("cols", cols)):
        outside = [(k, v) for k, v in enumerate(np.asarray(a).tolist()) if not 0 <= v < d]
        if outside:
            return f"{name}[{outside[0][0]}] must be in [0, {d}), got {outside[0][1]}"
    r, c = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    if len({(i, j) for i, j in zip(r.tolist(), c.tolist())}) != r.size:
        return "duplicate observed cells"
    return None


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_duplicate_detection_matches_the_set_of_tuples_oracle():
    rng = np.random.default_rng(21)
    seen = set()
    for _ in range(300):
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        edges = np.column_stack([rng.integers(0, n, k), rng.integers(0, n, k),
                                 rng.normal(size=k)])
        if rng.random() < 0.1:
            edges[rng.integers(k), rng.integers(2)] = n
        if rng.random() < 0.5:     # inject a repeat, reversed half the time
            dup = edges[rng.integers(k)].copy()
            if rng.random() < 0.5:
                dup[:2] = dup[1::-1]
            edges = np.vstack([edges, dup])
        want = _graph_oracle(n, edges)
        got = _outcome(lambda: GraphInstance(n, edges).edges)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()
        seen.add(_refusal_kind(want) if isinstance(want, str) else "ok")

        d = int(rng.integers(1, 6))
        rows, cols = rng.integers(0, d + 1, k), rng.integers(0, d + 1, k)
        if rng.random() < 0.5:
            at = rng.integers(k)
            rows, cols = np.append(rows, rows[at]), np.append(cols, cols[at])
        want = _cells_oracle(d, rows, cols)
        got = _outcome(lambda: CompletionInstance(d, rows, cols, np.ones(rows.size)))
        assert (got if isinstance(got, str) else None) == want
        seen.add(_refusal_kind(want) if want else "ok")
    assert seen == {"ok", "self-loops are not allowed", "edges outside the range",
                    "duplicate edges", "rows outside the range", "cols outside the range",
                    "duplicate observed cells"}


def _refusal_kind(message):
    """``message`` with a range refusal's entry, bound and value dropped."""
    return re.sub(r"\[[\d, ]+\] must be in \[0, \d+\), got .*", " outside the range", message)


# instance input that was once truncated to integers, built into a
# non-finite problem, cast with numpy's "invalid value" warning, or taken
# with a size that is not a count
_MANGLED = [
    pytest.param(lambda: GraphInstance(3, [[0.5, 1.9, 1.0]]),
                 "edges[0, 0] must be an integer, got 0.5", id="fractional-endpoint"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0.7], cols=[2.2], vals=[1.0]),
                 "rows[0] must be an integer, got 0.7", id="fractional-row"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0], cols=[2.2], vals=[1.0]),
                 "cols[0] must be an integer, got 2.2", id="fractional-col"),
    pytest.param(lambda: build_maxcut(GraphInstance(3, [[0, 1, np.nan]])),
                 "edges[0, 2] must be a finite real number, got nan", id="nan-weight"),
    pytest.param(lambda: build_maxcut(GraphInstance(3, [[0, 1, 1.0], [1, 2, np.inf]])),
                 "edges[1, 2] must be a finite real number, got inf", id="inf-weight"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0], cols=[1], vals=[np.nan]),
                 "vals[0] must be a finite real number, got nan", id="nan-value"),
    pytest.param(lambda: GraphInstance(3, [[0, 1, 1.0], [1, 2, 1.0], [2, 1.5, 1.0]]),
                 "edges[2, 1] must be an integer, got 1.5", id="fractional-later-endpoint"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0, np.nan], cols=[0, 1], vals=[1.0, 1.0]),
                 "rows[1] must be an integer, got nan", id="nan-row"),
    pytest.param(lambda: GraphInstance(3, [[1e300, 1, 1.0]]),
                 "edges[0, 0] must be in [0, 3), got 1e+300", id="huge-endpoint"),
    pytest.param(lambda: GraphInstance(3, [[0, 1, 1.0], [2, -1e300, 1.0]]),
                 "edges[1, 1] must be in [0, 3), got -1e+300", id="huge-negative-endpoint"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[1e300], cols=[0], vals=[1.0]),
                 "rows[0] must be in [0, 3), got 1e+300", id="huge-row"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0, 1], cols=[2, -1e300], vals=[1.0, 1.0]),
                 "cols[1] must be in [0, 3), got -1e+300", id="huge-negative-col"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[True, False], cols=[0, 1], vals=[1.0, 1.0]),
                 "rows[0] must be an integer, got True", id="bool-rows"),
    pytest.param(lambda: build_maxcut(GraphInstance(3.0, [[0, 1, 1.0]])),
                 "n must be an integer, got 3.0", id="float-n"),
    pytest.param(lambda: GraphInstance(2.5, [[0, 1, 1.0]]),
                 "n must be an integer, got 2.5", id="fractional-n"),
    pytest.param(lambda: GraphInstance(-1, np.zeros((0, 3))),
                 "n must be nonnegative, got -1", id="negative-n"),
    pytest.param(lambda: build_completion(
        CompletionInstance(d=3.0, rows=[0], cols=[1], vals=[1.0]), alpha=1.0),
                 "d must be an integer, got 3.0", id="float-d"),
    pytest.param(lambda: CompletionInstance(d=0, rows=[0], cols=[0], vals=[1.0]),
                 "d must be positive, got 0", id="zero-d"),
]


@pytest.mark.parametrize("build,message", _MANGLED)
def test_instances_reject_input_they_would_mangle(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build,message", _MANGLED + [
    pytest.param(lambda: GraphInstance(3, [[0, 1, 1.0], [0, 3, 1.0]]),
                 "edges[1, 1] must be in [0, 3), got 3.0", id="endpoint-past-n"),
    pytest.param(lambda: GraphInstance(3, [[1, 1, 1.0]]), "self-loops are not allowed",
                 id="self-loop"),
    pytest.param(lambda: GraphInstance(3, [[0, 1, 1.0], [1, 0, 2.0]]), "duplicate edges",
                 id="duplicate-edge"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0, 3], cols=[1, 1], vals=[1.0, 2.0]),
                 "rows[1] must be in [0, 3), got 3", id="row-past-d"),
    pytest.param(lambda: CompletionInstance(d=3, rows=[0, 0], cols=[1, 1], vals=[1.0, 2.0]),
                 "duplicate observed cells", id="duplicate-cell"),
])
def test_instance_refusals_raise_no_numpy_warning(build, message):
    # each refusal is named before an index is cast, so none goes through
    # numpy's "invalid value encountered in cast" warning
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        build()


def test_instances_accept_integral_floats_and_store_ints():
    g = GraphInstance(3, [[2.0, -0.0, 1.5]])
    assert g.edges.tobytes() == np.array([[0.0, 2.0, 1.5]]).tobytes()
    inst = CompletionInstance(d=3, rows=[2.0], cols=[0.0], vals=[1.0])
    assert inst.rows.dtype == inst.cols.dtype == np.int_
    assert (inst.rows[0], inst.cols[0]) == (2, 0)


def _map_arrays(amap):
    return [(a.dtype, a.tobytes()) for a in (amap.idx, amap.row, amap.col, amap.val)]


@pytest.mark.parametrize("n,p,seed", [(200, 0.1, 2), (1000, 0.01, 0), (100, 0.1, 2), (3, 1.0, 0)])
def test_build_maxcut_map_equals_from_triples(n, p, seed):
    g = gen_er_graph(n, p, seed)
    amap = build_maxcut(g).A
    want = ConstraintMap.from_triples(g.n, [[(i, i, 1.0)] for i in range(g.n)])
    assert (amap.n, amap.m) == (want.n, want.m)
    assert _map_arrays(amap) == _map_arrays(want)


@pytest.mark.parametrize("inst", [lambda: gen_completion(150, 3, 0.3, 0),
                                  lambda: gen_completion(5, 2, 0.5, 1)])
def test_build_completion_map_equals_from_triples(inst):
    inst = inst()
    d = inst.d
    amap = build_completion(inst).A
    want = ConstraintMap.from_triples(
        2 * d, [[(int(i), int(d + j), 0.5)] for i, j in zip(inst.rows.tolist(),
                                                             inst.cols.tolist())])
    assert (amap.n, amap.m) == (want.n, want.m)
    assert _map_arrays(amap) == _map_arrays(want)


def test_build_maxcut_rejects_a_graph_without_vertices():
    with pytest.raises(DimensionError, match="matrix order must be positive"):
        build_maxcut(GraphInstance(0, np.zeros((0, 3))))


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


def _weighted_graph():
    g = gen_er_graph(60, 0.2, 4)
    w = np.random.default_rng(5).normal(size=g.edges.shape[0])
    return GraphInstance(n=g.n, edges=np.column_stack([g.edges[:, :2], w]))


@pytest.mark.parametrize("graph", [lambda: gen_er_graph(80, 0.1, 3), _weighted_graph,
                                   lambda: gen_er_graph(1000, 0.01, 0)],
                         ids=["unweighted", "weighted", "maxcut-1000-sketch"])
def test_build_maxcut_cost_is_the_symmetrized_negated_laplacian_bitwise(graph):
    g = graph()
    C, want = build_maxcut(g).C, symmetrize(-g.laplacian())
    if g.n <= model._SPARSE_ABOVE_N:
        assert C.tobytes() == want.tobytes()
        return
    # above the order C stores each edge in both triangles and the whole
    # diagonal, with the dense cost's bits; every other entry is zero
    S = C.tocoo()
    assert np.array_equal(S.data.view(np.int64), want[S.row, S.col].view(np.int64))
    stored = np.zeros(want.shape, dtype=bool)
    stored[S.row, S.col] = True
    assert stored.diagonal().all() and stored.sum() == g.n + 2 * len(g.edges)
    assert not want[~stored].any()


def test_build_maxcut_peak_memory_is_about_one_cost_matrix():
    # above the order the cost is built as a CSR matrix from the edges:
    # 0.64 MB at n = 1000, 8% of one n x n float64 array, where the dense
    # cost, built in place and kept without a copy, peaked at about 115%
    # (scipy.sparse is imported at the top of this module, so its import
    # is not counted)
    g = gen_er_graph(1000, 0.01, 0)
    tracemalloc.start()
    try:
        build_maxcut(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 8 * g.n ** 2


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
                      ("rank", 2.0), ("provenance", 3), ("d_star", float("nan")),
                      ("p_star", -float("inf")), ("nuc", float("nan")), ("nuc", float("inf")),
                      ("nuc", 0), ("nuc", -3.0), ("rank", -3)):
        with pytest.raises(ValueError, match=f"reference value {name} must be"):
            ReferenceValues.from_dict({**refs.to_dict(), name: bad})
    # the committed benchmark references, whose nuclear norm is n, still load
    for path in sorted(REFS_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        assert ReferenceValues.from_dict(data["refs"]).nuc == data["instance"]["n"]


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


def test_completion_cost_is_a_sparse_identity_above_the_order():
    def built(d):
        inst = CompletionInstance(d=d, rows=np.array([0]), cols=np.array([1]),
                                  vals=np.array([1.0]))
        tracemalloc.start()
        try:
            prob = build_completion(inst, alpha=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return prob, peak

    # at the order the dense identity stays; above it no n x n array is made
    prob, _ = built(model._SPARSE_ABOVE_N // 2)
    assert isinstance(prob.C, np.ndarray) and prob.C.tobytes() == np.eye(prob.n).tobytes()
    prob, peak = built(model._SPARSE_ABOVE_N // 2 + 1)
    assert scipy.sparse.issparse(prob.C) and prob.C.nnz == prob.n
    assert prob.C.toarray().tobytes() == np.eye(prob.n).tobytes()
    assert peak <= 0.1 * 8 * prob.n ** 2


def test_completion_generator_properties():
    inst = gen_completion(d=6, rank=2, p_obs=1.0, seed=3)
    assert inst.n_obs == 36
    again = gen_completion(d=6, rank=2, p_obs=1.0, seed=3)
    assert np.array_equal(inst.vals, again.vals)
    # rank-2 sign-factor products are integers no larger than the rank
    assert np.all(inst.vals == np.round(inst.vals))
    assert np.abs(inst.vals).max() <= 2
    assert abs(inst.nuclear_norm() - 6 * 2) <= 1e-9


def test_completion_instance_stores_contiguous_indices():
    """``np.nonzero``'s rows and columns are strided views into one array;
    the instance keeps contiguous copies with the same values."""
    mask = np.random.default_rng(4).random((9, 9)) < 0.4
    r, c = np.nonzero(mask)
    assert not r.flags.c_contiguous
    inst = CompletionInstance(d=9, rows=r, cols=c, vals=np.ones(r.size))
    assert np.array_equal(inst.rows, r) and np.array_equal(inst.cols, c)
    for inst in (inst, gen_completion(d=9, rank=2, p_obs=0.4, seed=4)):
        assert inst.rows.flags.c_contiguous and inst.cols.flags.c_contiguous


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
    assert m["dual_opt"] == pytest.approx(0.1)
    assert m["primal_opt"] == pytest.approx(0.05)
    assert m["primal_feas"] == pytest.approx(0.2)
    assert m["d_star"] == -10.0 and m["p_star"] == 10.0
    assert m["provenance"] == "test"


def test_compute_metrics_zero_denominators():
    refs = ReferenceValues(d_star=0.0, p_star=0.0, nuc=1.0, rank=1,
                           provenance="test")
    m = compute_metrics(F_y=0.25, primal_value=-0.5, feas_norm=0.3,
                        b_norm=0.0, refs=refs)
    assert m["dual_opt"] == 0.25
    assert m["primal_opt"] == 0.5
    assert m["primal_feas"] == 0.3


def test_metrics_from_run_uses_final_row(tmp_path, capsys):
    # the summary of a CLI solve scores the run's final objective and the
    # primal candidate of the trace's last row
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    capsys.readouterr()
    data = read_summary(str(summary))
    m = data["metrics"]
    rec = read_trace(str(trace))[0][-1]
    refs, _ = maxcut_reference(triangle_graph())
    b_norm = float(np.linalg.norm(build_maxcut(triangle_graph()).b))
    again = compute_metrics(data["final_objective"], rec.pval, rec.feas, b_norm, refs)
    assert m["dual_opt"] == again["dual_opt"]
    assert m["primal_opt"] == again["primal_opt"]
    assert m["primal_feas"] == again["primal_feas"]


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
    assert back == res.records


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
    # a bad row is named by path and line: a missing field, an unparsable cell
    _, cfg, res = _short_run(rbar=2)
    good = tmp_path / "good.csv"
    write_trace(str(good), res.records, cfg.rbar)
    lines = good.read_text().splitlines()
    ncol = len(trace_header(cfg.rbar))
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n")
    with pytest.raises(TraceFormatError,
                       match=f"^{re.escape(str(short))}:3: expected {ncol} fields, got {ncol - 1}$"):
        read_trace(str(short))
    garbled = tmp_path / "garbled.csv"
    cells = lines[1].split(",")
    cells[1] = "abc"                                    # F_y
    garbled.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(garbled))}:2: "):
        read_trace(str(garbled))


def test_summary_round_trip(tmp_path):
    prob, cfg, res = _short_run(invariants=True)
    refs, _ = maxcut_reference(triangle_graph())
    rec = res.records[-1]
    metrics = compute_metrics(res.state.F_y, rec.pval, rec.feas,
                              float(np.linalg.norm(prob.b)), refs)
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
    assert back["metrics"]["dual_opt"] == metrics["dual_opt"]


def test_summary_writes_numpy_values(tmp_path):
    # a numpy bool passes SolverConfig.validate, and json.dump alone refuses it
    prob = build_maxcut(triangle_graph())
    cfg = SolverConfig(rbar=2, max_iters=3, check_invariants=np.True_).validate()
    res = run(prob, cfg)
    path = tmp_path / "summary.json"
    write_summary(str(path), {**summary_dict(cfg, res, alpha_effective=prob.alpha),
                              "metrics": {"gaps": np.array([0.5, 2.0]), "rank": np.int64(3)}})
    back = read_summary(str(path))
    assert back["config"]["check_invariants"] is True
    assert back["invariants"]["checked"] == 3
    assert back["metrics"] == {"gaps": [0.5, 2.0], "rank": 3}
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        write_summary(str(path), {"x": object()})


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


def test_descent_bounds_without_descent_steps_pass_with_a_note():
    prob, cfg, res = _short_run(iters=8)
    refs, _ = maxcut_reference(triangle_graph())
    nulls = [replace(r, descent=False) for r in res.records]
    checks = check_descent_bounds(nulls, refs, cfg.rho, cfg.beta, prob.alpha,
                                  res.stats.max_norm_y)
    assert [c.name for c in checks] == ["primal feasibility bound", "dual feasibility bound",
                                        "gap upper bound", "gap lower bound"]
    assert all(c.passed and c.count == 0 and c.note == "no descent steps" for c in checks)


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


def test_cli_sweep_creates_missing_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "not" / "yet"
    rc = main(["sweep", "--problem", "maxcut", "--gen", "triangle",
               "--rbar", "1", "--variants", "block",
               "--max-iters", "8", "--auto-ref", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    assert (out_dir / "maxcut_block_r1.csv").exists()


def test_cli_sweep_bad_instance_leaves_no_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    rc = main(["sweep", "--problem", "maxcut", "--gen", "ring", "--out-dir", str(out_dir)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_sweep_run_matches_solve_bytes(tmp_path, capsys):
    # sweep and solve share one solve-and-record step, so a sweep of one
    # configuration writes the files that solve writes for it
    flags = ["--problem", "maxcut", "--gen", "er,n=30,p=0.2,seed=0", "--rbar", "3",
             "--max-iters", "60", "--inner-max-iter", "60",
             "--auto-ref", "--check-invariants"]
    trace, summary = tmp_path / "solve.csv", tmp_path / "solve.json"
    assert main(["solve", *flags, "--variant", "hr",
                 "--trace", str(trace), "--summary", str(summary)]) == 0
    assert main(["sweep", *flags, "--variants", "hr", "--out-dir", str(tmp_path / "sweep")]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep" / "maxcut_hr_r3.csv").read_bytes() == trace.read_bytes()
    assert (tmp_path / "sweep" / "maxcut_hr_r3.json").read_bytes() == summary.read_bytes()


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
    ["solve", "--problem", "maxcut", "--gen", "triangle", "--save-ref", "ref.json"],
    ["plotdata", "--trace", "t.csv", "--ref", "ref.json", "--d-star", "1.0"],
    ["solve", "--problem", "maxcut", "--gen", "er,n=30,weight=2"],
    ["solve", "--problem", "maxcut", "--gen", "er,n=20,seed=-1"],
    ["solve", "--problem", "completion", "--gen", "d=5,seed=-2"],
])
def test_cli_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--problem", "maxcut", "--gen", "triangle", "--alpha", "inf"],
     "alpha must be a finite real number, got inf"),
    (["--problem", "completion", "--gen", "d=5,rank=0"], "rank must be positive, got 0"),
    (["--problem", "maxcut", "--gen", "er,n=20,p=nan"], "p must be a finite real number, got nan"),
], ids=["alpha-inf", "completion-rank-zero", "er-p-nan"])
def test_cli_solve_names_a_bad_penalty_or_generator_parameter(argv, message, capsys):
    assert main(["solve", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
    (_set("config", "beta", 0), "config.beta"),
    (_set("config", "beta", 1.0), "config.beta"),
    (_set("config", "rho", 0.0), "config.rho"),
    (_set("config", "rho", float("nan")), "config.rho"),
    (_set("config", "rho", float("inf")), "config.rho"),
    (_set("alpha_effective", -1.0), "alpha_effective"),
    (_set("alpha_effective", float("inf")), "alpha_effective"),
    (_set("max_norm_y", -1.0), "max_norm_y"),
    (_set("max_norm_y", float("nan")), "max_norm_y"),
], ids=["config-list", "invariants-list", "rho-string", "max-norm-y-string",
        "invariants-without-model-minus-f", "membership-err-string",
        "without-alpha-effective", "beta-zero", "beta-one", "rho-zero", "rho-nan", "rho-inf",
        "alpha-negative", "alpha-inf", "max-norm-y-negative", "max-norm-y-nan"])
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


@pytest.mark.parametrize("nuc", [0, -3.0, float("nan")])
def test_cli_verify_ref_nuc_out_of_range_exits_two(tmp_path, capsys, nuc):
    rc, trace, summary = _solve_triangle(tmp_path)
    assert rc == 0
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"d_star": 9.0, "p_star": -9.0, "nuc": nuc, "rank": 1,
                               "provenance": "test"}))
    capsys.readouterr()
    rc = main(["verify", "--trace", str(trace), "--summary", str(summary), "--ref", str(ref)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "reference value nuc must be" in captured.err


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
    # both flags name two gap denominators, and neither wins silently
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps({"d_star": 9.0}))
    rc = main(["plotdata", "--trace", str(trace), "--ref", str(ref), "--d-star", "1.0"])
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
