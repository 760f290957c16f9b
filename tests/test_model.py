"""Penalized dual objective and cutting-model checks."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import specbundle.bundle as bundle
import specbundle.model as model
from specbundle import ConstraintMap, DimensionError, SdpProblem, SolverConfig, sketch_init
from specbundle.bench import build_completion, build_maxcut, gen_completion, gen_er_graph
from specbundle.bench.problems import GraphInstance
from specbundle.bundle import init_state, step
from specbundle.linops import EigsFallbackWarning, orthonormalize, symmetrize, top_eigs
from specbundle.model import (Aggregate, dual_objective, model_value,
                              objective_with_spectrum, simple_model_value,
                              zero_aggregate)

from conftest import rand_problem, rand_setup


def _F_dense_oracle(prob, y):
    M = prob.A.adjoint(y) - prob.C
    lam = scipy.linalg.eigvalsh(M).max()
    return float(-prob.b @ y + prob.alpha * max(lam, 0.0))


def test_dual_objective_zero_point():
    rng = np.random.default_rng(0)
    prob = rand_problem(rng)
    want = prob.alpha * max(scipy.linalg.eigvalsh(-prob.C).max(), 0.0)
    assert abs(dual_objective(prob, np.zeros(prob.m)) - want) <= 1e-12 * (1 + abs(want))


def test_dual_objective_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        prob = rand_problem(rng, n=int(rng.integers(2, 9)),
                            m=int(rng.integers(1, 6)))
        y = rng.normal(size=prob.m)
        got = dual_objective(prob, y)
        want = _F_dense_oracle(prob, y)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_dual_objective_negative_definite_slack_drops_penalty():
    # C strongly positive definite, y = 0: A*y - C = -C is negative definite,
    # so the penalty term vanishes and F = 0.
    amap = ConstraintMap.from_triples(3, [[(0, 0, 1.0)]])
    prob = SdpProblem(C=np.eye(3) * 4.0, A=amap, b=np.array([1.0]), alpha=2.0)
    assert dual_objective(prob, np.zeros(1)) == 0.0


def test_objective_with_spectrum_consistent():
    rng = np.random.default_rng(2)
    prob = rand_problem(rng)
    y = rng.normal(size=prob.m)
    F, vals, vecs = objective_with_spectrum(prob, y, 3)
    assert abs(F - dual_objective(prob, y)) <= 1e-12 * (1 + abs(F))
    assert vals.shape == (3,)
    assert vecs.shape == (prob.n, 3)
    M = prob.A.adjoint(y) - prob.C
    full = np.sort(scipy.linalg.eigvalsh(M))[::-1]
    assert np.abs(vals - full[:3]).max() <= 1e-9 * (1 + np.abs(full).max())


@pytest.mark.parametrize("prob", [
    build_maxcut(gen_er_graph(40, 0.2, 0)),
    build_completion(gen_completion(12, 2, 0.4, 0)),
    rand_problem(np.random.default_rng(9), n=9, m=6),
], ids=["maxcut", "completion", "random"])
def test_dense_dual_slack_is_bitwise_the_negated_slack(prob):
    # the form dual_slack replaced: the negation of a fresh C - A*(y)
    rng = np.random.default_rng(10)
    for y in (np.zeros(prob.m), rng.normal(size=prob.m),
              np.where(rng.random(prob.m) < 0.4, 0.0, rng.normal(size=prob.m))):
        want = -(prob.C - prob.A.adjoint(y))
        assert prob.dual_slack(y).tobytes() == want.tobytes()


def _probe_slacks(prob, cfg, steps):
    """Points, slacks and bundle bases at the invariant check's probes
    around the candidates of the first ``steps`` steps of a solve, drawn as
    the check draws them."""
    state = init_state(prob, cfg)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        state, _, _ = step(prob, cfg, state)
        z = state.z
        scale = 1.0 + float(np.linalg.norm(z))
        for radius in bundle._PROBE_RADII:
            d = rng.standard_normal(prob.m)
            y = z + radius * scale * d / np.linalg.norm(d)
            yield y, prob.dual_slack(y), state.V


def test_probe_objective_is_bitwise_the_spectrum_objective():
    # completion-150-verified's instance and configuration, 30 probes
    prob = build_completion(gen_completion(150, 3, 0.3, 0))
    cfg = SolverConfig(variant="block", rbar=3, rho=5.0)
    for y, D, _ in _probe_slacks(prob, cfg, 3):
        # the objective of the top eigenpair, with the probe's slack and without
        want = objective_with_spectrum(prob, y, 1, D)[0]
        assert np.float64(dual_objective(prob, y, D)).tobytes() == np.float64(want).tobytes()
        assert np.float64(dual_objective(prob, y)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("build, cfg", [
    # completion-150-verified's instance and configuration
    (lambda: build_completion(gen_completion(150, 3, 0.3, 0)),
     SolverConfig(variant="block", rbar=3, rho=5.0)),
    # maxcut-200-block's instance and configuration
    (lambda: build_maxcut(gen_er_graph(200, 0.1, 2)),
     SolverConfig(variant="block", rbar=7, rho=0.5)),
], ids=["completion-150", "maxcut-200"])
def test_objective_bracket_holds_at_every_probe(build, cfg):
    prob = build()
    probes = 0
    for y, D, V in _probe_slacks(prob, cfg, 3):
        lo, hi = bundle._objective_bracket(prob, y, D, V, (V.T @ D).T)
        assert lo <= dual_objective(prob, y, D) <= hi
        probes += 1
    assert probes == 30


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dual_objective_rejects_non_finite_input(bad):
    prob = rand_problem(np.random.default_rng(11))
    y = np.zeros(prob.m)
    y[0] = bad
    for call in (lambda: dual_objective(prob, y),
                 lambda: objective_with_spectrum(prob, y, 2)):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            call()


def test_problem_validation():
    amap = ConstraintMap.from_triples(2, [[(0, 0, 1.0)]])
    with pytest.raises(ValueError):
        SdpProblem(C=np.eye(2), A=amap, b=np.array([1.0]), alpha=0.0)
    with pytest.raises(ValueError):
        SdpProblem(C=np.eye(2), A=amap, b=np.array([1.0]), alpha=-1.0)
    with pytest.raises(Exception):
        SdpProblem(C=np.eye(3), A=amap, b=np.array([1.0]), alpha=1.0)
    with pytest.raises(Exception):
        SdpProblem(C=np.eye(2), A=amap, b=np.array([1.0, 2.0]), alpha=1.0)
    # an asymmetry at roundoff level is symmetrized; the tolerance is
    # absolute, 1e-12 * max(1, max |C_ij|), so 5e-6 is refused like a
    # gross asymmetry, and so is a NaN
    C = np.array([[1.0, np.nextafter(1.0, 2.0)], [1.0, 1.0]])
    stored = SdpProblem(C=C, A=amap, b=np.array([1.0]), alpha=1.0).C
    assert stored.tobytes() == symmetrize(C).tobytes() and stored[0, 1] != C[0, 1]
    for bad in ([[1.0, 1.0 + 5e-6], [1.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]],
                [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(ValueError, match="must be symmetric"):
            SdpProblem(C=np.array(bad), A=amap, b=np.array([1.0]), alpha=1.0)


@pytest.mark.parametrize("alpha,want", [
    (float("inf"), "a finite real number"), (float("nan"), "a finite real number"),
    (True, "a finite real number"), ("2", "a finite real number"), (0, "positive"),
])
def test_problem_names_a_bad_penalty(alpha, want):
    # refused by name when the problem is built, before any eigensolve sees it
    with pytest.raises(ValueError, match=f"^alpha must be {want}, got"):
        build_maxcut(GraphInstance(n=3, edges=np.array([[0, 1, 1.0]])), alpha=alpha)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_problem_names_a_non_finite_right_hand_side(bad):
    amap = ConstraintMap.from_triples(3, [[(0, 0, 1.0)], [(1, 1, 1.0)]])
    with pytest.raises(ValueError, match=rf"^b\[1\] must be a finite real number, got {bad}$"):
        SdpProblem(C=np.eye(3), A=amap, b=np.array([1.0, bad]), alpha=1.0)


def test_cost_is_stored_as_symmetrize_leaves_it():
    amap = ConstraintMap.from_triples(3, [[(0, 0, 1.0)]])
    b = np.array([1.0])
    tiny, half = 5e-324, np.finfo(float).max / 2
    # exactly symmetric, with signed zeros, subnormals and the largest
    # entries whose doubling stays finite: stored as given, no copy
    C = np.array([[-0.0, tiny, -half], [tiny, 0.0, -tiny], [-half, -tiny, half]])
    prob = SdpProblem(C=C, A=amap, b=b, alpha=1.0)
    assert prob.C is C and C.tobytes() == symmetrize(C).tobytes()
    # equal as numbers but not as bits (+0.0 against -0.0), or an entry
    # above half the largest double: stored as symmetrize(C), +0.0 in both
    # places and inf where the doubling overflows
    with np.errstate(over="ignore"):
        for i, j, v in ((0, 1, -0.0), (2, 1, -0.0), (2, 2, np.nextafter(half, np.inf)),
                        (0, 0, -np.finfo(float).max)):
            D = np.zeros((3, 3))
            D[i, j] = v
            prob = SdpProblem(C=D, A=amap, b=b, alpha=1.0)
            assert prob.C is not D and prob.C.tobytes() == symmetrize(D).tobytes()
        assert prob.C[0, 0] == -np.inf
    assert np.signbit(SdpProblem(C=-np.zeros((3, 3)), A=amap, b=b, alpha=1.0).C).all()
    # other layouts and dtypes are copied to a C-contiguous float64 array
    E = np.asfortranarray(np.arange(9.0).reshape(3, 3) + np.arange(9.0).reshape(3, 3).T)
    for given in (E, E.astype(np.float32), E.astype(int)):
        stored = SdpProblem(C=given, A=amap, b=b, alpha=1.0).C
        assert stored.flags.c_contiguous and stored.tobytes() == symmetrize(E).tobytes()


def _sparse_order_map():
    n = model._SPARSE_ABOVE_N + 1
    return ConstraintMap.from_triples(n, [[(0, 0, 1.0)]]), np.array([1.0])


def _csr(n, entries):
    """An n x n csr_matrix holding the (i, j, value) ``entries`` as given."""
    i, j, v = zip(*entries)
    return scipy.sparse.csr_matrix((np.array(v, dtype=float), (i, j)), shape=(n, n))


def test_sparse_cost_above_the_order_must_be_symmetric_bit_for_bit():
    amap, b = _sparse_order_map()
    n = amap.n
    half = np.finfo(float).max / 2
    # a stored +0.0 reads as the entry left out, a stored -0.0 does not
    for good in ([(0, 1, 2.0), (1, 0, 2.0), (2, 2, -0.0)], [(0, 1, 0.0), (3, 3, half)]):
        SdpProblem(C=_csr(n, good), A=amap, b=b, alpha=1.0)
    for bad in ([(0, 1, 1.0)], [(0, 1, 1.0), (1, 0, np.nextafter(1.0, 2.0))],
                [(0, 1, -0.0)], [(0, 0, np.nan)], [(0, 0, np.inf)],
                [(0, 0, np.nextafter(half, np.inf))]):
        with pytest.raises(ValueError, match="must be symmetric"):
            SdpProblem(C=_csr(n, bad), A=amap, b=b, alpha=1.0)
    with pytest.raises(DimensionError, match="does not match map order"):
        SdpProblem(C=scipy.sparse.identity(n + 1, format="csr"), A=amap, b=b, alpha=1.0)


def test_cost_storage_follows_the_order():
    amap, b = _sparse_order_map()
    n = amap.n
    # a canonical float64 csr_matrix is stored as given; other sparse
    # forms become one, duplicates summed and the input left as it was
    C = _csr(n, [(0, 1, 2.0), (1, 0, 2.0)])
    assert SdpProblem(C=C, A=amap, b=b, alpha=1.0).C is C
    dup = scipy.sparse.csr_matrix((np.array([1.5, 0.5, 2.0]), np.array([1, 1, 0]),
                                   np.array([0, 2, 3] + [3] * (n - 2))), shape=(n, n))
    for given in (dup, C.tocoo(), scipy.sparse.csr_array(C), C.astype(np.float32)):
        stored = SdpProblem(C=given, A=amap, b=b, alpha=1.0).C
        assert type(stored) is scipy.sparse.csr_matrix and stored.dtype == np.float64
        assert stored.has_canonical_format and (stored != C).nnz == 0
    assert dup.nnz == 3
    # a dense C above the order is checked and symmetrized as below it and
    # stored as CSR with its nonzero entries, so its -0.0 is not kept
    D = np.zeros((n, n))
    D[0, 1], D[1, 0], D[2, 2] = 1.0, np.nextafter(1.0, 2.0), -0.0
    stored = SdpProblem(C=D, A=amap, b=b, alpha=1.0).C
    want = symmetrize(D)
    want[2, 2] = 0.0
    assert type(stored) is scipy.sparse.csr_matrix and stored.nnz == 2
    assert stored.toarray().tobytes() == want.tobytes()
    # a sparse C at or below the order is stored as its dense array is
    small = ConstraintMap.from_triples(3, [[(0, 0, 1.0)]])
    for given in (_csr(3, [(0, 1, 1.0), (1, 0, 1.0), (2, 2, -0.0)]),
                  _csr(3, [(0, 1, 1.0), (1, 0, np.nextafter(1.0, 2.0))])):
        stored = SdpProblem(C=given, A=small, b=b, alpha=1.0).C
        want = SdpProblem(C=given.toarray(), A=small, b=b, alpha=1.0).C
        assert isinstance(stored, np.ndarray) and stored.tobytes() == want.tobytes()


# -- sparse slack and Lanczos eigensolve -----------------------------------

@pytest.mark.parametrize("prob", [
    build_maxcut(gen_er_graph(80, 0.1, 3)),
    build_completion(gen_completion(30, 2, 0.4, 1)),
    rand_problem(np.random.default_rng(7), n=9, m=6),
], ids=["maxcut", "completion", "random"])
def test_csr_slack_equals_dense_slack_bitwise(prob):
    rng = np.random.default_rng(8)
    for y in (np.zeros(prob.m), rng.normal(size=prob.m), rng.normal(size=prob.m) * 1e3):
        S = prob._neg_slack_csr(y).tocoo()
        D = -prob.A.slack(prob.C, y)
        assert np.array_equal(S.data.view(np.int64), D[S.row, S.col].view(np.int64))
        off = np.ones(D.shape, dtype=bool)
        off[S.row, S.col] = False
        assert not D[off].any()


def _graph_with_an_isolated_vertex():
    n = model._SPARSE_ABOVE_N + 4
    g = gen_er_graph(n - 1, 0.02, 1)
    return GraphInstance(n, g.edges)


@pytest.mark.parametrize("graph", [lambda: gen_er_graph(1000, 0.01, 0),
                                   _graph_with_an_isolated_vertex],
                         ids=["maxcut-1000-sketch", "isolated-vertex"])
def test_csr_slack_has_the_bits_of_the_dense_cost_slack(graph):
    # the CSR slack the Lanczos solve sees, as it was built from the dense
    # cost -L: the pattern of -L's nonzeros and the diagonal constraints,
    # and -(C - A* y) on it
    g = graph()
    prob = build_maxcut(g)
    assert scipy.sparse.issparse(prob.C)
    n, C = g.n, -g.laplacian()
    lin = np.union1d(np.flatnonzero(C), np.arange(n) * (n + 1))
    rows, cols = np.divmod(lin, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    rng = np.random.default_rng(12)
    for y in (np.zeros(n), rng.normal(size=n)):
        D = -prob.A.slack(C, y)
        want = scipy.sparse.csr_matrix((D.ravel()[lin], cols, indptr), shape=(n, n))
        got = prob._neg_slack_csr(y)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_csr_slack_checks_y_shape():
    prob = build_maxcut(gen_er_graph(10, 0.5, 0))
    with pytest.raises(ValueError):
        prob._neg_slack_csr(np.zeros(prob.m + 1))


def test_objective_goes_sparse_only_above_the_threshold(monkeypatch):
    def refuse(self, y):
        raise AssertionError("sparse path taken")
    monkeypatch.setattr(SdpProblem, "_neg_slack_csr", refuse)
    n = model._SPARSE_ABOVE_N
    objective_with_spectrum(build_maxcut(gen_er_graph(n, 0.01, 0)), np.zeros(n), 2)
    with pytest.raises(AssertionError, match="sparse path"):
        objective_with_spectrum(build_maxcut(gen_er_graph(n + 1, 0.01, 0)),
                                np.zeros(n + 1), 2)


def test_lanczos_matches_dense_along_a_trajectory():
    # n=450 takes the Lanczos path; y=0 (the Laplacian, whose null space
    # holds the all-ones vector) is the first point
    prob = build_maxcut(gen_er_graph(450, 0.02, 0))
    assert prob.n > model._SPARSE_ABOVE_N
    cfg = SolverConfig(rbar=2, rho=1.0)
    state = init_state(prob, cfg)
    points = [state.y]
    for _ in range(6):
        state, _, _ = step(prob, cfg, state)
        points.append(state.z)
    for y in points:
        M = prob._neg_slack_csr(y)
        vs, Vs = top_eigs(M, 3)
        vd, Vd = top_eigs(M.toarray(), 3)
        assert np.abs(vs - vd).max() <= 1e-12 * np.abs(vd).max()
        assert np.abs(Vs.T @ Vs - np.eye(3)).max() <= 1e-12
        r = M @ Vs - Vs * vs
        assert np.linalg.norm(r, axis=0).max() <= 1e-10 * np.abs(vd).max()
        # the top eigenvalue is simple here: same vector, same sign
        assert np.abs(Vs[:, 0] - Vd[:, 0]).max() <= 1e-8


def _lanczos_trajectory():
    """The n=450 problem and the seven points of the trajectory above,
    built with ``EigsFallbackWarning`` raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", EigsFallbackWarning)
        prob = build_maxcut(gen_er_graph(450, 0.02, 0))
        cfg = SolverConfig(rbar=2, rho=1.0)
        state = init_state(prob, cfg)
        points = [state.y]
        for _ in range(6):
            state, _, _ = step(prob, cfg, state)
            points.append(state.z)
    return prob, points


def test_lanczos_needs_no_dense_redo_along_a_trajectory():
    prob, points = _lanczos_trajectory()
    with warnings.catch_warnings():
        warnings.simplefilter("error", EigsFallbackWarning)
        for y in points:
            top_eigs(prob._neg_slack_csr(y), 3)


def test_lanczos_operator_gives_the_bits_of_the_matrix(monkeypatch):
    # top_eigs hands eigsh a LinearOperator; eigsh on the CSR matrix itself,
    # with the same keywords, must return the same bits
    import scipy.sparse.linalg as spla

    eigsh = spla.eigsh
    calls = []

    def spy(A, **kw):
        out = eigsh(A, **kw)
        calls.append((A, kw, out))
        return out

    prob, points = _lanczos_trajectory()
    monkeypatch.setattr(spla, "eigsh", spy)
    for y in points:
        M = prob._neg_slack_csr(y)
        top_eigs(M, 3)
        (A, kw, (vals, vecs)), = calls
        calls.clear()
        assert not scipy.sparse.issparse(A) and A.shape == M.shape
        want_vals, want_vecs = eigsh(M, **kw)
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()


# -- cutting model ----------------------------------------------------------

def test_model_value_above_the_threshold_matches_the_dense_formula():
    # n=450 builds the slack as a CSR matrix; the closed form must agree
    # with V^T D V on the dense slack
    prob = build_maxcut(gen_er_graph(450, 0.02, 0))
    assert prob.n > model._SPARSE_ABOVE_N
    rng = np.random.default_rng(11)
    V = orthonormalize(rng.normal(size=(prob.n, 3)))
    for y in (np.zeros(prob.m), rng.normal(size=prob.m)):
        D = -prob.A.slack(prob.C.toarray(), y)
        lam = float(np.linalg.eigvalsh(V.T @ D @ V)[-1])
        assert lam > 0.0
        want = -float(prob.b @ y) + prob.alpha * lam
        got = model_value(prob, zero_aggregate(prob), V, y)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_model_tight_at_build_point():
    # V spans the top eigenvector of A*y - C and the aggregate is zero:
    # the model reproduces F exactly at y.
    rng = np.random.default_rng(3)
    for _ in range(20):
        prob = rand_problem(rng)
        y = rng.normal(size=prob.m)
        M = prob.A.adjoint(y) - prob.C
        _, vecs = top_eigs(M, 1)
        agg = zero_aggregate(prob)
        got = model_value(prob, agg, vecs, y)
        want = dual_objective(prob, y)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_model_negative_compressed_part_floors_at_linear():
    # V spans a direction where the slack surrogate is negative definite and
    # the aggregate is zero, so the max picks the 0 branch.
    amap = ConstraintMap.from_triples(2, [[(0, 0, 1.0)]])
    prob = SdpProblem(C=np.eye(2) * 5.0, A=amap, b=np.array([2.0]), alpha=3.0)
    y = np.array([1.0])
    V = np.eye(2)[:, :1]
    got = model_value(prob, zero_aggregate(prob), V, y)
    assert got == -prob.b @ y


def test_model_value_angle_grid_oracle():
    # 2x2 with a full orthonormal V: the compressed eigenvalue equals the
    # max over unit directions v(theta) of v' (A*y - C) v.
    rng = np.random.default_rng(4)
    for _ in range(10):
        prob = rand_problem(rng, n=2, m=2)
        y = rng.normal(size=2)
        V = orthonormalize(rng.normal(size=(2, 2)))
        M = prob.A.adjoint(y) - prob.C
        theta = np.linspace(0.0, np.pi, 200001)
        dirs = np.stack([np.cos(theta), np.sin(theta)])
        quad = np.einsum("in,ij,jn->n", dirs, M, dirs)
        want = float(-prob.b @ y + prob.alpha * max(quad.max(), 0.0))
        got = model_value(prob, zero_aggregate(prob), V, y)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_model_minorizes_objective():
    rng = np.random.default_rng(5)
    for _ in range(60):
        prob, agg, V, y, _ = rand_setup(rng)
        probe = y + rng.normal(size=prob.m) * rng.uniform(0.1, 5.0)
        mv = model_value(prob, agg, V, probe)
        F = dual_objective(prob, probe)
        scale = 1.0 + abs(F)
        assert mv <= F + 1e-8 * scale


def test_model_convex_along_segments():
    rng = np.random.default_rng(6)
    for _ in range(30):
        prob, agg, V, y, _ = rand_setup(rng)
        u = y + rng.normal(size=prob.m)
        w = y + rng.normal(size=prob.m)
        mid = model_value(prob, agg, V, 0.5 * (u + w))
        avg = 0.5 * (model_value(prob, agg, V, u) + model_value(prob, agg, V, w))
        assert mid <= avg + 1e-9 * (1.0 + abs(avg))


def test_zero_aggregate_flags():
    rng = np.random.default_rng(7)
    prob = rand_problem(rng)
    agg = zero_aggregate(prob)
    assert agg.is_zero
    assert agg.tr == 0.0
    assert np.array_equal(agg.AX, np.zeros(prob.m))
    assert agg.X.tobytes() == np.zeros((prob.n, prob.n)).tobytes()
    sk = sketch_init(prob.n, 1, seed=0)
    assert zero_aggregate(prob, sk).X is sk
    busy = Aggregate(AX=np.ones(prob.m), CX=1.0, tr=2.0)
    assert not busy.is_zero


# -- two-plane simplified model ---------------------------------------------

def test_simple_model_value_at_candidate():
    # evaluating at z itself: the candidate plane contributes exactly F_z and
    # the aggregate plane exactly model_cand, so the max of the two comes out.
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        z = rng.normal(size=m)
        f_cand = rng.normal()
        model_cand = f_cand - abs(rng.normal())  # model never above F
        g = rng.normal(size=m)
        s = rng.normal(size=m)
        got = simple_model_value(f_cand, g, s, model_cand, z, z)
        assert abs(got - max(f_cand, model_cand)) <= 1e-12 * (1 + abs(got))


def test_simple_model_value_constant_when_flat():
    z = np.array([1.0, -2.0])
    y = np.array([5.0, 7.0])
    got = simple_model_value(3.0, np.zeros(2), np.zeros(2), 1.0, z, y)
    assert got == 3.0


def test_simple_model_value_direct():
    rng = np.random.default_rng(9)
    for _ in range(40):
        m = int(rng.integers(1, 6))
        z = rng.normal(size=m)
        y = rng.normal(size=m)
        f_cand = rng.normal()
        model_cand = rng.normal()
        g = rng.normal(size=m)
        s = rng.normal(size=m)
        want = max(f_cand + g @ (y - z), model_cand + s @ (y - z))
        got = simple_model_value(f_cand, g, s, model_cand, z, y)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
