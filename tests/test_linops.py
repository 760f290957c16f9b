"""Constraint-map, eigensolve, and orthonormalization checks, each against
an independent dense oracle."""

import gc
import re
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from specbundle import ConstraintMap, DimensionError, RankError, linops
from specbundle.linops import orthonormalize, symmetrize, top_eigs, top_eigval

from conftest import dense_constraints, rand_sparse_map, symm


def test_symmetrize_exact():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(5, 5))
    S = symmetrize(B)
    assert np.array_equal(S, S.T)
    # symmetric input is a fixed point
    assert np.array_equal(symmetrize(S), S)


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(DimensionError):
        symmetrize(np.zeros((2, 3)))


# -- constraint map ---------------------------------------------------------

def test_apply_diagonal_map_identity():
    amap = ConstraintMap.from_triples(3, [[(i, i, 1.0)] for i in range(3)])
    assert np.array_equal(amap.apply(np.eye(3)), np.ones(3))


def test_apply_zero_matrix():
    rng = np.random.default_rng(1)
    amap = rand_sparse_map(rng, 5, 4)
    assert np.array_equal(amap.apply(np.zeros((5, 5))), np.zeros(4))


def test_apply_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 6))
        amap = rand_sparse_map(rng, n, m)
        X = symm(rng.normal(size=(n, n)))
        mats = dense_constraints(amap)
        want = np.array([sum(mats[k, i, j] * X[i, j]
                             for i in range(n) for j in range(n))
                         for k in range(m)])
        got = amap.apply(X)
        assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())


def test_adjoint_matches_accumulation_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 6))
        amap = rand_sparse_map(rng, n, m)
        y = rng.normal(size=m)
        want = np.tensordot(y, dense_constraints(amap), axes=1)
        got = amap.adjoint(y)
        assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
        assert np.array_equal(got, got.T)


def test_adjoint_is_bitwise_the_add_at_scatter():
    # the reference scatter: np.add.at over the upper triangle, then mirrored
    def oracle(amap, y):
        upper = np.zeros((amap.n, amap.n))
        np.add.at(upper, (amap.row, amap.col), y[amap.idx] * amap.val)
        return upper + np.triu(upper, 1).T

    rng = np.random.default_rng(12)
    for _ in range(20):
        # 30 constraints on order 4 share their positions many times over;
        # zero entries of y give signed-zero products
        amap = rand_sparse_map(rng, 4, 30, max_nnz=4)
        y = rng.normal(size=amap.m)
        y[rng.random(amap.m) < 0.3] = 0.0
        assert np.unique(amap.row * amap.n + amap.col).size < amap.idx.size
        assert amap.adjoint(y).tobytes() == oracle(amap, y).tobytes()


def test_adjoint_consistency_inner_products():
    # <A(X), y> == <X, A* y> for random X, y
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        amap = rand_sparse_map(rng, n, m)
        X = symm(rng.normal(size=(n, n)))
        y = rng.normal(size=m)
        lhs = float(amap.apply(X) @ y)
        rhs = float(np.sum(X * amap.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_slack_zero_y_returns_C():
    rng = np.random.default_rng(5)
    amap = rand_sparse_map(rng, 4, 3)
    C = symm(rng.normal(size=(4, 4)))
    assert np.array_equal(amap.slack(C, np.zeros(3)), C)


def test_slack_single_constraint():
    amap = ConstraintMap.from_triples(2, [[(0, 0, 1.0)]])
    got = amap.slack(np.zeros((2, 2)), np.array([3.0]))
    want = np.array([[-3.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(got, want)


def test_congruence_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, n))
        amap = rand_sparse_map(rng, n, m)
        V = rng.normal(size=(n, p))
        mats = dense_constraints(amap)
        want = np.stack([V.T @ mats[k] @ V for k in range(m)])
        got = amap.congruence(V)
        assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.abs(want).max())


def test_congruence_is_bitwise_the_add_at_scatter():
    # the form congruence replaced: np.add.at of each stored entry's p x p
    # block into its constraint's slot
    def oracle(amap, V):
        Vr, Vc = V[amap.row], V[amap.col]
        outer = Vr[:, :, None] * Vc[:, None, :]
        sym = outer + outer.transpose(0, 2, 1)
        diag = (amap.row == amap.col)[:, None, None]
        contrib = np.where(diag, 0.5 * sym, sym) * amap.val[:, None, None]
        T = np.zeros((amap.m, V.shape[1], V.shape[1]))
        np.add.at(T, amap.idx, contrib)
        return T

    rng = np.random.default_rng(13)
    for p in range(1, 9):
        for _ in range(5):
            # up to six entries a constraint, so each slot sums several
            # terms; zero rows of V give signed-zero products
            amap = rand_sparse_map(rng, 10, 40, max_nnz=6)
            V = rng.normal(size=(10, p))
            V[rng.random(10) < 0.2] = 0.0
            V[rng.random(10) < 0.1] = -0.0
            assert amap.congruence(V).tobytes() == oracle(amap, V).tobytes()


def test_apply_outer_is_bitwise_apply_of_the_outer_product():
    rng = np.random.default_rng(14)
    for _ in range(20):
        amap = rand_sparse_map(rng, 8, 30, max_nnz=5)
        v = rng.normal(size=8)
        v[rng.random(8) < 0.3] = -0.0
        want = amap.apply(np.outer(v, v))
        assert amap.apply_outer(v).tobytes() == want.tobytes()
        assert amap.apply_outer(v).tobytes() == amap.congruence(v)[:, 0, 0].tobytes()
    with pytest.raises(DimensionError):
        amap.apply_outer(np.ones(7))


def test_slack_is_bitwise_C_minus_the_adjoint():
    rng = np.random.default_rng(15)
    for _ in range(20):
        amap = rand_sparse_map(rng, 6, 12)
        C = rng.normal(size=(6, 6))
        C[rng.random((6, 6)) < 0.3] = 0.0
        C = symm(C)
        y = rng.normal(size=12)
        y[rng.random(12) < 0.3] = 0.0
        assert amap.slack(C, y).tobytes() == (C - amap.adjoint(y)).tobytes()


def test_map_construction_errors():
    with pytest.raises(ValueError):
        ConstraintMap.from_triples(3, [[(0, 1, 1.0), (1, 0, 2.0)]])  # duplicate
    with pytest.raises(DimensionError):
        ConstraintMap.from_triples(3, [[(0, 3, 1.0)]])               # out of range
    with pytest.raises(DimensionError):
        ConstraintMap.from_triples(3, [])                            # no constraints
    with pytest.raises(DimensionError):
        ConstraintMap.from_triples(0, [[(0, 0, 1.0)]])
    amap = ConstraintMap.from_triples(3, [[(0, 0, 1.0)]])
    with pytest.raises(DimensionError):
        amap.apply(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        amap.adjoint(np.zeros(2))


def _entries(**changed):
    """Fields of a valid order-402, two-constraint map, with ``changed``."""
    fields = dict(n=402, m=2, idx=np.array([0, 1, 1]), row=np.array([0, 3, 4]),
                  col=np.array([0, 5, 4]), val=np.array([1.0, 2.0, 3.0]))
    return {**fields, **changed}


@pytest.mark.parametrize("changed,message", [
    # n = 402 is above the CSR-slack order, whose pattern drops an entry below the diagonal
    (dict(row=np.array([0, 5, 4]), col=np.array([0, 3, 4])),
     "entry 1 (constraint 1, (5, 3), value 2.0): below the diagonal (row > col)"),
    (dict(idx=np.array([0, 1, 2])), "entry 2 (constraint 2, (4, 4), value 3.0): "
     "constraint index outside [0, 2)"),
    (dict(idx=np.array([-1, 1, 1])), "entry 0 (constraint -1, (0, 0), value 1.0): "
     "constraint index outside [0, 2)"),
    (dict(col=np.array([0, 402, 4])), "entry 1 (constraint 1, (3, 402), value 2.0): "
     "coordinate outside the order-402 matrix"),
    (dict(row=np.array([-1, 3, 4])), "entry 0 (constraint 0, (-1, 0), value 1.0): "
     "coordinate outside the order-402 matrix"),
    (dict(val=np.array([1.0, 2.0, np.nan])), "entry 2 (constraint 1, (4, 4), value nan): "
     "value is not finite"),
    (dict(val=np.array([np.inf, 2.0, 3.0])), "entry 0 (constraint 0, (0, 0), value inf): "
     "value is not finite"),
    (dict(row=np.array([0.0, 3.0, 4.0])), "row must hold integers, got float64"),
    (dict(idx=np.array([True, False, False])), "idx must hold integers, got bool"),
    (dict(val=np.array([1.0])), "idx, row, col and val must be 1-D arrays of one length"),
    (dict(idx=np.zeros((3, 1), dtype=int)), "idx, row, col and val must be 1-D arrays"),
    (dict(n=402.0), "n must be an integer, got 402.0"),
    (dict(m=0), "m must be positive, got 0"),
    (dict(n=True), "n must be an integer, got True"),
])
def test_map_refuses_entries_it_would_misread(changed, message):
    with pytest.raises(ValueError, match="^constraint map " + re.escape(message)):
        ConstraintMap(**_entries(**changed))


def test_builder_maps_pass_the_entry_checks_without_a_copy():
    from specbundle.bench import build_completion, build_maxcut, gen_completion, gen_er_graph
    for prob in (build_maxcut(gen_er_graph(402, 0.02, 0)),
                 build_completion(gen_completion(8, 2, 0.5, 0))):
        A = prob.A
        again = ConstraintMap(n=A.n, m=A.m, idx=A.idx, row=A.row, col=A.col, val=A.val)
        assert all(getattr(again, k) is getattr(A, k) for k in ("idx", "row", "col", "val"))
    amap = ConstraintMap(**_entries())
    assert amap.apply(np.eye(402)).tolist() == [1.0, 3.0]


# -- eigensolves ------------------------------------------------------------

def test_top_eigs_diagonal():
    vals, vecs = top_eigs(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(vals, [3.0, 2.0])
    # span of the first two coordinate axes
    P = vecs @ vecs.T
    want = np.diag([1.0, 1.0, 0.0])
    assert np.abs(P - want).max() <= 1e-12


def test_top_eigs_degenerate_eigenspace_span_only():
    vals, vecs = top_eigs(np.eye(3), 2)
    assert np.allclose(vals, [1.0, 1.0])
    assert np.abs(vecs.T @ vecs - np.eye(2)).max() <= 1e-10
    # any orthonormal pair is acceptable; only the residual is contractual
    assert np.abs(np.eye(3) @ vecs - vecs * vals).max() <= 1e-12


def test_top_eigs_matches_full_decomposition():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        r = int(rng.integers(1, n + 1))
        M = symm(rng.normal(size=(n, n)))
        vals, vecs = top_eigs(M, r)
        full = np.sort(scipy.linalg.eigvalsh(M))[::-1]
        assert np.abs(vals - full[:r]).max() <= 1e-9 * (1.0 + np.abs(full).max())
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.abs(vecs.T @ vecs - np.eye(r)).max() <= 1e-10
        resid = np.linalg.norm(M @ vecs - vecs * vals, "fro")
        assert resid <= 1e-8 * (1.0 + np.linalg.norm(M, "fro"))


def test_top_eigs_sign_convention():
    rng = np.random.default_rng(10)
    for _ in range(10):
        M = symm(rng.normal(size=(6, 6)))
        _, vecs = top_eigs(M, 3)
        for j in range(3):
            col = vecs[:, j]
            lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
            assert lead > 0


def test_top_eigs_errors():
    for eye in (np.eye(3), scipy.sparse.eye(3, format="csr")):
        with pytest.raises(DimensionError):
            top_eigs(eye, 4)
        with pytest.raises(DimensionError):
            top_eigs(eye, 0)
    for rect in (np.zeros((2, 3)), scipy.sparse.csr_matrix((2, 3))):
        with pytest.raises(DimensionError):
            top_eigs(rect, 1)


def _with_repeated_top(rng, n):
    """Symmetric test matrices of order n: generic, with a repeated top
    eigenvalue (rotated, then diagonal), and with +0.0 and -0.0 entries."""
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    lam = np.sort(rng.uniform(-1.0, 1.0, n))
    lam[-(n + 1) // 2:] = lam[-1]
    U = rng.normal(size=(n, n))
    U[rng.random((n, n)) < 0.4] = 0.0
    U[rng.random((n, n)) < 0.5] *= -1.0           # half the zeros turn -0.0
    Z = np.where(np.tri(n, dtype=bool), U.T, U)   # mirrored, signs kept
    return [symm(rng.normal(size=(n, n))), symm((Q * lam) @ Q.T),
            np.diag(np.repeat(lam[-1], n)), Z]


def test_dense_top_eigs_bitwise_equals_subset_eigh():
    # the form the dense path replaced: scipy's subset eigh, then the
    # descending order and the sign convention
    rng = np.random.default_rng(16)
    linops._syevr_work.cache_clear()
    for n in range(1, 41):
        for M in _with_repeated_top(rng, n)[:2 if n > 8 else 4]:
            for r in range(1, n + 1):
                w, v = scipy.linalg.eigh(M, subset_by_index=[n - r, n - 1])
                order = np.argsort(w)[::-1]
                vals, vecs = top_eigs(M, r)
                assert vals.tobytes() == w[order].tobytes()
                assert vecs.tobytes() == linops._fix_signs(v[:, order]).tobytes()


def test_top_eigval_bitwise_equals_top_eigs():
    rng = np.random.default_rng(17)
    for n in [*range(1, 13), 40, 150]:
        for M in _with_repeated_top(rng, n):
            want = top_eigs(M, 1)[0][0].tobytes()
            for A in (M, np.asfortranarray(M), np.repeat(M, 2, axis=1)[:, ::2]):
                assert np.float64(top_eigval(A)).tobytes() == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_eigensolves_reject_non_finite_input(bad):
    M = np.eye(4)
    M[1, 2] = M[2, 1] = bad
    for solve in (lambda: top_eigs(M, 2), lambda: top_eigval(M)):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            solve()


def test_top_eigval_errors():
    for bad in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3)):
        with pytest.raises(DimensionError):
            top_eigval(bad)


def test_top_eigs_sparse_matches_dense():
    # r < n runs eigsh; r == n, which eigsh cannot do, goes dense
    rng = np.random.default_rng(11)
    M = scipy.sparse.random(12, 12, density=0.3, random_state=rng)
    M = (M + M.T).tocsr()
    for r in (2, 12):
        vs, Vs = top_eigs(M, r)
        vd, Vd = top_eigs(M.toarray(), r)
        assert np.abs(vs - vd).max() <= 1e-12 * np.abs(vd).max()
        assert np.abs(Vs[:, 0] - Vd[:, 0]).max() <= 1e-8



def test_top_eigs_sparse_frees_its_matrix_without_a_cyclic_collection():
    # a LinearOperator class made per call sat in reference cycles and kept
    # each step's slack alive until the cyclic collector ran
    M = scipy.sparse.random(300, 300, density=0.02, random_state=1, format="csr")
    M = (M + M.T).tocsr()
    ref = weakref.ref(M)
    gc.disable()
    try:
        top_eigs(M, 2)
        del M
        assert ref() is None
    finally:
        gc.enable()

# -- orthonormalization -----------------------------------------------------

def _mgs(A, tol=1e-10):
    """Modified Gram-Schmidt span oracle."""
    Q = []
    for j in range(A.shape[1]):
        v = A[:, j].astype(float).copy()
        for q in Q:
            v -= (q @ v) * q
        nv = np.linalg.norm(v)
        if nv > tol * max(1.0, np.linalg.norm(A[:, j])):
            Q.append(v / nv)
    return np.array(Q).T if Q else np.zeros((A.shape[0], 0))


def test_orthonormalize_keeps_orthonormal_span():
    rng = np.random.default_rng(11)
    Q, _ = scipy.linalg.qr(rng.normal(size=(6, 3)), mode="economic")
    B = orthonormalize(Q)
    assert B.shape == (6, 3)
    assert np.abs(B @ B.T - Q @ Q.T).max() <= 1e-10


def test_orthonormalize_drops_duplicate_column():
    v = np.array([1.0, 2.0, 2.0])
    B = orthonormalize(np.column_stack([v, v]))
    assert B.shape == (3, 1)
    assert abs(abs(B[:, 0] @ (v / np.linalg.norm(v))) - 1.0) <= 1e-12


def test_orthonormalize_matches_gram_schmidt_span():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A = rng.normal(size=(10, 3))
        B = orthonormalize(A)
        Q = _mgs(A)
        assert B.shape[1] == Q.shape[1]
        # same projector => same span
        assert np.abs(B @ B.T - Q @ Q.T).max() <= 1e-9
        assert np.abs(B.T @ B - np.eye(B.shape[1])).max() <= 1e-10


def test_orthonormalize_zero_input_raises():
    with pytest.raises(RankError):
        orthonormalize(np.zeros((4, 2)))


def test_congruence_of_a_1d_basis_is_that_of_its_column():
    rng = np.random.default_rng(41)
    amap = rand_sparse_map(rng, 7, 5)
    v = rng.normal(size=7)
    T = amap.congruence(v)
    assert T.shape == (5, 1, 1)
    assert T.tobytes() == amap.congruence(v[:, None]).tobytes()


def test_lapack_failures_in_the_eigensolves_raise(monkeypatch):
    """A failed dsyevr, full or over an index range, or a failed workspace
    query for it, raises with its own message."""
    A = np.diag([1.0, 2.0, 3.0])
    linops._syevr_work.cache_clear()
    monkeypatch.setattr(linops, "dsyevr_lwork", lambda **kwargs: (1, 1, -2))
    with pytest.raises(ValueError, match=r"^dsyevr workspace query failed: -2$"):
        linops._eigh(A)
    monkeypatch.undo()
    linops._syevr_work.cache_clear()
    monkeypatch.setattr(linops, "dsyevr",
                        lambda A, **kwargs: (np.ones(3), np.eye(3), 3, None, 5))
    with pytest.raises(np.linalg.LinAlgError, match=r"^dsyevr failed with info=5$"):
        linops._syevr(A)
    with pytest.raises(np.linalg.LinAlgError, match=r"^dsyevr failed with info=5$"):
        linops._syevr_top(A, 2, 1)
