"""Randomized two-sided sketch: determinism, update algebra against a dense
shadow, and reconstruction accuracy on exactly low-rank streams."""

import re

import numpy as np
import pytest

from specbundle import (DimensionError, LowRankFactors, sketch_init,
                        sketch_reconstruct, sketch_scale, sketch_update)
from specbundle.sketch import gaussian_matrix

from conftest import symm


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(42, (6, 4), stream=1)
    b = gaussian_matrix(42, (6, 4), stream=1)
    assert np.array_equal(a, b)
    c = gaussian_matrix(42, (6, 4), stream=2)
    assert not np.array_equal(a, c)
    d = gaussian_matrix(43, (6, 4), stream=1)
    assert not np.array_equal(a, d)


def test_gaussian_matrix_is_roughly_standard_normal():
    z = gaussian_matrix(0, (200, 200))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_init_shapes_and_zero_state():
    st = sketch_init(50, 3, seed=7)
    assert st.k == 2 * 3 + 1 == 7
    assert st.l == 4 * 3 + 3 == 15
    assert st.Psi.shape == (50, 7)
    assert st.Phi.shape == (15, 50)
    assert not st.Yc.any() and st.Yc.shape == (50, 7)
    assert not st.Yr.any() and st.Yr.shape == (15, 50)


def test_init_bitwise_reproducible():
    a = sketch_init(30, 2, seed=11)
    b = sketch_init(30, 2, seed=11)
    assert np.array_equal(a.Psi, b.Psi)
    assert np.array_equal(a.Phi, b.Phi)


def test_init_rejects_bad_dimensions():
    for args, message in [((0, 2, 0), "n must be positive, got 0"),
                          ((5, 0, 0), "r must be positive, got 0"),
                          ((5.0, 2, 0), "n must be an integer, got 5.0"),
                          ((5, True, 0), "r must be an integer, got True"),
                          ((5, 2, 1.5), "seed must be an integer, got 1.5"),
                          ((5, 2, -1), "seed must be nonnegative, got -1")]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            sketch_init(*args)


def test_update_identity_scale_zero_correction():
    st = sketch_init(8, 2, seed=0)
    rng = np.random.default_rng(0)
    st = sketch_update(st, 0.0, rng.normal(size=(8, 2)), symm(rng.normal(size=(2, 2))))
    st2 = sketch_update(st, 1.0, rng.normal(size=(8, 2)), np.zeros((2, 2)))
    assert np.array_equal(st2.Yc, st.Yc)
    assert np.array_equal(st2.Yr, st.Yr)


def test_update_rank_one_from_zero():
    st = sketch_init(10, 2, seed=3)
    v = np.arange(1.0, 11.0)[:, None]
    st = sketch_update(st, 0.0, v, np.array([[1.0]]))
    want_c = v @ (v.T @ st.Psi)
    want_r = (st.Phi @ v) @ v.T
    assert np.abs(st.Yc - want_c).max() <= 1e-12 * np.abs(want_c).max()
    assert np.abs(st.Yr - want_r).max() <= 1e-12 * np.abs(want_r).max()


def test_update_tracks_dense_shadow():
    rng = np.random.default_rng(4)
    n, r = 40, 3
    st = sketch_init(n, r, seed=5)
    X = np.zeros((n, n))
    for _ in range(25):
        scale = float(rng.uniform(0.0, 1.2))
        p = int(rng.integers(1, 4))
        V = rng.normal(size=(n, p))
        S = symm(rng.normal(size=(p, p)))
        st = sketch_update(st, scale, V, S)
        X = scale * X + V @ S @ V.T
        size = 1.0 + np.abs(X).max()
        assert np.abs(st.Yc - X @ st.Psi).max() <= 1e-9 * size
        assert np.abs(st.Yr - st.Phi @ X).max() <= 1e-9 * size


def test_update_rejects_mismatched_shapes():
    st = sketch_init(8, 2, seed=0)
    with pytest.raises(DimensionError):
        sketch_update(st, 1.0, np.zeros((7, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        sketch_update(st, 1.0, np.zeros((8, 2)), np.zeros((3, 3)))


def test_update_linearity_in_the_correction():
    rng = np.random.default_rng(6)
    n = 12
    st0 = sketch_init(n, 2, seed=9)
    V = rng.normal(size=(n, 2))
    S1 = symm(rng.normal(size=(2, 2)))
    S2 = symm(rng.normal(size=(2, 2)))
    both = sketch_update(st0, 0.0, V, S1 + S2)
    two = sketch_update(sketch_update(st0, 0.0, V, S1), 1.0, V, S2)
    assert np.abs(both.Yc - two.Yc).max() <= 1e-10 * (1 + np.abs(both.Yc).max())
    assert np.abs(both.Yr - two.Yr).max() <= 1e-10 * (1 + np.abs(both.Yr).max())


def test_sketch_scale_matches_scaled_update():
    st = sketch_init(9, 2, seed=1)
    rng = np.random.default_rng(7)
    st = sketch_update(st, 0.0, rng.normal(size=(9, 3)),
                       symm(rng.normal(size=(3, 3))))
    scaled = sketch_scale(st, 0.25)
    assert np.array_equal(scaled.Yc, 0.25 * st.Yc)
    assert np.array_equal(scaled.Yr, 0.25 * st.Yr)


def test_reconstruct_zero_state():
    st = sketch_init(15, 3, seed=2)
    fac = sketch_reconstruct(st)
    assert not fac.dense().any()
    assert fac.weights.shape == (3,)


def test_reconstruct_rank_one():
    rng = np.random.default_rng(8)
    n = 30
    u = rng.normal(size=(n, 1))
    st = sketch_init(n, 1, seed=3)
    st = sketch_update(st, 0.0, u, np.array([[1.0]]))
    got = sketch_reconstruct(st).dense()
    want = u @ u.T
    assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_reconstruct_exact_rank_r_streams():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(20, 80))
        r = int(rng.integers(1, 5))
        st = sketch_init(n, r, seed=int(rng.integers(1000)))
        W = rng.normal(size=(n, r))
        X = np.zeros((n, n))
        # feed the rank-r target through several partial updates
        for j in range(r):
            scale = 1.0
            V = W[:, j:j + 1]
            S = np.array([[1.0]])
            st = sketch_update(st, scale, V, S)
            X = scale * X + V @ S @ V.T
        got = sketch_reconstruct(st).dense()
        assert np.abs(got - X).max() <= 1e-7 * (1.0 + np.abs(X).max())


def test_reconstruct_truncates_to_requested_rank():
    rng = np.random.default_rng(10)
    n = 25
    # a rank-1 sketch of a rank-3 update
    st = sketch_init(n, 1, seed=4)
    W = rng.normal(size=(n, 3))
    st = sketch_update(st, 0.0, W, np.diag([5.0, 2.0, 1.0]))
    fac = sketch_reconstruct(st)
    assert fac.weights.size == 1
    assert np.linalg.matrix_rank(fac.dense()) == 1


def test_low_rank_factors_dense():
    left = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    right = left.T
    fac = LowRankFactors(left=left, weights=np.array([2.0, 3.0]), right=right)
    want = left @ np.diag([2.0, 3.0]) @ right
    assert np.array_equal(fac.dense(), want)


def test_update_by_a_1d_factor_is_that_of_its_column():
    rng = np.random.default_rng(43)
    st = sketch_update(sketch_init(7, 2, 0), 1.0, rng.normal(size=(7, 2)), np.eye(2))
    v = rng.normal(size=7)
    got = sketch_update(st, 0.5, v, 2.0)
    want = sketch_update(st, 0.5, v[:, None], np.array([[2.0]]))
    assert got.Yc.tobytes() == want.Yc.tobytes() and got.Yr.tobytes() == want.Yr.tobytes()
