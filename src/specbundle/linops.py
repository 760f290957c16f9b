"""Symmetric-matrix utilities and the sparse constraint map: the
primitives that objective evaluation, subproblem solves and bundle updates
reduce to.

Constraint matrices are sparse symmetric and stored as coordinate triples
over the upper triangle only; dense matrices are plain float64 ndarrays
kept exactly symmetric by construction.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import reprlib
import sys
import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dsyevr, dsyevr_lwork


class DimensionError(ValueError):
    """Operands with incompatible shapes."""


class RankError(ValueError):
    """Numerically rank-zero input where a nonzero subspace is required."""


class EigsFallbackWarning(RuntimeWarning):
    """A Lanczos eigensolve was redone densely (see ``_top_eigs_sparse``)."""


# the kinds of scalar ``check_field`` tells apart: (types, description)
INTEGER = (numbers.Integral, "an integer")
REAL = (numbers.Real, "a finite real number")
NUMBER = (numbers.Real, "a number")
STRING = (str, "a string")
OBJECT = (dict, "a JSON object")
BOOL = ((bool, np.bool_), "a bool")
# the two tests ``check_field`` is most often given: (test, want)
POSITIVE = (lambda v: v > 0, "positive")
NONNEGATIVE = (lambda v: v >= 0, "nonnegative")


def check_field(name, value, kind, ok=None, want=""):
    """``value`` if it is of ``kind`` (a bool only of BOOL, a REAL finite)
    and passes ``ok``; else a ValueError reading "<name> must be <kind's
    description, or want>, got <value>"."""
    types, what = kind
    if (not isinstance(value, types) or isinstance(value, bool) and kind is not BOOL
            or kind is REAL and not -math.inf < value < math.inf):
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    if ok is not None and not ok(value):
        raise ValueError(f"{name} must be {want}, got {reprlib.repr(value)}")
    return value


def check_finite(name, a, kind=REAL, ok=None, want=""):
    """The array ``a`` if every entry is of ``kind`` (REAL or INTEGER; an
    integer array is both, a bool array neither) and then passes the
    elementwise test ``ok``; else a ValueError reading "<name>[k] must be
    <kind's description, or want>, got <a[k]>" at the first entry k that
    does not, with k written "i, j" in a 2-d array.  ``ok`` runs only on
    an array of ``kind``, so it can range-check floats before a cast."""
    whole = a.dtype.kind in "biu"
    good = np.full(a.shape, a.dtype.kind != "b") if whole else np.isfinite(a)
    if kind is INTEGER and not whole:
        good &= a == np.round(a)
    what = kind[1]
    if ok is not None and good.all():
        good, what = ok(a), want
    if not good.all():
        k = np.unravel_index(np.argmin(good), a.shape)
        raise ValueError(f"{name}[{', '.join(map(str, k))}] must be {what}, got {a[k]}")
    return a


# the residual gate of ``_top_eigs_sparse``
_EIGSH_RES_TOL = 1e-10


def symmetrize(M):
    """Exact symmetric part 0.5*(M + M.T), bitwise symmetric since
    floating-point addition commutes."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return 0.5 * (M + M.T)


def _fix_signs(V):
    """Flip column signs so the first clearly-nonzero coordinate is positive."""
    V = np.array(V, dtype=float, copy=True)
    for j in range(V.shape[1]):
        col = V[:, j]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        big = np.abs(col) > 1e-12 * peak
        lead = col[int(np.argmax(big))]
        if lead < 0:
            V[:, j] = -col
    return V


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """m sparse symmetric n x n matrices stored as upper-triangle triples.

    Flat coordinate arrays: entry ``k`` contributes ``val[k]`` at position
    ``(row[k], col[k])`` with ``row[k] <= col[k]`` of constraint matrix
    ``idx[k]`` (and mirrored below the diagonal).
    """

    n: int
    m: int
    idx: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        """Refuse what the methods would misread: sizes n and m that are
        not positive integers, arrays of unequal length, non-integer
        indices, (naming the first) an entry outside the m constraints or
        order-n matrix, below the diagonal or non-finite, and then (naming
        the first in storage order) an entry whose coordinate an earlier
        entry of its constraint holds.  The repeat test sorts the entries
        unless idx is strictly increasing, so a map with one entry per
        constraint, as every builder's is, is checked in O(nnz)."""
        check_field("constraint map n", self.n, INTEGER, *POSITIVE)
        check_field("constraint map m", self.m, INTEGER, *POSITIVE)
        for name in ("idx", "row", "col", "val"):
            a = np.asarray(getattr(self, name), dtype=float if name == "val" else None)
            if a.ndim != 1 or a.shape != np.shape(self.idx):
                raise DimensionError("constraint map idx, row, col and val must be "
                                     "1-D arrays of one length")
            if name != "val" and a.dtype.kind not in "iu":
                raise ValueError(f"constraint map {name} must hold integers, got {a.dtype}")
            object.__setattr__(self, name, a)
        idx, row, col, val, m, n = self.idx, self.row, self.col, self.val, self.m, self.n
        bad = (idx < 0) | (idx >= m) | (row < 0) | (col >= n) | (row > col) | ~np.isfinite(val)
        if bad.any():
            k = int(np.argmax(bad))
            i, r, c, v = idx[k], row[k], col[k], val[k]
            why = (f"constraint index outside [0, {m})" if not 0 <= i < m
                   else f"coordinate outside the order-{n} matrix" if r < 0 or c >= n
                   else "below the diagonal (row > col)" if r > c else "value is not finite")
            raise ValueError(f"constraint map entry {k} (constraint {i}, ({r}, {c}), "
                             f"value {v}): {why}")
        if not (idx[1:] > idx[:-1]).all():
            order = np.lexsort((col, row, idx))     # stable: storage order among equals
            a, b = order[:-1], order[1:]
            again = b[(idx[a] == idx[b]) & (row[a] == row[b]) & (col[a] == col[b])]
            if again.size:
                k = again.min()
                raise ValueError(f"constraint {idx[k]}: duplicate coordinate "
                                 f"({row[k]},{col[k]})")

    @classmethod
    def from_triples(cls, n, triples):
        """Build from a sequence of per-constraint ``[(i, j, v), ...]`` lists.

        Each coordinate is swapped into the upper triangle and the
        coordinates go to the constructor as ``np.asarray`` converts them,
        so they meet its checks, the repeat refusal included, uncast.
        """
        triples = list(triples)
        kk, rr, cc, vv = [], [], [], []
        for k, entries in enumerate(triples):
            for i, j, v in entries:
                # a pair that does not compare (a string) goes on as given
                with contextlib.suppress(TypeError):
                    if i > j:
                        i, j = j, i
                kk.append(k)
                rr.append(i)
                cc.append(j)
                vv.append(v)
        empty = np.zeros(0, dtype=np.intp)   # np.asarray([]) is float64
        return cls(n=n, m=len(triples), idx=np.asarray(kk, dtype=np.intp),
                   row=np.asarray(rr or empty), col=np.asarray(cc or empty), val=vv)

    # -- forward map ---------------------------------------------------

    def apply(self, X):
        """Return the m-vector of inner products <A_k, X> for dense symmetric X."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.n, self.n):
            raise DimensionError(f"expected X of shape {(self.n, self.n)}, got {X.shape}")
        return np.bincount(self.idx, weights=self._coeff * X[self.row, self.col],
                           minlength=self.m)

    def apply_outer(self, v):
        """``apply(np.outer(v, v))`` bit for bit, without the n x n matrix:
        the stored entries of v v^T are v[row] * v[col]."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise DimensionError(f"expected v of shape {(self.n,)}, got {v.shape}")
        return np.bincount(self.idx, weights=self._coeff * (v[self.row] * v[self.col]),
                           minlength=self.m)

    @cached_property
    def _coeff(self):
        """Each stored entry's weight in <A_k, X>: val, doubled off the
        diagonal, since an off-diagonal entry counts twice by symmetry."""
        return np.where(self.row == self.col, 1.0, 2.0) * self.val

    # -- adjoint -------------------------------------------------------

    @cached_property
    def _positions(self):
        """``(keys, mirror, inv)``: the distinct flat positions
        ``row * n + col`` of the stored entries, ascending, the flat
        positions of their mirror images, and each entry's index in keys."""
        keys, inv = np.unique(self.row * self.n + self.col, return_inverse=True)
        r, c = np.divmod(keys, self.n)
        return keys, c * self.n + r, inv

    def _position_sums(self, y):
        """At each position of ``_positions``, the sum of its products
        ``y_k * val`` in storage order from +0.0, so no sum is -0.0."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.m,):
            raise DimensionError(f"expected y of shape {(self.m,)}, got {y.shape}")
        keys, _, inv = self._positions
        return np.bincount(inv, weights=y[self.idx] * self.val, minlength=keys.size)

    def adjoint(self, y):
        """Dense symmetric sum_k y_k A_k."""
        sums = self._position_sums(y)
        keys, mirror, _ = self._positions
        out = np.zeros(self.n * self.n)
        out[keys] = sums
        out[mirror] = sums
        return out.reshape(self.n, self.n)

    def slack(self, C, y):
        """C - sum_k y_k A_k, the dual slack matrix."""
        C = np.asarray(C, dtype=float)
        if C.shape != (self.n, self.n):
            raise DimensionError(f"expected C of shape {(self.n, self.n)}, got {C.shape}")
        out = self.adjoint(y)
        return np.subtract(C, out, out=out)

    # -- compression ---------------------------------------------------

    def congruence(self, V):
        """Stack of compressed constraints V^T A_k V, shape (m, p, p), of an
        (n, p) basis V, at a cost that scales with nnz * p^2, never with n^2."""
        V = np.asarray(V, dtype=float)
        if V.ndim != 2 or V.shape[0] != self.n:
            raise DimensionError(f"expected a basis of shape ({self.n}, p), got shape {V.shape}")
        p = V.shape[1]
        Vr = V[self.row]
        Vc = V[self.col]
        outer = Vr[:, :, None] * Vc[:, None, :]
        sym = outer + outer.transpose(0, 2, 1)
        diag = (self.row == self.col)[:, None, None]
        contrib = np.where(diag, 0.5 * sym, sym) * self.val[:, None, None]
        # one scatter over the flat slots idx * p^2 + (k, l): each slot sums
        # its terms in storage order from +0.0, as np.add.at(T, idx, contrib)
        # does, so the bits are the same
        slots = (self.idx[:, None] * (p * p) + np.arange(p * p)).ravel()
        T = np.bincount(slots, weights=contrib.ravel(), minlength=self.m * p * p)
        return T.reshape(self.m, p, p)


@cache
def _syevr_work(n):
    """(lwork, liwork) of dsyevr for order ``n``, queried as
    scipy.linalg.eigh does; lwork sets LAPACK's blocking, so other sizes
    can change the bits."""
    lwork, liwork, info = dsyevr_lwork(n=n, lower=1)
    if info != 0:
        raise ValueError(f"dsyevr workspace query failed: {info}")
    return int(lwork), int(liwork)


def _eigh(A):
    """``scipy.linalg.eigh(A)`` for a symmetric float64 matrix, bit for bit:
    the same LAPACK driver (dsyevr, lower triangle, all eigenpairs) and
    workspace sizes, without the wrapper's per-call argument handling."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    return _syevr(A)


def _syevr(A):
    """``_eigh`` without its finiteness check, for callers that check a
    whole stack of matrices at once."""
    lwork, liwork = _syevr_work(A.shape[0])
    w, v, _, _, info = dsyevr(A, compute_v=1, lower=1, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return w, v


def top_eigs(M, r):
    """Top ``r`` eigenpairs ``(vals, vecs)`` of a symmetric matrix: values
    descending, orthonormal eigenvectors, each with its first clearly-nonzero
    coordinate positive.  For a dense matrix they are exact and
    ``scipy.linalg.eigh(M, subset_by_index=[n - r, n - 1])`` bit for bit
    before the reordering and sign fix (dsyevr over an index range, lower
    triangle, its workspace sizes); a ``scipy.sparse`` matrix goes to
    ``_top_eigs_sparse`` (Lanczos, inexact; see there)."""
    # a sparse matrix exists only once scipy.sparse is loaded, so the
    # dense path never imports it
    sparse = sys.modules.get("scipy.sparse")
    if sparse is None or not sparse.issparse(M):
        M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if not (1 <= r <= n):
        raise DimensionError(f"requested {r} eigenpairs of an order-{n} matrix")
    if not isinstance(M, np.ndarray):
        return _top_eigs_sparse(M, r)
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork, liwork = _syevr_work(n)
    w, v, k, _, info = dsyevr(M, compute_v=1, lower=1, range="I", il=n - r + 1,
                              iu=n, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    order = np.argsort(w[:k])[::-1]
    return w[order], _fix_signs(v[:, order])


@cache
def _product_operator():
    """The ``LinearOperator`` subclass that ``_top_eigs_sparse`` hands ARPACK,
    defined once: a class made per call sits in reference cycles and would
    keep its matrix alive until a cyclic garbage collection."""
    from scipy.sparse.linalg import LinearOperator

    class Product(LinearOperator):
        # the base class checks and reshapes on every matvec, a sizeable
        # share of one sparse product; here matvec is the bare product
        def __init__(self, M):
            super().__init__(M.dtype, M.shape)
            self.M = M

        def _matvec(self, x):
            return self.M @ x

        matvec = _matvec

    return Product


def _top_eigs_sparse(M, r):
    """``top_eigs`` of a sparse symmetric matrix by ARPACK's ``eigsh``
    (``which="LA"``), always started from ``gaussian_matrix(0, (n,))`` and
    with ``rng=0`` for the restart vectors ARPACK asks for when its Krylov
    space is invariant, since ARPACK's own random draws give different
    bits on repeated calls.

    Inexactness: the top Ritz value theta1 is at most lambda_max, so an
    objective ``alpha * max(theta1, 0)`` can be low by up to
    ``alpha * |M v1 - theta1 v1|`` (the residual bounds the distance to
    some eigenvalue; Lanczos from a generic start finds the extreme one).
    That residual is computed on return; when it exceeds
    ``_EIGSH_RES_TOL * max(1, |M|_F)``, or ARPACK fails or does not
    converge, the solve is redone densely with an ``EigsFallbackWarning``.
    ``r == n``, which ``eigsh`` cannot do, goes dense without one.

    ARPACK runs at ``tol=_EIGSH_RES_TOL``: it accepts a Ritz pair once its
    residual estimate is at most ``tol * max(eps**(2/3), |theta|)``, and
    ``|theta1| <= |M|_2 <= |M|_F``, so its own stopping test implies the
    gate up to roundoff.  Its budget of ``4 n`` products with ``M``, passed
    as ``maxiter=4 n // (ncv - r)`` restarts of at most ``ncv - r``
    products, bounds a call that cannot converge by a multiple of the dense
    redo's O(n^3) flops, and lies well above what a converging call makes.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh, norm

    from .sketch import gaussian_matrix

    n = M.shape[0]
    if r == n:
        return top_eigs(M.toarray(), r)

    ncv = min(n, max(2 * r + 1, 20))
    try:
        vals, vecs = eigsh(_product_operator()(M), k=r, which="LA", tol=_EIGSH_RES_TOL,
                           v0=gaussian_matrix(0, (n,)), ncv=ncv,
                           maxiter=max(1, 4 * n // (ncv - r)), rng=0)
    except ArpackNoConvergence as exc:
        why = f"ARPACK did not converge ({exc})"
    except ArpackError as exc:
        why = f"ARPACK failed ({exc})"
    else:
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        res = float(np.linalg.norm(M @ vecs[:, 0] - vals[0] * vecs[:, 0]))
        tol = _EIGSH_RES_TOL * max(1.0, float(norm(M)))
        if res <= tol:
            return vals, _fix_signs(vecs)
        why = f"top Ritz residual {res:.3e} above {tol:.3e}"
    warnings.warn(f"top_eigs: {why}; redone densely", EigsFallbackWarning, stacklevel=2)
    return top_eigs(M.toarray(), r)


@contextlib.contextmanager
def recorded_fallbacks(notes, label):
    """Append each ``EigsFallbackWarning`` raised in the block to ``notes``
    as ``f"{label}: {message}"``; any other warning is shown as usual."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", EigsFallbackWarning)
        yield
    for w in caught:
        if issubclass(w.category, EigsFallbackWarning):
            notes.append(f"{label}: {w.message}")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def orthonormalize(cols):
    """Orthonormal basis for the column span, dropping rank-deficient columns.

    Raises RankError on an all-zero (or empty) input.  The returned basis
    spans the input columns up to singular values below
    ``max(shape) * machine epsilon * sigma_max``.
    """
    A = np.asarray(cols, dtype=float)
    if A.size == 0 or np.abs(A).max() == 0.0:
        raise RankError("cannot orthonormalize an all-zero set of columns")
    U, s, _ = scipy.linalg.svd(A, full_matrices=False)
    keep = s > max(A.shape) * np.finfo(float).eps * s[0]
    return _fix_signs(U[:, keep])
