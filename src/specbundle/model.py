"""Problem container, penalized dual objective, and the bundle models.

The solver works on the exact penalization of the SDP dual: for a penalty
``alpha`` at least twice the nuclear norm of some primal solution,

    F(y) = <-b, y> + alpha * max(lambda_max(A* y - C), 0)

has the same minimizers as the constrained dual.  Lower models of F are
built from a tall orthonormal basis V plus a single aggregate matrix Xbar;
the model maximizes <eta * Xbar + V S V^T, A* y - C> over eta >= 0,
S psd with  alpha * eta + tr(S) <= alpha.

Storage convention: a nonzero aggregate is kept rescaled to trace exactly
``alpha``.  The set the model maximizes over only grows under this
rescaling (total trace stays capped by alpha), so the model remains a
valid lower bound on F, and the recycled-aggregate certificates used by
the dominance and membership diagnostics become feasible for every
variant, matching the constant-trace convention the aggregate analysis
assumes.

The eigensolve behind F is exact on the dense slack up to order
``_SPARSE_ABOVE_N``.  Above it C is stored as a CSR matrix, ``A* y - C``
is a CSR matrix on a pattern built once per problem and the eigensolve is
Lanczos, so F(z) can be low by the bound ``linops._top_eigs_sparse``
states, and the descent test ``F(z) <= F(y) - beta * (F(y) - model(z))``
can accept a candidate whose true F(z) is above the threshold by as much.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import (POSITIVE, REAL, ConstraintMap, DimensionError, _eigh, check_field,
                     check_finite, symmetrize, top_eigs)
from .sketch import SketchState

# above this order the objective's eigensolve runs Lanczos on a CSR slack
_SPARSE_ABOVE_N = 400

# the cost matrix's one rule, in either storage
_HALF_MAX = np.finfo(float).max / 2
_COST_RULE = ("cost matrix must be symmetric bit for bit, "
              "with every entry at most half the largest double in magnitude")


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """max <-C, X> s.t. A(X) = b, X psd, in penalized dual form.

    alpha is the trace penalty; the dual objective below is exact once
    alpha >= 2 * ||X*||_nuclear for some primal solution X*.

    C, dense or scipy.sparse, must be symmetric bit for bit with every
    entry at most half the largest double in magnitude, so that no sum of
    two entries overflows; any other C is refused with ``_COST_RULE``.
    A scipy.sparse C is tested as it is, where an entry not stored reads
    as +0.0.  The stored C holds the caller's values.  Up to order
    ``_SPARSE_ABOVE_N`` it is a dense array: a scipy.sparse C's stored
    entries keep their bits, a -0.0 included, and the others read +0.0; a
    C-contiguous float64 C is stored without a copy, as a float64 b is:
    the caller must not mutate either afterwards.

    Above that order the stored C is a canonical float64 ``csr_matrix``
    (sorted indices, no duplicates) holding a dense C's nonzero entries; a
    canonical float64 ``csr_matrix`` is stored without a copy, sharing its
    arrays, which the caller must not mutate afterwards.
    """

    C: np.ndarray        # a scipy.sparse csr_matrix above _SPARSE_ABOVE_N
    A: ConstraintMap
    b: np.ndarray
    alpha: float

    def __post_init__(self):
        n = self.A.n
        # a sparse C means scipy.sparse is loaded; the dense path never loads it
        sparse = "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(self.C)
        if sparse:
            C = _checked_csr(self.C, n)
            if n <= _SPARSE_ABOVE_N:
                # each stored entry written as it is: toarray() would add
                # it into +0.0 and so turn a stored -0.0 into +0.0
                dense = np.zeros(n * n)
                dense[_csr_positions(C)] = C.data
                C = dense.reshape(n, n)
        else:
            C = np.ascontiguousarray(self.C, dtype=float)
            if C.shape != (n, n):
                raise DimensionError(f"cost matrix shape {C.shape} does not match map order {n}")
            # a NaN fails the range test, and -0.0 against +0.0 the bitwise one
            if not (-_HALF_MAX <= C.min() and C.max() <= _HALF_MAX
                    and np.array_equal(C.view(np.int64), C.T.view(np.int64))):
                raise ValueError(_COST_RULE)
            if n > _SPARSE_ABOVE_N:
                import scipy.sparse

                C = scipy.sparse.csr_matrix(C)
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.A.m,):
            raise DimensionError(
                f"right-hand side shape {b.shape} does not match {self.A.m} constraints")
        check_finite("b", b)
        check_field("alpha", self.alpha, REAL, *POSITIVE)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n(self):
        return self.A.n

    @property
    def m(self):
        return self.A.m

    @cached_property
    def _slack_pattern(self):
        """The structure of ``A* y - C`` in CSR form, read from the CSR C
        stored above order ``_SPARSE_ABOVE_N``.

        Returns ``(src, cvals, indices, indptr)``: stored entry ``e``
        (row-major, both triangles, the union of C's nonzeros and the
        constraint positions) reads its constraint sum from slot ``src[e]``
        of ``A._position_sums(y)``, or from a zero slot appended after
        them, and C from ``cvals[e]``, which is C's stored value there
        (a -0.0 included) or +0.0 where C stores none.
        """
        n = self.n
        keys, mirror, _ = self.A._positions
        stored, data = _csr_positions(self.C), self.C.data
        lin = np.union1d(stored[data != 0], np.concatenate([keys, mirror]))
        at = np.searchsorted(stored, lin)
        cvals = np.where(np.append(stored, -1)[at] == lin, np.append(data, 0.0)[at], 0.0)
        rows, cols = np.divmod(lin, n)
        upper = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        pos = np.searchsorted(keys, upper)
        src = np.where(np.append(keys, -1)[pos] == upper, pos, keys.size)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return src, cvals, cols, indptr

    def dual_slack(self, y):
        """``A* y - C``: the dense ``-A.slack(C, y)`` up to order
        ``_SPARSE_ABOVE_N``, the CSR matrix of ``_neg_slack_csr`` above it."""
        if self.n > _SPARSE_ABOVE_N:
            return self._neg_slack_csr(y)
        D = self.A.slack(self.C, y)
        return np.negative(D, out=D)     # in place: the slack is a fresh array

    def _neg_slack_csr(self, y):
        """``A* y - C`` as a CSR matrix, equal bit for bit on its stored
        entries to the dense ``-A.slack(C, y)`` of C as a dense array (both
        read the sums of ``ConstraintMap._position_sums``)."""
        import scipy.sparse

        src, cvals, indices, indptr = self._slack_pattern
        U = np.append(self.A._position_sums(y), 0.0)
        return scipy.sparse.csr_matrix((-(cvals - U[src]), indices, indptr),
                                       shape=(self.n, self.n))


def _csr_positions(C):
    """The row-major position ``i * n + j`` of each stored entry of the
    CSR matrix ``C``, in storage order."""
    return np.repeat(np.arange(C.shape[0]) * C.shape[0], np.diff(C.indptr)) + C.indices


def _checked_csr(C, n):
    """The scipy.sparse ``C`` as a canonical float64 ``csr_matrix``, the
    given object when it is one.  Raises unless C is n x n and meets
    ``_COST_RULE``: the entries whose bits are not those of +0.0, the
    value of an entry not stored, are the same under transposition."""
    import scipy.sparse

    if C.shape != (n, n):
        raise DimensionError(f"cost matrix shape {C.shape} does not match map order {n}")
    if not (isinstance(C, scipy.sparse.csr_matrix) and C.dtype == np.float64
            and C.has_canonical_format):
        C = scipy.sparse.csr_matrix(C, dtype=float, copy=True)
        C.sum_duplicates()
    bits = C.data.view(np.int64)
    keep = bits != 0
    bits, (rows, cols) = bits[keep], np.divmod(_csr_positions(C)[keep], n)
    mirror = np.argsort(cols * n + rows)      # row-major order of the transpose
    # a NaN fails the range test
    if not (np.abs(C.data).max(initial=0.0) <= _HALF_MAX
            and np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows)
            and np.array_equal(bits[mirror], bits)):
        raise ValueError(_COST_RULE)
    return C


def dual_objective(prob, y, slack=None):
    """Penalized dual objective F(y), the value of ``objective_with_spectrum``:
    exact for a dense slack, a Lanczos value for a CSR one.  ``slack`` is
    ``prob.dual_slack(y)`` when the caller has already built it."""
    return objective_with_spectrum(prob, y, 1, slack)[0]


def _penalized(prob, y, lam):
    """F(y) from the slack's top eigenvalue ``lam``."""
    return -float(prob.b @ y) + prob.alpha * max(float(lam), 0.0)


def objective_with_spectrum(prob, y, k, slack=None):
    """F(y) plus the top-k eigenpairs of A* y - C (shared eigensolve).

    The solver needs the same spectrum for the objective, the next bundle
    basis, and the eigengap diagnostics, so they are computed once.  Above
    order ``_SPARSE_ABOVE_N`` the eigensolve is Lanczos on a CSR slack,
    inexact as ``linops._top_eigs_sparse`` states.  ``slack`` is
    ``prob.dual_slack(y)`` when the caller has already built it.
    """
    vals, vecs = top_eigs(prob.dual_slack(y) if slack is None else slack, k)
    return _penalized(prob, y, vals[0]), vals, vecs


@dataclass(frozen=True, eq=False)
class Aggregate:
    """Cached functionals of the aggregate matrix Xbar, plus its record.

    AX = A(Xbar), CX = <C, Xbar>, tr = tr(Xbar); these alone drive the
    solver.  X is the primal record, output only: the dense matrix in
    explicit storage, its two-sided ``SketchState`` in compressed storage
    (absent in an aggregate built just to evaluate the model).
    """

    AX: np.ndarray
    CX: float
    tr: float
    X: np.ndarray | SketchState | None = None

    @property
    def is_zero(self):
        return self.tr == 0.0


def zero_aggregate(prob, X=None):
    """The zero aggregate; X is its record, the dense zero matrix unless a
    zeroed sketch is passed."""
    X = np.zeros((prob.n, prob.n)) if X is None else X
    return Aggregate(AX=np.zeros(prob.m), CX=0.0, tr=0.0, X=X)


def model_value(prob, agg, V, y, VtD=None):
    """Aggregate bundle model evaluated at y, a lower bound on F(y).

    The inner maximum is linear over a compact set whose extreme points
    are 0, the stored aggregate, and alpha * v v^T for unit v in the span
    of V, giving the closed form
        <-b, y> + alpha * max(lambda_max(V^T (A*y - C) V), cbar / alpha, 0)
    with cbar = <Xbar, A* y - C> evaluated from the caches.  ``VtD`` is
    ``V.T @ prob.dual_slack(y)`` when the caller has already formed it.
    """
    if VtD is None:
        VtD = V.T @ prob.dual_slack(y)
    lam = float(_eigh(symmetrize(VtD @ V))[0][-1])
    cbar = float(agg.AX @ y) - agg.CX
    return -float(prob.b @ y) + prob.alpha * max(lam, cbar / prob.alpha, 0.0)


def simple_model_value(f_cand, subgrad, agg_grad, model_cand, z, y):
    """Two-minorant cut model: pointwise max of the linearization of F at
    the candidate z (slope ``subgrad``) and the aggregate cut through the
    model value at z (slope ``agg_grad``)."""
    d = np.asarray(y, dtype=float) - np.asarray(z, dtype=float)
    return max(f_cand + float(subgrad @ d), model_cand + float(agg_grad @ d))
