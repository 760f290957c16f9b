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

The eigensolve behind F: up to order ``_SPARSE_ABOVE_N`` the slack is a
dense matrix, negated in the buffer the constraint sums were scattered
into, and ``top_eigs`` runs LAPACK's ``dsyevr`` over the top indices;
``dual_objective``, which needs lambda_max alone (the invariant probes),
asks ``dsyevr`` for that eigenvalue without its eigenvector, with the
same bits.  Above it,
``A* y - C`` is assembled as a CSR matrix on a pattern built once per
problem, and ``top_eigs`` runs Lanczos (``eigsh``).  That eigensolve is
inexact: its top Ritz value is at most lambda_max, so F(z) can be low by
up to ``alpha * |M v1 - theta1 v1|``, and the descent test
``F(z) <= F(y) - beta * (F(y) - model(z))`` can accept a candidate whose
true F(z) is above the threshold by as much.  Every call checks that
residual against ``linops._EIGSH_RES_TOL * max(1, |M|_F)`` (1e-10) and
redoes the solve densely when it fails, so the excess is at most
``alpha * 1e-10 * max(1, |M|_F)``.  ARPACK runs at ``tol`` equal to that
same constant: it accepts a Ritz pair once its residual estimate is at
most ``tol * max(eps**(2/3), |theta|)``, and ``|theta1| <= |M|_F``, so its
own stopping test implies the check up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linops import ConstraintMap, DimensionError, _eigh, symmetrize, top_eigs, top_eigval
from .sketch import SketchState

# above this order the objective's eigensolve runs Lanczos on a CSR slack
_SPARSE_ABOVE_N = 400


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """max <-C, X> s.t. A(X) = b, X psd, in penalized dual form.

    alpha is the trace penalty; the dual objective below is exact once
    alpha >= 2 * ||X*||_nuclear for some primal solution X*.
    """

    C: np.ndarray
    A: ConstraintMap
    b: np.ndarray
    alpha: float

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if C.shape != (self.A.n, self.A.n):
            raise DimensionError(
                f"cost matrix shape {C.shape} does not match map order {self.A.n}")
        if b.shape != (self.A.m,):
            raise DimensionError(
                f"right-hand side shape {b.shape} does not match {self.A.m} constraints")
        if not np.allclose(C, C.T, atol=1e-12 * max(1.0, np.abs(C).max())):
            raise ValueError("cost matrix must be symmetric")
        if not (self.alpha > 0):
            raise ValueError(f"trace penalty must be positive, got {self.alpha}")
        object.__setattr__(self, "C", symmetrize(C))
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
        """The structure of ``A* y - C`` in CSR form.

        Returns ``(src, cvals, indices, indptr)``: stored entry ``e``
        (row-major, both triangles, the union of C's nonzeros and the
        constraint positions) reads its constraint sum from slot ``src[e]``
        of ``A._position_sums(y)``, or from a zero slot appended after
        them, and C from ``cvals[e]``.
        """
        n = self.n
        keys, mirror, _ = self.A._positions
        lin = np.union1d(np.flatnonzero(self.C), np.concatenate([keys, mirror]))
        rows, cols = np.divmod(lin, n)
        upper = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        pos = np.searchsorted(keys, upper)
        src = np.where(np.append(keys, -1)[pos] == upper, pos, keys.size)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return src, self.C.ravel()[lin], cols, indptr

    def dual_slack(self, y):
        """``A* y - C``: the dense ``-A.slack(C, y)`` up to order
        ``_SPARSE_ABOVE_N``, the CSR matrix of ``_neg_slack_csr`` above it."""
        if self.n > _SPARSE_ABOVE_N:
            return self._neg_slack_csr(y)
        D = self.A.slack(self.C, y)
        return np.negative(D, out=D)     # in place: the slack is a fresh array

    def _neg_slack_csr(self, y):
        """``A* y - C`` as a CSR matrix, equal bit for bit to the dense
        ``-A.slack(C, y)`` on its stored entries (both read the sums of
        ``ConstraintMap._position_sums``)."""
        import scipy.sparse

        src, cvals, indices, indptr = self._slack_pattern
        U = np.append(self.A._position_sums(y), 0.0)
        return scipy.sparse.csr_matrix((-(cvals - U[src]), indices, indptr),
                                       shape=(self.n, self.n))


def dual_objective(prob, y, slack=None):
    """Penalized dual objective F(y); ``slack`` is ``prob.dual_slack(y)``
    when the caller has already built it.

    Up to order ``_SPARSE_ABOVE_N`` lambda_max comes from an
    eigenvalue-only dense solve (``top_eigval``), whose bits are those of
    ``objective_with_spectrum(prob, y, 1)``'s; above it, F is that call's."""
    if prob.n > _SPARSE_ABOVE_N:
        return objective_with_spectrum(prob, y, 1, slack)[0]
    D = prob.dual_slack(y) if slack is None else slack
    return _penalized(prob, y, top_eigval(D))


def _penalized(prob, y, lam):
    """F(y) from the slack's top eigenvalue ``lam``."""
    return -float(prob.b @ y) + prob.alpha * max(float(lam), 0.0)


def objective_with_spectrum(prob, y, k, slack=None):
    """F(y) plus the top-k eigenpairs of A* y - C (shared eigensolve).

    The solver needs the same spectrum for the objective, the next bundle
    basis, and the eigengap diagnostics, so they are computed once.  Above
    order ``_SPARSE_ABOVE_N`` the eigensolve is Lanczos on a CSR slack,
    whose error enters F as the module docstring states.  ``slack`` is
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


def model_value(prob, agg, V, y, slack=None):
    """Aggregate bundle model evaluated at y, a lower bound on F(y).

    The inner maximum is linear over a compact set whose extreme points
    are 0, the stored aggregate, and alpha * v v^T for unit v in the span
    of V, giving the closed form
        <-b, y> + alpha * max(lambda_max(V^T (A*y - C) V), cbar / alpha, 0)
    with cbar = <Xbar, A* y - C> evaluated from the caches.  Above order
    ``_SPARSE_ABOVE_N`` the slack is the CSR matrix, so no n x n array is
    built.  ``slack`` is ``prob.dual_slack(y)`` when the caller has already
    built it.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    D = prob.dual_slack(y) if slack is None else slack
    lam = float(_eigh(symmetrize(V.T @ D @ V))[0][-1])
    cbar = float(agg.AX @ y) - agg.CX
    return -float(prob.b @ y) + prob.alpha * max(lam, cbar / prob.alpha, 0.0)


def simple_model_value(f_cand, subgrad, agg_grad, model_cand, z, y):
    """Two-minorant cut model: pointwise max of the linearization of F at
    the candidate z (slope ``subgrad``) and the aggregate cut through the
    model value at z (slope ``agg_grad``)."""
    d = np.asarray(y, dtype=float) - np.asarray(z, dtype=float)
    return max(f_cand + float(subgrad @ d), model_cand + float(agg_grad @ d))
