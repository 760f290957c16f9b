"""Benchmark problem builders: max-cut relaxations and matrix completion.

Both families are assembled in the primal form  max <-C, X>  s.t.
A(X) = b, X psd, which the solver attacks through its penalized dual.

* Max-cut: C = -L for the graph Laplacian L, constraints pin the diagonal
  of X to one.  The SDP value is max <L, X> over the elliptope.
* Completion: the PSD observed matrix M is recovered through the standard
  trace-norm embedding; the 2d x 2d variable is [[W1, Y], [Y^T, W2]], the
  cost C = I measures tr(W1) + tr(W2), and each observed cell (i, j) pins
  Y_ij = M_ij via the symmetric pair matrix with 1/2 at (i, d+j).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .. import model
from ..linops import (INTEGER, NONNEGATIVE, POSITIVE, REAL, ConstraintMap, DimensionError,
                      check_field, check_finite)
from ..model import SdpProblem


class ParseError(ValueError):
    """Malformed instance file; message carries the offending line number."""


def _has_duplicates(keys):
    """Whether the integer array ``keys`` repeats a value."""
    # argsort, not sort: every solve already runs numpy's int64 argsort (in
    # np.unique), while a first np.sort maps about 128 KB more of its code
    keys = keys[np.argsort(keys)]
    return bool(np.any(keys[1:] == keys[:-1]))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphInstance:
    """Undirected weighted graph: vertex count and (i, j, w) edges with
    0-based i < j, no self-loops, no duplicate edges."""

    n: int
    edges: np.ndarray   # (E, 3) float array, columns i, j, w

    def __post_init__(self):
        n = check_field("n", self.n, INTEGER, *NONNEGATIVE)
        e = np.atleast_2d(np.asarray(self.edges, dtype=float))
        if e.size == 0:
            e = np.zeros((0, 3))
        if e.shape[1] != 3:
            raise ValueError(f"edges must have three columns, got shape {e.shape}")
        check_finite("edges", e)
        check_finite("edges", e[:, :2], INTEGER, lambda a: (0 <= a) & (a < n), f"in [0, {n})")
        i, j = e[:, 0].astype(int), e[:, 1].astype(int)
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if _has_duplicates(lo * n + hi):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", np.column_stack([lo, hi, e[:, 2]]))

    def _degrees(self):
        """Weighted vertex degrees.  Each vertex sums its edges' weights in
        edge order (the interleaved ``i0, j0, i1, j1, ...`` scatter)."""
        deg = np.zeros(self.n)
        np.add.at(deg, self.edges[:, :2].astype(np.intp).ravel(), np.repeat(self.edges[:, 2], 2))
        return deg

    def laplacian(self):
        """Dense graph Laplacian, ``_degrees()`` on the diagonal.  Edges are
        distinct, so every off-diagonal entry is written once."""
        i, j = self.edges[:, 0].astype(np.intp), self.edges[:, 1].astype(np.intp)
        w = self.edges[:, 2]
        L = np.zeros((self.n, self.n))
        np.fill_diagonal(L, self._degrees())
        L[i, j] -= w
        L[j, i] -= w
        return L


def triangle_graph():
    """Unit-weight 3-cycle, the smallest interesting max-cut instance."""
    return GraphInstance(n=3, edges=np.array([[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]))


# the generators' rule for a probability, (test, want) as ``check_field`` takes them
_PROBABILITY = (lambda v: 0 <= v <= 1, "in [0, 1]")
# pairs per draw in gen_er_graph; PCG64 spends one 64-bit output per
# double, so the chunked draws equal one draw over all pairs
_ER_CHUNK = 1 << 16


def gen_er_graph(n, p, seed):
    """Erdos-Renyi G(n, p) with unit edge weights.

    Pair k of the n(n-1)/2 pairs i < j, in row-major order, is an edge when
    the k-th uniform of ``default_rng(seed)`` is below p.  The uniforms are
    drawn in chunks and only the hits are kept, so memory is O(edges + n).
    """
    check_field("n", n, INTEGER, *NONNEGATIVE)
    check_field("p", p, REAL, *_PROBABILITY)
    check_field("seed", seed, INTEGER, *NONNEGATIVE)
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2 if n > 1 else 0
    hits = [np.flatnonzero(rng.random(min(_ER_CHUNK, pairs - k)) < p) + k
            for k in range(0, pairs, _ER_CHUNK)]
    k = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    if k.size == 0:
        why = "with n < 2 there is no vertex pair" if n < 2 else "pick a denser graph"
        raise ValueError(f"G({n}, {p}) draw came out empty; {why}")
    r = np.arange(n - 1)
    starts = r * n - r * (r + 1) // 2      # linear index of pair (r, r + 1)
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    return GraphInstance(n=n, edges=np.column_stack([i, j, np.ones(k.size)]))


def read_gset(path):
    """Read the plain 'n m' / 'i j [w]' edge-list format (1-based vertices)."""
    edges = []
    with open(path) as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected header 'n m', got {line!r}")
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-integer header {line!r}") from None
                continue
            if len(parts) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'i j [w]', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed edge {line!r}") from None
            if i < 1 or j < 1 or (header and (i > header[0] or j > header[0])):
                raise ParseError(f"{path}:{lineno}: vertex index out of range in {line!r}")
            edges.append((i - 1, j - 1, w))
    if header is None:
        raise ParseError(f"{path}: empty file")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"{path}: header promises {m} edges, found {len(edges)}")
    return GraphInstance(n=n, edges=np.asarray(edges, dtype=float))


def build_maxcut(g, alpha=None):
    """Penalized SDP for the max-cut relaxation of graph ``g``.

    Every feasible X has trace exactly n, so the default penalty 2n is
    twice the nuclear norm of any solution.  Above order
    ``model._SPARSE_ABOVE_N`` the cost C = -L is built as a CSR matrix
    (``_negated_laplacian_csr``) and no n x n array is formed.
    """
    if g.n < 1:
        raise DimensionError(f"matrix order must be positive, got {g.n}")
    if g.n > model._SPARSE_ABOVE_N:
        C = _negated_laplacian_csr(g)
    else:
        C = g.laplacian()
        np.negative(C, out=C)      # C = -L in the Laplacian's own buffer
    # constraint i is the single diagonal entry (i, i) with value 1
    amap = ConstraintMap(n=g.n, m=g.n, idx=np.arange(g.n, dtype=np.intp),
                         row=np.arange(g.n, dtype=np.intp),
                         col=np.arange(g.n, dtype=np.intp), val=np.ones(g.n))
    b = np.ones(g.n)
    if alpha is None:
        alpha = 2.0 * g.n
    return SdpProblem(C=C, A=amap, b=b, alpha=alpha)


def _negated_laplacian_csr(g):
    """-L as a canonical CSR matrix holding each edge in both triangles and
    the whole diagonal, each entry with the bits of ``-g.laplacian()``:
    an isolated vertex keeps its -0.0, which the slack reads at the
    diagonal constraint positions."""
    import scipy.sparse

    i, j = g.edges[:, 0].astype(np.intp), g.edges[:, 1].astype(np.intp)
    off = -(0.0 - g.edges[:, 2])     # laplacian's 0.0 - w, negated
    v = np.arange(g.n, dtype=np.intp)
    return scipy.sparse.csr_matrix(
        (np.concatenate([off, off, -g._degrees()]),
         (np.concatenate([i, j, v]), np.concatenate([j, i, v]))), shape=(g.n, g.n))


# ---------------------------------------------------------------------------
# matrix completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompletionInstance:
    """Observed cells of a d x d PSD matrix: (i, j, value) with 0-based
    ordered indices, deduplicated.  ``factors`` holds the ground-truth
    low-rank factor when the instance is synthetic."""

    d: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    factors: np.ndarray | None = None

    def __post_init__(self):
        d = check_field("d", self.d, INTEGER, *POSITIVE)
        r, c = np.asarray(self.rows), np.asarray(self.cols)
        v = np.asarray(self.vals, dtype=float)
        if not (r.shape == c.shape == v.shape) or r.ndim != 1 or r.size == 0:
            raise ValueError("rows, cols, vals must be equal-length nonempty 1-d arrays")
        r, c = (check_finite(name, a if a.dtype.kind in "biu" else a.astype(float), INTEGER,
                             lambda a: (0 <= a) & (a < d), f"in [0, {d})")
                .astype(int, order="C", copy=False)
                for name, a in (("rows", r), ("cols", c)))
        check_finite("vals", v)
        if _has_duplicates(r * d + c):
            raise ValueError("duplicate observed cells")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "vals", v)

    @property
    def n_obs(self):
        return self.rows.size

    def nuclear_norm(self):
        """Nuclear norm of the ground truth (trace of W W^T); synthetic only."""
        if self.factors is None:
            raise ValueError("instance has no ground-truth factors")
        W = np.asarray(self.factors, dtype=float)
        return float(np.sum(W * W))


def gen_completion(d=50, rank=3, p_obs=0.3, seed=0):
    """Synthetic instance: M = W W^T with W in {-1, +1}^(d x rank), each of
    the d^2 cells observed independently with probability p_obs."""
    check_field("d", d, INTEGER, *POSITIVE)
    check_field("rank", rank, INTEGER, *POSITIVE)
    check_field("p_obs", p_obs, REAL, *_PROBABILITY)
    check_field("seed", seed, INTEGER, *NONNEGATIVE)
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 2, size=(d, rank)) * 2.0 - 1.0
    M = W @ W.T
    mask = rng.random((d, d)) < p_obs
    r, c = np.nonzero(mask)
    if r.size == 0:
        raise ValueError("no cells observed; raise p_obs")
    return CompletionInstance(d=d, rows=r, cols=c, vals=M[r, c], factors=W)


def read_observations(path):
    """Read observed cells from CSV rows 'i,j,value' (1-based indices)."""
    rows, cols, vals = [], [], []
    d = 0
    with open(path, newline="") as fh:
        for lineno, parts in enumerate(csv.reader(fh), start=1):
            if not parts or (lineno == 1 and not _is_number(parts[-1])):
                continue   # header or blank
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 'i,j,value', got {parts!r}")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed row {parts!r}") from None
            if i < 1 or j < 1:
                raise ParseError(f"{path}:{lineno}: indices are 1-based, got {i},{j}")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            d = max(d, i, j)
    if not rows:
        raise ParseError(f"{path}: no observations found")
    return CompletionInstance(d=d, rows=np.array(rows), cols=np.array(cols),
                              vals=np.array(vals))


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def build_completion(inst, alpha=None):
    """Penalized SDP for nuclear-norm completion of a PSD matrix.

    Order n = 2d; constraint k for cell (i, j) is the symmetric pair
    matrix with value 1/2 at (i, d + j), so <A_k, X> reads the (i, d+j)
    entry of X exactly.  Default penalty is 4x the ground-truth nuclear
    norm, twice the nuclear norm of the embedded solution.
    """
    d = inst.d
    n = 2 * d
    if n > model._SPARSE_ABOVE_N:
        import scipy.sparse

        C = scipy.sparse.identity(n, format="csr")
    else:
        C = np.eye(n)
    m = inst.n_obs
    amap = ConstraintMap(n=n, m=m, idx=np.arange(m, dtype=np.intp),
                         row=inst.rows.astype(np.intp), col=(d + inst.cols).astype(np.intp),
                         val=np.full(m, 0.5))
    if alpha is None:
        if inst.factors is None:
            raise ValueError(
                "alpha can only be derived for synthetic instances; pass it explicitly")
        alpha = 4.0 * inst.nuclear_norm()
    return SdpProblem(C=C, A=amap, b=inst.vals.copy(), alpha=alpha)
