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

from ..linops import ConstraintMap
from ..model import SdpProblem


class ParseError(ValueError):
    """Malformed instance file; message carries the offending line number."""


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
        e = np.atleast_2d(np.asarray(self.edges, dtype=float))
        if e.size == 0:
            e = np.zeros((0, 3))
        if e.shape[1] != 3:
            raise ValueError(f"edges must have three columns, got shape {e.shape}")
        i, j = e[:, 0].astype(int), e[:, 1].astype(int)
        if np.any(i == j):
            raise ValueError("self-loops are not allowed")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if np.any(lo < 0) or np.any(hi >= self.n):
            raise ValueError("edge endpoint outside the vertex range")
        e = np.column_stack([lo, hi, e[:, 2]]).astype(float)
        keys = set(map(tuple, e[:, :2].astype(int)))
        if len(keys) != e.shape[0]:
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", e)

    def laplacian(self):
        """Dense graph Laplacian.  Each diagonal entry sums its edges'
        weights in edge order (the interleaved ``i0, j0, i1, j1, ...``
        scatter), and edges are distinct, so every off-diagonal entry is
        written once."""
        i, j = self.edges[:, 0].astype(np.intp), self.edges[:, 1].astype(np.intp)
        w = self.edges[:, 2]
        L = np.zeros((self.n, self.n))
        ends = np.column_stack([i, j]).ravel()
        np.add.at(L, (ends, ends), np.repeat(w, 2))
        L[i, j] -= w
        L[j, i] -= w
        return L


def triangle_graph():
    """Unit-weight 3-cycle, the smallest interesting max-cut instance."""
    return GraphInstance(n=3, edges=np.array([[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]))


def gen_er_graph(n, p, seed, weight=1.0):
    """Erdos-Renyi G(n, p) with constant edge weight."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    edges = np.column_stack([iu[mask], ju[mask],
                             np.full(int(mask.sum()), float(weight))])
    if edges.shape[0] == 0:
        raise ValueError(f"G({n}, {p}) draw came out empty; pick a denser graph")
    return GraphInstance(n=n, edges=edges)


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
    twice the nuclear norm of any solution.
    """
    L = g.laplacian()
    C = -L
    amap = ConstraintMap.from_triples(g.n, [[(i, i, 1.0)] for i in range(g.n)])
    b = np.ones(g.n)
    if alpha is None:
        alpha = 2.0 * g.n
    return SdpProblem(C=C, A=amap, b=b, alpha=float(alpha))


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
        r = np.asarray(self.rows, dtype=int)
        c = np.asarray(self.cols, dtype=int)
        v = np.asarray(self.vals, dtype=float)
        if not (r.shape == c.shape == v.shape) or r.ndim != 1 or r.size == 0:
            raise ValueError("rows, cols, vals must be equal-length nonempty 1-d arrays")
        if r.min() < 0 or c.min() < 0 or r.max() >= self.d or c.max() >= self.d:
            raise ValueError("observed index outside the matrix")
        if len({(i, j) for i, j in zip(r.tolist(), c.tolist())}) != r.size:
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
    C = np.eye(n)
    triples = [[(int(i), int(d + j), 0.5)]
               for i, j in zip(inst.rows.tolist(), inst.cols.tolist())]
    amap = ConstraintMap.from_triples(n, triples)
    if alpha is None:
        if inst.factors is None:
            raise ValueError(
                "alpha can only be derived for synthetic instances; pass it explicitly")
        alpha = 4.0 * inst.nuclear_norm()
    return SdpProblem(C=C, A=amap, b=inst.vals.copy(), alpha=float(alpha))
