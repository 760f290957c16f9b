"""Two-sided randomized sketch of the running primal aggregate.

Instead of storing the dense n x n aggregate, keep only a column sketch
``Yc = X Psi`` and a row sketch ``Yr = Phi X`` against fixed Gaussian test
matrices.  Every aggregate update has the shape

    X' = scale * X + V S V^T

(a scalar recombination plus a low-rank correction), which both sketches
absorb in O(n * rank) work.  A near-optimal rank-r reconstruction is
recovered at the end from the two sketches alone.

Gaussians are produced by a Box-Muller transform driven by a seeded
counter-based 64-bit generator (Philox), so a given seed yields the same
test matrices on every platform and session.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .linops import DimensionError


def gaussian_matrix(seed, shape, stream=0):
    """Deterministic standard-normal array via Box-Muller over Philox streams."""
    count = int(np.prod(shape))
    key = (int(seed) + 0x9E3779B97F4A7C15 * int(stream)) % (1 << 64)
    rng = np.random.Generator(np.random.Philox(key=key))
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    # 1 - u1 lies in (0, 1], keeping the log finite
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
    return z.reshape(shape)


@dataclass(frozen=True, eq=False)
class SketchState:
    """Immutable snapshot of the two-sided sketch.

    k = 2r + 1 column probes, l = 4r + 3 row probes; Yc and Yr start at
    zero and stay exact linear images of the sketched matrix.
    """

    n: int
    r: int
    Psi: np.ndarray   # n x k
    Phi: np.ndarray   # l x n
    Yc: np.ndarray    # n x k
    Yr: np.ndarray    # l x n

    @property
    def k(self):
        return self.Psi.shape[1]

    @property
    def l(self):
        return self.Phi.shape[0]


def sketch_init(n, r, seed):
    """Fresh zero sketch of an n x n matrix targeting reconstruction rank r."""
    if n < 1 or r < 1:
        raise DimensionError(f"need positive dimensions, got n={n}, r={r}")
    k = 2 * r + 1
    l = 4 * r + 3
    Psi = gaussian_matrix(seed, (n, k), stream=1)
    Phi = gaussian_matrix(seed, (l, n), stream=2)
    return SketchState(n=n, r=r, Psi=Psi, Phi=Phi,
                       Yc=np.zeros((n, k)), Yr=np.zeros((l, n)))


def sketch_update(st, scale, V, S):
    """Absorb the update  X' = scale * X + V S V^T  into both sketches."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if V.shape[0] != st.n:
        raise DimensionError(f"expected factor with {st.n} rows, got {V.shape[0]}")
    if S.shape != (V.shape[1], V.shape[1]):
        raise DimensionError(f"core shape {S.shape} does not match factor width {V.shape[1]}")
    Yc = V @ (S @ (V.T @ st.Psi)) + scale * st.Yc
    Yr = ((st.Phi @ V) @ S) @ V.T + scale * st.Yr
    return replace(st, Yc=Yc, Yr=Yr)


def sketch_scale(st, scale):
    """Absorb  X' = scale * X  alone (a zero-rank update)."""
    return replace(st, Yc=scale * st.Yc, Yr=scale * st.Yr)


@dataclass(frozen=True, eq=False)
class LowRankFactors:
    """X_hat = left @ diag(weights) @ right, with orthonormal left columns."""

    left: np.ndarray     # n x r
    weights: np.ndarray  # r
    right: np.ndarray    # r x n

    def dense(self):
        return (self.left * self.weights) @ self.right


def sketch_reconstruct(st, rank=None):
    """Best rank-r estimate of the sketched matrix from (Yc, Yr) alone.

    Orthonormalize the column sketch, solve the small least-squares system
    against the row sketch through a pseudoinverse (singular values below
    1e-10 of the largest are treated as zero), then truncate to rank r.
    """
    r = st.r if rank is None else int(rank)
    if np.abs(st.Yc).max() == 0.0:
        z = np.zeros((st.n, r))
        return LowRankFactors(left=z, weights=np.zeros(r), right=z.T)
    Q, _ = scipy.linalg.qr(st.Yc, mode="economic")
    B = _pinv_solve(st.Phi @ Q, st.Yr)
    U, s, Vt = scipy.linalg.svd(B, full_matrices=False)
    r = min(r, s.size)
    return LowRankFactors(left=Q @ U[:, :r], weights=s[:r], right=Vt[:r])


def _pinv_solve(A, B):
    """pinv(A) @ B, singular values below 1e-10 of the largest dropped."""
    U, s, Vt = scipy.linalg.svd(A, full_matrices=False)
    keep = s > 1e-10 * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (Vt.T * inv) @ (U.T @ B)
