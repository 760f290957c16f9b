"""Shared generators and brute-force oracles for the test suite.

Everything here is deliberately independent of the library internals it
is used to check: projections are re-derived by active-set enumeration,
subproblem minima by nested grid refinement, and constraint maps by
naive dense loops.
"""

import numpy as np
import scipy.optimize

from specbundle import ConstraintMap, SdpProblem
from specbundle.linops import orthonormalize
from specbundle.model import Aggregate, zero_aggregate


def symm(B):
    return 0.5 * (B + B.T)


def rand_sparse_map(rng, n, m, max_nnz=3):
    """Random sparse symmetric constraint map, 1..max_nnz triples each."""
    triples = []
    for _ in range(m):
        entries = {}
        for _ in range(int(rng.integers(1, max_nnz + 1))):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            if i > j:
                i, j = j, i
            entries[(i, j)] = float(rng.normal())
        triples.append([(i, j, v) for (i, j), v in entries.items()])
    return ConstraintMap.from_triples(n, triples)


def dense_constraints(amap):
    """Materialize every A_k as a dense symmetric matrix (oracle path)."""
    mats = np.zeros((amap.m, amap.n, amap.n))
    for k, i, j, v in zip(amap.idx, amap.row, amap.col, amap.val):
        mats[k, i, j] += v
        if i != j:
            mats[k, j, i] += v
    return mats


def embed_completion(inst):
    """Ground-truth primal [[M, M], [M, M]] for a synthetic completion
    instance; PSD, feasible, and nuclear norm 2 ||M||_* (it is the
    reference solution)."""
    if inst.factors is None:
        raise ValueError("instance has no ground-truth factors")
    W = np.asarray(inst.factors, dtype=float)
    M = W @ W.T
    return np.block([[M, M], [M, M]])


def rand_problem(rng, n=6, m=4):
    amap = rand_sparse_map(rng, n, m)
    C = symm(rng.normal(size=(n, n)))
    b = rng.normal(size=m)
    alpha = float(rng.uniform(2.0, 6.0))
    return SdpProblem(C=C, A=amap, b=b, alpha=alpha)


def rand_setup(rng, n=6, m=4, p=2, with_agg=True):
    """Random subproblem data: (prob, agg, V, y, rho).

    The aggregate, when present, is a rank-2 PSD matrix stored at trace
    exactly alpha, matching the solver's storage convention.
    """
    prob = rand_problem(rng, n, m)
    if with_agg:
        G = rng.normal(size=(n, 2))
        Xb = G @ G.T
        Xb *= prob.alpha / np.trace(Xb)
        agg = Aggregate(AX=prob.A.apply(Xb), CX=float(np.sum(prob.C * Xb)),
                        tr=prob.alpha, X=Xb)
    else:
        agg = zero_aggregate(prob)
    V = orthonormalize(rng.normal(size=(n, p)))
    y = rng.normal(size=m)
    rho = float(rng.uniform(0.5, 3.0))
    return prob, agg, V, y, rho


# ---------------------------------------------------------------------------
# projection oracle: active-set enumeration over {x >= 0, sum(x) <= 1}
# ---------------------------------------------------------------------------

def project_hull_oracle(v):
    """Exact projection by enumerating all active patterns (k <= ~12).

    For each clamped subset Z and each state of the sum constraint, the
    equality-constrained minimizer of ||x - v||^2 is closed-form; the
    projection is the feasible candidate of least distance.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    best = None
    best_d = np.inf
    for mask in range(1 << k):
        free = np.array([(mask >> i) & 1 == 0 for i in range(k)])
        for sum_active in (False, True):
            x = np.zeros(k)
            if free.any():
                if sum_active:
                    mu = (v[free].sum() - 1.0) / free.sum()
                    x[free] = v[free] - mu
                else:
                    x[free] = v[free]
            elif sum_active:
                continue
            if x.min(initial=0.0) < -1e-12 or x.sum() > 1.0 + 1e-12:
                continue
            d = float(np.sum((x - v) ** 2))
            if d < best_d - 1e-15:
                best_d = d
                best = np.maximum(x, 0.0)
    return best


# ---------------------------------------------------------------------------
# grid-refinement oracles for the inner quadratic
# ---------------------------------------------------------------------------

def grid_min_rank1(ip, levels=14):
    """Global minimum of the width-1 inner quadratic over its triangle by
    nested 2-d grid refinement; returns (f, eta, s)."""
    a = ip.alpha
    lo = np.array([0.0, 0.0])
    hi = np.array([1.0, a])
    best_u = None
    best_f = np.inf
    for _ in range(levels):
        e_ax = np.linspace(lo[0], hi[0], 17)
        s_ax = np.linspace(lo[1], hi[1], 17)
        E, S = np.meshgrid(e_ax, s_ax, indexing="ij")
        e, s = E.ravel(), S.ravel()
        ok = a * e + s <= a + 1e-12
        e, s = e[ok], s[ok]
        resid = ip.b[None, :] - e[:, None] * ip.AX[None, :] \
            - s[:, None] * ip.T[None, :, 0, 0]
        vals = (ip.const + e * ip.c_eta + s * ip.G2[0, 0]
                + 0.5 / ip.rho * np.einsum("gm,gm->g", resid, resid))
        kbest = int(np.argmin(vals))
        if vals[kbest] < best_f:
            best_f = float(vals[kbest])
            best_u = np.array([e[kbest], s[kbest]])
        w = (hi - lo) / 4.0
        lo = np.maximum(best_u - w / 2.0, 0.0)
        hi = np.minimum(best_u + w / 2.0, [1.0, a])
    return best_f, best_u[0], best_u[1]


def grid_min_rank2(ip, levels=12):
    """Global minimum of the width-2 inner quadratic by nested refinement
    over (eta, s1, s2, theta) with S = R(theta) diag(s1, s2) R(theta)^T."""
    a = ip.alpha
    lo = np.array([0.0, 0.0, 0.0, 0.0])
    hi = np.array([1.0, a, a, np.pi])
    best_u = None
    best_f = np.inf
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], 11 if d == 3 else 9) for d in range(4)]
        E, S1, S2, TH = np.meshgrid(*axes, indexing="ij")
        e, s1, s2, th = E.ravel(), S1.ravel(), S2.ravel(), TH.ravel()
        ok = a * e + s1 + s2 <= a + 1e-12
        e, s1, s2, th = e[ok], s1[ok], s2[ok], th[ok]
        ct, st = np.cos(th), np.sin(th)
        S11 = ct * ct * s1 + st * st * s2
        S22 = st * st * s1 + ct * ct * s2
        S12 = ct * st * (s1 - s2)
        Sb = np.stack([np.stack([S11, S12], -1), np.stack([S12, S22], -1)], -2)
        resid = ip.b[None, :] - e[:, None] * ip.AX[None, :] \
            - np.einsum("mij,gij->gm", ip.T, Sb)
        vals = (ip.const + e * ip.c_eta + np.einsum("gij,ij->g", Sb, ip.G2)
                + 0.5 / ip.rho * np.einsum("gm,gm->g", resid, resid))
        kbest = int(np.argmin(vals))
        if vals[kbest] < best_f:
            best_f = float(vals[kbest])
            best_u = np.array([e[kbest], s1[kbest], s2[kbest], th[kbest]])
        w = (hi - lo) / 3.0
        lo = best_u - w / 2.0
        hi = best_u + w / 2.0
        lo[:3] = np.maximum(lo[:3], 0.0)
        hi[0] = min(hi[0], 1.0)
        hi[1:3] = np.minimum(hi[1:3], a)

    def val(u):
        e, s1, s2, th = u
        ct, st = np.cos(th), np.sin(th)
        S = np.array([[ct * ct * s1 + st * st * s2, ct * st * (s1 - s2)],
                      [ct * st * (s1 - s2), st * st * s1 + ct * ct * s2]])
        r = ip.b - e * ip.AX - np.tensordot(ip.T, S, axes=([1, 2], [0, 1]))
        return float(ip.const + e * ip.c_eta + np.sum(S * ip.G2)
                     + 0.5 / ip.rho * (r @ r))

    # the nested grid can lock onto a shallow basin of the (s1, s2, theta)
    # parametrization on near-degenerate instances; a local polish with an
    # unrelated solver removes that bias
    res = scipy.optimize.minimize(
        val, best_u, method="SLSQP",
        bounds=[(0.0, 1.0), (0.0, a), (0.0, a), (None, None)],
        constraints=[{"type": "ineq",
                      "fun": lambda u: a - (a * u[0] + u[1] + u[2])}],
        options={"maxiter": 300, "ftol": 1e-14})
    u = np.clip(res.x, [0.0, 0.0, 0.0, -np.inf], [1.0, a, a, np.inf])
    over = a * u[0] + u[1] + u[2] - a
    if over > 0.0:
        u[1] = max(u[1] - over, 0.0)
        u[2] = max(u[2] - (a * u[0] + u[1] + u[2] - a), 0.0)
    if a * u[0] + u[1] + u[2] <= a + 1e-12:
        best_f = min(best_f, val(u))
    return best_f
