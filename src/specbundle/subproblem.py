"""Regularized bundle subproblem: projections, exact face solves, APG.

Each outer iteration minimizes, over the proximal center y with weight
rho, the regularized model

    min_z  max_{(eta,S) feasible}  <-b, z> + <eta Xbar + V S V^T, A* z - C>
                                   + (rho/2) ||z - y||^2.

Swapping min and max and solving the inner min over z in closed form
leaves a convex quadratic in (eta, S) over

    S_t = { eta >= 0,  S psd,  tr(S) + alpha * eta <= alpha },

namely  f(eta, S) = <b, y> + eta * (<C,Xbar> - <A(Xbar), y>)
                  + <S, V^T (C - A* y) V> + (1/(2 rho)) ||r||^2,
        r = b - eta * A(Xbar) - A(V S V^T).

The outer minimizer is then recovered as  z = y + (b - A(X)) / rho  for
X = eta Xbar + V S V^T.  Exact solves on the faces of S_t (the face
ladder of ``_face_polish``) settle a width-1 bundle on their own and
refine accelerated projected gradient iterates otherwise; the projection
onto S_t is spectral and reduces to a simplex-with-slack projection of
(eta, eigenvalues).  That step runs on Python floats, one row at a time
(``_simplex_hull_row``), and sums its cap test in numpy's order
(``_numpy_sum``: left to right below 8 terms, eight partial sums combined
pairwise from 8 on), so a row whose clamped sum is 1 to within an ulp
takes numpy's branch.

The projection and ``_score`` take stacks of points too (``_score`` takes
a single point as a stack of one), and agree bit for bit with the
single-point operations,
since the outer trajectory amplifies last-bit changes.  A polish skips
candidates that score above its cap, so the ladder stops each chain of
nested faces at its first face whose value bound clears the cap
(``_face_polish``, ``_value_bound``); on the seed-0 benchmark solves that
leaves 50-76% of the faces to solve, with every bit kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import add

import numpy as np
from scipy.linalg.lapack import dgelsd, dgelsd_lwork

from .linops import DimensionError, _eigh, _syevr, symmetrize


def _numpy_sum(w):
    """The sum of a list of floats as ``np.add.reduce`` adds a row, so with
    its bits: left to right below 8 terms; up to 15, the first 8 pairwise,
    then the rest left to right; from 16 on, numpy's own sum (running
    partial sums, one per position mod 8, combined pairwise)."""
    if len(w) < 8:
        return reduce(add, w, -0.0)
    if len(w) < 16:
        return reduce(add, w[8:], ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7])))
    return float(np.array(w).sum())


def _simplex_hull_row(x):
    """Euclidean projection of a list of finite floats onto
    { x >= 0, sum(x) <= 1 }, as a list of floats.

    Clamping negatives suffices when the clamped row meets the sum
    constraint; otherwise the constraint is active and the row takes the
    sort-based simplex projection (Duchi, Shalev-Shwartz, Singer & Chandra,
    2008): tau from the last prefix of the descending sort whose entries
    all stay above it, then a clamp of x - tau.  The steps run on Python
    floats as numpy's vectorized form ran them, so with its bits: each
    clamp as ``np.maximum(v, 0.0)`` makes it (-0.0 becomes 0.0), the
    running sum left to right, and the cap test summed by ``_numpy_sum``;
    in another summation order a row whose clamped sum is 1 to within an
    ulp can fall on the other side of the cap.
    """
    w = [v if v > 0.0 else 0.0 for v in x]
    if not _numpy_sum(w) > 1.0:
        return w
    tau = s = 0.0
    for j, v in enumerate(sorted(x, reverse=True), 1):
        s += v
        t = (s - 1.0) / j
        # in exact arithmetic the support holds the largest entry, which
        # is also the answer where rounding empties it
        if j == 1 or v - t > 0.0:
            tau = t
    return [d if d > 0.0 else 0.0 for d in [v - tau for v in x]]


def project_simplex_hull(v):
    """Euclidean projection of a vector onto { x >= 0, sum(x) <= 1 }."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.array(_simplex_hull_row(v.tolist()), dtype=float)


def project_psd_simplex_hull(eta0, S0):
    """Project (eta0, S0) onto { eta >= 0, S psd, eta + tr(S) <= 1 }; a
    vector ``eta0`` of length c with a (c, p, p) stack ``S0`` gives the c
    projections as a vector and a stack, each bit for bit its own.  Each
    matrix takes one ``dsyevr`` call, then ``_simplex_hull_row`` on eta
    and its eigenvalues, then the rebuild Q diag(x) Q^T."""
    S0 = np.asarray(S0, dtype=float)
    S0 = S0 if S0.ndim >= 2 else np.atleast_2d(S0)
    if S0.ndim > 3 or S0.shape[-1] != S0.shape[-2] or not S0.shape[-1]:
        raise DimensionError(f"expected nonempty square matrices, got shape {S0.shape}")
    if S0.ndim == 3:
        return _project_psd_stack(np.asarray(eta0, dtype=float), S0)
    eta0 = float(eta0)
    S = 0.5 * (S0 + S0.T)
    if not (math.isfinite(eta0) and np.isfinite(S).all()):
        raise ValueError("array must not contain infs or NaNs")
    lam, Q = _syevr(S)
    x = _simplex_hull_row([eta0] + lam.tolist())
    S = np.matmul(Q * np.array(x[1:]), Q.T)
    return x[0], 0.5 * (S + S.T)


def _project_psd_stack(eta0, S0):
    """The projection of each pair (eta0[i], S0[i]) of a stack; each
    eigenbasis stays column-major, as dsyevr returns it, so the rebuild
    hands BLAS the operand layouts of a single projection."""
    c, p = S0.shape[:2]
    if eta0.shape != (c,):
        raise DimensionError(f"expected {c} eta values for {c} matrices, got shape {eta0.shape}")
    S = 0.5 * (S0 + S0.transpose(0, 2, 1))
    if not (np.isfinite(eta0).all() and np.isfinite(S).all()):
        raise ValueError("array must not contain infs or NaNs")
    Q = np.empty((c, p, p)).transpose(0, 2, 1)
    rows = []
    for i, e in enumerate(eta0.tolist()):
        lam, Q[i] = _syevr(S[i])
        rows.append(_simplex_hull_row([e] + lam.tolist()))
    X = np.array(rows, dtype=float).reshape(c, p + 1)
    S = np.matmul(Q * X[:, None, 1:], Q.transpose(0, 2, 1))
    return X[:, 0], 0.5 * (S + S.transpose(0, 2, 1))


@dataclass(eq=False)
class InnerProblem:
    """Quadratic data of one bundle subproblem, in terms of cached
    functionals of the aggregate and the compressed constraint map."""

    y: np.ndarray
    rho: float
    V: np.ndarray
    b: np.ndarray
    alpha: float
    AX: np.ndarray       # A(Xbar)
    c_eta: float         # <C, Xbar> - <A(Xbar), y>
    T: np.ndarray        # (m, p, p) compressed constraints V^T A_k V
    VCV: np.ndarray      # V^T C V
    G2: np.ndarray       # V^T (C - A* y) V
    const: float         # <b, y>
    T2: np.ndarray = field(init=False, repr=False)   # T viewed as (m, p*p)

    def __post_init__(self):
        self.T2 = self.T.reshape(self.T.shape[0], -1)

    @classmethod
    def build(cls, prob, agg, V, y, rho):
        V = np.asarray(V, dtype=float)
        if V.ndim == 1:
            V = V[:, None]
        y = np.asarray(y, dtype=float)
        T = prob.A.congruence(V)
        VCV = symmetrize(V.T @ prob.C @ V)
        ip = cls(y=y, rho=float(rho), V=V, b=prob.b, alpha=prob.alpha,
                 AX=agg.AX, c_eta=agg.CX - float(agg.AX @ y),
                 T=T, VCV=VCV, G2=None, const=float(prob.b @ y))
        ip.G2 = symmetrize(VCV - ip.adjoint(y))   # the adjoint needs ip.T2
        return ip

    @property
    def width(self):
        return self.V.shape[1]

    def apply(self, S):
        """A(V S V^T) = sum_kl T[:, k, l] S[k, l]: the single np.dot that
        np.tensordot(T, S, axes=([1, 2], [0, 1])) makes, so the same bits."""
        m, pp = self.T2.shape
        return np.dot(self.T2, S.reshape(pp, 1)).reshape(m)

    def adjoint(self, r):
        """V^T A*(r) V = sum_k r[k] T[k]: the single np.dot that
        np.tensordot(r, T, axes=1) makes, so the same bits."""
        return np.dot(r.reshape(1, self.T2.shape[0]), self.T2).reshape(self.T.shape[1:])

    def residual_vec(self, eta, S):
        """b - A(eta Xbar + V S V^T)."""
        return self.b - eta * self.AX - self.apply(S)

    def value(self, eta, S, r=None):
        """The quadratic at (eta, S); ``r`` is its ``residual_vec`` when
        the caller already has it."""
        if r is None:
            r = self.residual_vec(eta, S)
        return (self.const + eta * self.c_eta + float((S * self.G2).sum())
                + 0.5 / self.rho * float(r @ r))

    def gradient(self, r):
        """The gradient at the point (eta, S) whose ``residual_vec`` is
        ``r``; the quadratic's gradient reads the point only through it."""
        d_eta = self.c_eta - float(self.AX @ r) / self.rho
        d_S = self.G2 - self.adjoint(r) / self.rho
        return d_eta, 0.5 * (d_S + d_S.T)


@dataclass(eq=False)
class InnerInfo:
    residual: float
    iterations: int
    converged: bool


def default_inner_tol(b):
    """Stationarity tolerance 1e-9 * (1 + ||b||), scaling with the data."""
    return 1e-9 * (1.0 + float(np.linalg.norm(b)))


def _stationarity_residual(ip, e, Ss, r=None):
    """Distance moved by a unit-step projected gradient from the scaled
    point (e, Ss) = (eta, S/alpha); zero exactly at a minimizer.  ``r`` is
    the point's residual when the caller already has it."""
    a = ip.alpha
    if r is None:
        r = ip.residual_vec(e, a * Ss)
    ge, gS = ip.gradient(r)
    r_e, r_S = project_psd_simplex_hull(e - ge, Ss - a * gS)
    return np.sqrt((e - r_e) ** 2 + float(((Ss - r_S) ** 2).sum()))


def _quadratic_lipschitz(ip):
    """Largest curvature of the quadratic part in scaled variables
    (eta, S/alpha), estimated by at most 200 power iterations on the
    Hessian from a seed-0 start, to relative change 1e-3."""
    a = ip.alpha
    rng = np.random.default_rng(0)
    p = ip.width
    de = rng.standard_normal()
    dS = symmetrize(rng.standard_normal((p, p)))
    scale = np.sqrt(de * de + float(np.sum(dS * dS)))
    de, dS = de / scale, dS / scale
    lam = 0.0
    for _ in range(200):
        # forward map into constraint space, then its adjoint, over rho
        r = de * ip.AX + a * ip.apply(dS)
        he = float(ip.AX @ r) / ip.rho
        hS = a * ip.adjoint(r) / ip.rho
        norm = np.sqrt(he * he + float(np.sum(hS * hS)))
        if norm == 0.0:
            return 0.0
        new = norm
        de, dS = he / norm, hS / norm
        if abs(new - lam) <= 1e-3 * max(new, 1e-300):
            lam = new
            break
        lam = new
    return float(lam)


@cache
def _gelsd_work(n):
    """(lwork, liwork) of dgelsd for an order-``n`` system with one
    right-hand side, from LAPACK's own workspace query, as
    np.linalg.lstsq makes it."""
    lwork, liwork, info = dgelsd_lwork(n, n, 1)
    if info != 0:
        raise ValueError(f"dgelsd workspace query failed: {info}")
    return int(lwork), int(liwork)


def _lstsq(H, rhs, rcond):
    """``np.linalg.lstsq(H, rhs, rcond)``'s solution, rank and singular
    values, bit for bit, for a square H: the same LAPACK driver (dgelsd),
    cutoff and workspace, without the wrapper's per-call argument
    handling.  ``rcond=None`` means eps * order, as there."""
    n = H.shape[0]
    if rcond is None:
        rcond = np.finfo(float).eps * n
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    lwork, liwork = _gelsd_work(n)
    x, s, rank, info = dgelsd(H, rhs[:, None], lwork, liwork, rcond)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0], rank, s


def _face_solves(H, rhs):
    """Truncated least-squares solve of H u = rhs (valley directions
    dropped) and the exact one (valley resolved when its minimizer is
    finite; the caller's projection rejects blowups).  When the truncated
    solve keeps full rank, gelsd truncates nothing under either cutoff and
    does the same arithmetic twice, so that one solution is returned.
    Also returns H's smallest singular value when the rank is full, and
    0.0 when the truncated solve dropped a direction."""
    u, rank, s = _lstsq(H, rhs, 1e-10)
    if rank == H.shape[0]:
        return [u], float(s[-1])
    return [u, _lstsq(H, rhs, None)[0]], 0.0


# relative roundoff margin of a face's value bound; see _value_bound
_BOUND_RTOL = 1e-10


def _value_bound(ip, D, lin, H, rhs, tvec, u, mu, s_min):
    """A lower bound, less its roundoff margin, on the subproblem's value
    over one face's span under the trace cap, from any trial point ``u``
    of the face's unknowns and any multiplier ``mu >= 0``.

    On the span the value is q(v) = const + lin.v + ||b - D v||^2 / (2 rho),
    a convex quadratic with Hessian H = D^T D / rho.  Its Lagrangian
    L(v) = q(v) + mu (tvec.v - alpha) is at most q(v) wherever
    tvec.v <= alpha (the trace cap), and its minimum over all v is
    L(u) - g.H^{-1}g / 2 >= L(u) - ||g||^2 / (2 s_min), where
    g = rhs - mu tvec - H u is its negative gradient at u and s_min is
    H's smallest singular value (this residual term pays for u not being
    the exact minimizer).  So

        lb = L(u) - ||g||^2 / (2 s_min)

    bounds the value at every point of the span that meets the cap, and
    so at every projected candidate of this face or of a face inside it.
    A singular H leaves no bound.  The margin is ``_BOUND_RTOL`` times one
    plus the sum of the magnitudes of lb's five terms.  The rounding of lb
    and of a candidate's score is at most about m * eps of those
    magnitudes (dot products of length m; 7e-13 at m = 6,600), and a
    candidate's drift off the span in its projection's eigenvectors
    (about p * eps) moves its value by less; the margin is over 100 times
    that, and 1e5 times the largest excess of lb over a candidate's score
    measured on the four benchmark workloads.
    """
    r = ip.b - D @ u
    g = rhs - mu * tvec - H @ u
    terms = (ip.const, float(lin @ u), 0.5 / ip.rho * float(r @ r),
             mu * (float(tvec @ u) - ip.alpha), -0.5 * float(g @ g) / s_min)
    return sum(terms) - _BOUND_RTOL * (1.0 + sum(map(abs, terms)))


@cache
def _svec_index(keep):
    """Upper-triangle indices (iu, ju) of a keep x keep block, its svec
    weights (2 off the diagonal) and its trace row (0 off the diagonal);
    read-only, since every face of that order shares them."""
    iu, ju = np.triu_indices(keep)
    diag = iu == ju
    out = (iu, ju, np.where(diag, 1.0, 2.0), np.where(diag, 1.0, 0.0))
    for arr in out:
        arr.setflags(write=False)
    return out


def _face_candidates(ip, U, DS, linS, eta_free, f_cap=None):
    """Stationary points of the quadratic restricted to one face.

    The face freezes eta at zero unless ``eta_free`` and restricts S to
    U W U^T with W a free symmetric block over U, the leading ``keep``
    columns of the rotated basis; ``DS``/``linS`` are the constraint
    columns and linear terms of W's upper triangle in svec weighting,
    shared by the two faces of one ``keep``.  Solved unconstrained (see
    ``_face_solves``; the design can carry nearly flat valleys) and once
    with the trace cap pinned as an equality.  Returns the finite
    solutions as scaled (eta, S/alpha) stacks, unprojected: the caller
    projects them onto the feasible set, so a wrong face or an indefinite
    KKT solve is harmless.  The third item is ``_value_bound`` on the
    face, or -inf when no ``f_cap`` is given or H is rank-deficient.

    With ``f_cap``, a full-rank face whose bound exceeds it returns None:
    every candidate of the face, and of any face inside it, would score
    above ``f_cap``.  The bound at the unconstrained solution comes
    first, and when it settles the face the KKT solve is skipped; when
    that solution breaks the trace cap, the bound at the KKT point and
    its multiplier is taken too.
    """
    a = ip.alpha
    p = ip.width
    keep = U.shape[1]
    iu, ju, _, tvec = _svec_index(keep)
    D, lin = DS, linS
    if eta_free:
        D = np.concatenate([ip.AX[:, None], DS], axis=1)
        lin = np.concatenate([[ip.c_eta], linS])
        tvec = np.concatenate([[a], tvec])
    H = D.T @ D / ip.rho
    rhs = D.T @ ip.b / ip.rho - lin
    q = H.shape[0]
    sols, s_min = _face_solves(H, rhs)
    u0 = sols[0]
    bound = -np.inf
    if s_min and f_cap is not None:
        bound = _value_bound(ip, D, lin, H, rhs, tvec, u0, 0.0, s_min)
        if bound > f_cap:
            return None
    sols = [u for u in sols if not float(np.abs(u).max(initial=0.0)) > 1e10]
    K = np.zeros((q + 1, q + 1))
    K[:q, :q] = H
    K[:q, q] = tvec
    K[q, :q] = tvec
    x = _lstsq(K, np.concatenate([rhs, [a]]), 1e-12)[0]
    if bound > -np.inf and float(tvec @ u0) > a:
        bound = max(bound, _value_bound(ip, D, lin, H, rhs, tvec, x[:q],
                                        max(float(x[q]), 0.0), s_min))
        if bound > f_cap:
            return None
    sols.append(x[:q])
    u = np.array([v for v in sols if np.isfinite(v).all()]).reshape(-1, q)
    W = np.zeros((len(u), keep, keep))
    # + 0.0 maps -0.0 to 0.0, as symmetrizing the mirrored triangle does
    W[:, iu, ju] = W[:, ju, iu] = u[:, int(eta_free):] + 0.0
    S = np.matmul(np.matmul(U, W), U.T) if keep else np.zeros((len(u), p, p))
    return (u[:, 0] if eta_free else np.zeros(len(u))), S / a, bound


def _rotated(T, Q):
    """The stack Q^T T_k Q of an (m, p, p) stack T, bit for bit
    ``np.matmul(Q.T, np.matmul(T, Q))``, as two GEMMs in place of 2m p x p
    products.  Z = Q^T [T_1 ... T_m]^T holds Z[j, (k, l)] = (T_k Q)[l, j],
    so its (p m, p) view times Q holds (Q^T T_k Q)[i, j] at ((j, k), i);
    every entry takes the products of the stacked form in the same order,
    and no operand is copied to reorder it."""
    m, p = T.shape[:2]
    Z = Q.T @ T.reshape(-1, p).T
    return (Z.reshape(-1, p) @ Q).reshape(p, m, p).transpose(1, 2, 0)


def _face_polish(ip, e, Ss, f_cap=None):
    """Exact QP candidates near a scaled iterate, over a ladder of faces.

    The right active face is not knowable from the iterate alone (slow
    manifold identification is exactly why plain projected gradients
    crawl here), so every prefix of the sorted eigenvalues is tried as
    the clamped set, each with eta free and, when eta is small, clamped
    too.  Candidate counts stay tiny because the bundle width is.
    Returns the candidates as a vector of eta and a stack of S/alpha,
    all projected in one call but the origin (the eta-clamped face with
    nothing kept), which is feasible as it stands and comes last.

    With ``f_cap``, the ladder leaves out the candidates that would score
    above it.  The faces form two nested chains, the eta-free faces with
    ``keep`` = p..0 and the eta-clamped ones, each inside the eta-free
    face of its ``keep``, with the origin inside all of them.  A
    projected candidate keeps its face's eigenvectors and a clamped eta
    at 0, so it stays in its face's span and meets the trace cap; its
    value is then at least the ``_value_bound`` of every face containing
    it.  When a face's bound exceeds ``f_cap`` (``_face_candidates``
    returns None), its chain stops there, and an eta-free face stops the
    clamped chain and the origin with it.  The other candidates come in
    the same order and are projected and scored by the same stacked
    forms, so each keeps its bits.  On a seed-0 ``maxcut-200-block``
    solve the ladder stops about half of its faces this way.
    """
    lam, Q = _eigh(symmetrize(Ss))
    order = np.argsort(lam)[::-1]      # descending, clamp suffixes
    p = lam.size
    Qo = Q[:, order]
    TFull = _rotated(ip.T, Qo)
    G2Full = symmetrize(Qo.T @ ip.G2 @ Qo)
    faces = []
    clamped = e <= 0.5
    for keep in range(p, -1, -1):
        iu, ju, fac, _ = _svec_index(keep)
        U, DS, linS = Qo[:, :keep], TFull[:, iu, ju] * fac, G2Full[iu, ju] * fac
        face = _face_candidates(ip, U, DS, linS, True, f_cap)
        if face is None:
            clamped = False
            break
        faces.append(face)
        if clamped and keep:
            face = _face_candidates(ip, U, DS, linS, False, f_cap)
            clamped = face is not None
            if clamped:
                faces.append(face)
    if faces:
        E, S = project_psd_simplex_hull(np.concatenate([f[0] for f in faces]),
                                        np.concatenate([f[1] for f in faces]))
    else:
        E, S = np.zeros(0), np.zeros((0, p, p))
    if clamped:
        E, S = np.append(E, 0.0), np.concatenate([S, np.zeros((1, p, p))])
    return E, S


def _score(ip, E, Ss, f_cap):
    """Values of the scaled points (E[i], Ss[i]) and, for those not above
    ``f_cap``, stationarity residuals (NaN for the others): bit for bit
    what ``ip.value`` and ``_stationarity_residual`` give point by point.
    """
    a = ip.alpha
    c, p = Ss.shape[:2]
    S = a * Ss
    R = ip.b - E[:, None] * ip.AX - np.matmul(ip.T2, S.reshape(c, p * p, 1))[:, :, 0]
    F = (ip.const + E * ip.c_eta + (S * ip.G2).sum(axis=(1, 2))
         + 0.5 / ip.rho * np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])
    res = np.full(c, np.nan)
    low = ~(F > f_cap)
    if low.any():
        e, Ss, R = E[low], Ss[low], R[low]
        ge = ip.c_eta - np.matmul(R[:, None, :], ip.AX[:, None])[:, 0, 0] / ip.rho
        gS = ip.G2 - np.matmul(R[:, None, :], ip.T2).reshape(-1, p, p) / ip.rho
        gS = 0.5 * (gS + gS.transpose(0, 2, 1))
        r_e, r_S = project_psd_simplex_hull(e - ge, Ss - a * gS)
        d2 = ((Ss - r_S) ** 2).sum(axis=(1, 2))
        res[low] = np.sqrt([d ** 2 + t for d, t in zip((e - r_e).tolist(), d2.tolist())])
    return F, res


def solve_inner_apg(ip, max_iter=5000, warm=None):
    """Accelerated projected gradient on the subproblem quadratic.

    Works in scaled variables (eta, S/alpha) so the feasible set is the
    unit-trace hull; monotone variant with a function-value restart, step
    from a power-iteration curvature estimate with halving on failed
    descent checks.  Periodically refines the iterate by an exact solve
    on the active face, which collapses the tail of the iteration once
    the face has settled.  Returns ``(eta, S, info)``; ``info.converged``
    is False when the iteration cap is hit before the projected-gradient
    residual drops below ``default_inner_tol``.
    """
    tol = default_inner_tol(ip.b)
    a = ip.alpha
    p = ip.width

    def g_val(e, Ss):
        """Value at a scaled point, and the residual it was computed from."""
        S = a * Ss
        r = ip.residual_vec(e, S)
        return ip.value(e, S, r), r

    def g_grad(e, Ss):
        """Value and scaled gradient at a scaled point."""
        f, r = g_val(e, Ss)
        de, dS = ip.gradient(r)
        return f, de, a * dS

    L = _quadratic_lipschitz(ip)
    L = max(L * 1.05, 1e-12)

    if warm is not None:
        eta_w, S_w = warm
        x_e, x_S = project_psd_simplex_hull(float(eta_w), np.asarray(S_w, dtype=float) / a)
    else:
        x_e, x_S = 1.0, np.zeros((p, p))
    fx = g_val(x_e, x_S)[0]
    w_e, w_S = x_e, x_S
    theta = 1.0
    res = np.inf
    it = 0

    def pg_step(e, Ss, base, ge, gS, L):
        # backtracking: halve the step (double L) on failed descent check;
        # base is the value at (e, Ss), and the new point's residual is
        # returned with it
        for _ in range(80):
            c_e, c_S = project_psd_simplex_hull(e - ge / L, Ss - gS / L)
            d_e, d_S = c_e - e, c_S - Ss
            quad = base + ge * d_e + float((gS * d_S).sum()) \
                + 0.5 * L * (d_e * d_e + float((d_S * d_S).sum()))
            fc, r_c = g_val(c_e, c_S)
            if fc <= quad + 1e-12 * (1.0 + abs(quad)):
                break
            L *= 2.0
        return c_e, c_S, fc, r_c, L

    def try_polish(e0, S0, f0, r0):
        """Best face-refined point reachable from (e0, S0); face solves
        are iterated because the optimal eigenbasis is only approached,
        not known, at the current iterate.  Prefers a residual decrease;
        failing that, a point with a material value decrease; failing
        that, the best value-matching face point, since an exact face
        solve leaves only a span-rotation error that the gradient
        iteration contracts quickly.  Returns None when every candidate
        exceeds f0 beyond roundoff."""
        f_cap = f0 + 1e-9 * (1.0 + abs(f0))
        f_drop = f0 - 1e-9 * (1.0 + abs(f0))
        best = None
        lower = None
        cur_e, cur_S = e0, S0
        for cycle in range(4):
            sel = None
            E, S = _face_polish(ip, cur_e, cur_S, f_cap)
            F, R = _score(ip, E, S, f_cap)
            for p_e, p_S, fp, rp in zip(E.tolist(), S, F.tolist(), R.tolist()):
                if fp > f_cap:
                    continue
                if sel is None or rp < sel[0]:
                    sel = (rp, fp, p_e, p_S)
                if fp < f_drop and (lower is None or fp < lower[1]):
                    lower = (rp, fp, p_e, p_S)
            if sel is None:
                break
            if best is None or sel[0] < best[0]:
                best = sel
            elif cycle > 0:
                break   # realigned once and still no progress
            cur_e, cur_S = sel[2], sel[3]
        if (best is not None and best[0] < r0) or lower is None:
            return best
        return lower

    res_mark = np.inf
    polish_gap = 20
    polish_at = 3
    for it in range(1, max_iter + 1):
        c_e, c_S, fc, r_c, L = pg_step(w_e, w_S, *g_grad(w_e, w_S), L)
        if fc > fx:
            # momentum overshoot: restart from the best iterate
            theta = 1.0
            c_e, c_S, fc, r_c, L = pg_step(x_e, x_S, *g_grad(x_e, x_S), L)
        res = _stationarity_residual(ip, c_e, c_S, r_c)
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        mom = (theta - 1.0) / theta_next
        w_e = c_e + mom * (c_e - x_e)
        w_S = c_S + mom * (c_S - x_S)
        theta = theta_next
        x_e, x_S, fx = c_e, c_S, fc
        if res <= tol:
            break
        if it == polish_at:
            stalled = res > 0.5 * res_mark
            res_mark = res
            took = False
            polished = try_polish(x_e, x_S, fx, res)
            if polished is not None:
                rb, fb, b_e, b_S = polished
                # residual or value progress always accepted; a
                # value-matching face point only once plain progress has
                # stalled, since the jump resets momentum (tight value
                # cap so repeated jumps cannot drift f upward)
                took = rb < res or fb < fx - 1e-9 * (1.0 + abs(fx))
                # no benchmark workload takes the stalled branch; acceptance runs do
                if took or (stalled and rb <= 8.0 * res
                            and fb <= fx + 1e-12 * (1.0 + abs(fx))):
                    x_e, x_S, fx, res = b_e, b_S, fb, rb
                    w_e, w_S = x_e, x_S
                    theta = 1.0
            # unproductive attempts back off geometrically, rescues reset
            polish_gap = 20 if took else min(polish_gap * 2, 1280)
            polish_at = it + polish_gap
            if res <= tol:
                break

    info = InnerInfo(residual=float(res), iterations=it,
                     converged=bool(res <= tol))
    return float(x_e), symmetrize(a * x_S), info


def solve_inner_rank1(ip):
    """Exact minimizer for a width-1 bundle, as ``(eta, S, info)``.

    The feasible set is the triangle {eta >= 0, s >= 0, alpha*eta + s <=
    alpha}, and the face ladder from the origin enumerates all of it: the
    interior stationary point, the three edges and the vertices; the
    lowest value wins.
    """
    if ip.width != 1:
        raise ValueError(f"solve_inner_rank1 needs a width-1 bundle, got {ip.width}")
    a = ip.alpha
    E, S = _face_polish(ip, 0.0, np.zeros((1, 1)))
    F = _score(ip, E, S, -np.inf)[0].tolist()    # values only
    i = min(range(len(F)), key=F.__getitem__)
    e, Ss = E.tolist()[i], S[i]
    res = float(_stationarity_residual(ip, e, Ss))
    return e, a * Ss, InnerInfo(residual=res, iterations=0, converged=True)


@dataclass(eq=False)
class InnerSolution:
    """Subproblem output: weights, the candidate point, and the caches of
    the new primal candidate X = eta Xbar + V S V^T."""

    eta: float
    S: np.ndarray
    z: np.ndarray
    AX: np.ndarray
    CX: float
    tr: float
    value: float          # inner quadratic objective at (eta, S)
    model_at_z: float     # unregularized model evaluated at z
    residual: float
    inner_iters: int
    converged: bool
    ip: InnerProblem


def solve_subproblem(prob, agg, V, y, rho, warm=None, max_iter=5000):
    """Solve one bundle subproblem, exactly at width 1, by APG otherwise,
    and assemble the candidate z = y + (b - A(X)) / rho and the model value
    there, recovered from the inner optimum as -value - (rho/2) ||z - y||^2.
    """
    ip = InnerProblem.build(prob, agg, V, y, rho)
    eta, S, info = (solve_inner_rank1(ip) if ip.width == 1
                    else solve_inner_apg(ip, max_iter=max_iter, warm=warm))

    AX = eta * agg.AX + ip.apply(S)
    CX = eta * agg.CX + float(np.sum(S * ip.VCV))
    tr = eta * agg.tr + float(np.trace(S))
    z = ip.y + (prob.b - AX) / rho
    val = ip.value(eta, S)
    dz = z - ip.y
    model_at_z = -val - 0.5 * rho * float(dz @ dz)
    return InnerSolution(eta=eta, S=S, z=z, AX=AX, CX=CX, tr=tr,
                         value=val, model_at_z=model_at_z,
                         residual=info.residual, inner_iters=info.iterations,
                         converged=info.converged, ip=ip)
