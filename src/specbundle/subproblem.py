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
(eta, eigenvalues).

The projection and ``_score`` take stacks of points, a single point being
a stack of one, and agree bit for bit with the single-point operations,
since the outer trajectory amplifies last-bit changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.linalg.lapack import dgelsd, dgelsd_lwork

from .linops import DimensionError, _eigh, _syevr, symmetrize


def _simplex_hull_rows(X):
    """Row-wise Euclidean projection of a finite (c, k) array onto
    { x >= 0, sum(x) <= 1 }.

    Clamping negatives suffices for a row whose clamped copy already
    satisfies the sum constraint; otherwise the constraint is active and
    the row takes the classical sort-based simplex projection.
    """
    W = np.maximum(X, 0.0)
    over = W.sum(axis=1) > 1.0
    n_over = np.count_nonzero(over)
    if not n_over:
        return W
    U = np.sort(X, axis=1)[:, ::-1]
    shifted = U.cumsum(axis=1) - 1.0
    counts = np.arange(1, X.shape[1] + 1)
    # the last index of the support; in exact arithmetic the support
    # holds index 0, which is also the answer where rounding empties it
    k = ((U - shifted / counts > 0.0) * counts).argmax(axis=1)
    tau = shifted[np.arange(k.size), k] / counts[k]
    P = np.maximum(X - tau[:, None], 0.0)
    return P if n_over == len(X) else np.where(over[:, None], P, W)


def project_simplex_hull(v):
    """Euclidean projection onto { x >= 0, sum(x) <= 1 }."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("array must not contain infs or NaNs")
    return _simplex_hull_rows(v[None])[0]


def project_psd_simplex_hull(eta0, S0):
    """Project (eta0, S0) onto { eta >= 0, S psd, eta + tr(S) <= 1 }; a
    vector ``eta0`` of length c with a (c, p, p) stack ``S0`` gives the c
    projections as a vector and a stack, each bit for bit its own."""
    S0 = np.asarray(S0, dtype=float)
    if S0.ndim == 3:
        return _project_psd_stack(np.asarray(eta0, dtype=float), S0)
    eta, S = _project_psd_stack(np.array([float(eta0)]),
                                (S0 if S0.ndim == 2 else np.atleast_2d(S0))[None])
    return float(eta[0]), S[0]


def _project_psd_stack(eta0, S0):
    """The projection of each pair (eta0[i], S0[i]): one ``dsyevr`` call
    per matrix, then the simplex step and the rebuild over the stack."""
    c, p, q = S0.shape
    if p != q:
        raise DimensionError(f"expected square matrices, got shape {S0.shape}")
    pp = p * p
    # row i holds the symmetrized S0[i], then eta0[i] and the eigenvalues,
    # so one finiteness pass checks both inputs; X views the simplex rows
    B = np.empty((c, pp + 1 + p))
    S = B[:, :pp].reshape(c, p, p)
    np.add(S0, S0.transpose(0, 2, 1), out=S)
    S *= 0.5
    B[:, pp] = eta0
    if np.count_nonzero(np.isfinite(B[:, :pp + 1])) < c * (pp + 1):
        raise ValueError("array must not contain infs or NaNs")
    X = B[:, pp:]
    # each eigenbasis stays column-major, as dsyevr returns it, so the
    # rebuild hands BLAS the operand layouts of a single projection
    if c == 1:
        X[0, 1:], Q = _syevr(S[0])
        Q = Q[None]
    else:
        Q = np.empty((c, p, p)).transpose(0, 2, 1)
        for i in range(c):
            X[i, 1:], Q[i] = _syevr(S[i])
    X = _simplex_hull_rows(X)
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
        return (self.const + eta * self.c_eta + float(np.sum(S * self.G2))
                + 0.5 / self.rho * float(r @ r))

    def gradient(self, eta, S, r=None):
        if r is None:
            r = self.residual_vec(eta, S)
        d_eta = self.c_eta - float(self.AX @ r) / self.rho
        d_S = self.G2 - self.adjoint(r) / self.rho
        return d_eta, symmetrize(d_S)


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
    ge, gS = ip.gradient(e, a * Ss, r)
    r_e, r_S = project_psd_simplex_hull(e - ge, Ss - a * gS)
    return np.sqrt((e - r_e) ** 2 + float(np.sum((Ss - r_S) ** 2)))


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
    """``np.linalg.lstsq(H, rhs, rcond)[0]`` and the rank, bit for bit, for
    a square H: the same LAPACK driver (dgelsd), cutoff and workspace,
    without the wrapper's per-call argument handling.  ``rcond=None``
    means eps * order, as there."""
    n = H.shape[0]
    if rcond is None:
        rcond = np.finfo(float).eps * n
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    lwork, liwork = _gelsd_work(n)
    x, _, rank, info = dgelsd(H, rhs[:, None], lwork, liwork, rcond)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return x[:, 0], rank


def _face_solves(H, rhs):
    """Truncated least-squares solve of H u = rhs (valley directions
    dropped) and the exact one (valley resolved when its minimizer is
    finite; the caller's projection rejects blowups).  When the truncated
    solve keeps full rank, gelsd truncates nothing under either cutoff and
    does the same arithmetic twice, so that one solution is returned."""
    u, rank = _lstsq(H, rhs, 1e-10)
    if rank == H.shape[0]:
        return [u]
    return [u, _lstsq(H, rhs, None)[0]]


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


def _face_candidates(ip, U, DS, linS, eta_free):
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
    KKT solve is harmless.
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
    sols = [u for u in _face_solves(H, rhs)
            if not float(np.abs(u).max(initial=0.0)) > 1e10]
    K = np.zeros((q + 1, q + 1))
    K[:q, :q] = H
    K[:q, q] = tvec
    K[q, :q] = tvec
    sols.append(_lstsq(K, np.concatenate([rhs, [a]]), 1e-12)[0][:q])
    u = np.array([v for v in sols if np.isfinite(v).all()]).reshape(-1, q)
    W = np.zeros((len(u), keep, keep))
    # + 0.0 maps -0.0 to 0.0, as symmetrizing the mirrored triangle does
    W[:, iu, ju] = W[:, ju, iu] = u[:, int(eta_free):] + 0.0
    S = np.matmul(np.matmul(U, W), U.T) if keep else np.zeros((len(u), p, p))
    return (u[:, 0] if eta_free else np.zeros(len(u))), S / a


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


def _face_polish(ip, e, Ss):
    """Exact QP candidates near a scaled iterate, over a ladder of faces.

    The right active face is not knowable from the iterate alone (slow
    manifold identification is exactly why plain projected gradients
    crawl here), so every prefix of the sorted eigenvalues is tried as
    the clamped set, each with eta free and, when eta is small, clamped
    too.  Candidate counts stay tiny because the bundle width is.
    Returns the candidates as a vector of eta and a stack of S/alpha,
    all projected in one call but the origin (the eta-clamped face with
    nothing kept), which is feasible as it stands and comes last.
    """
    lam, Q = _eigh(symmetrize(Ss))
    order = np.argsort(lam)[::-1]      # descending, clamp suffixes
    p = lam.size
    Qo = Q[:, order]
    TFull = _rotated(ip.T, Qo)
    G2Full = symmetrize(Qo.T @ ip.G2 @ Qo)
    faces = []
    for keep in range(p, -1, -1):
        iu, ju, fac, _ = _svec_index(keep)
        U, DS, linS = Qo[:, :keep], TFull[:, iu, ju] * fac, G2Full[iu, ju] * fac
        faces.append(_face_candidates(ip, U, DS, linS, True))
        if e <= 0.5 and keep:
            faces.append(_face_candidates(ip, U, DS, linS, False))
    E, S = project_psd_simplex_hull(np.concatenate([f[0] for f in faces]),
                                    np.concatenate([f[1] for f in faces]))
    if e <= 0.5:
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

    def g_val(e, Ss, r=None):
        return ip.value(e, a * Ss, r)

    def g_grad(e, Ss):
        """Scaled gradient, and the residual it was computed from."""
        r = ip.residual_vec(e, a * Ss)
        de, dS = ip.gradient(e, a * Ss, r)
        return de, a * dS, r

    L = _quadratic_lipschitz(ip)
    L = max(L * 1.05, 1e-12)

    if warm is not None:
        eta_w, S_w = warm
        x_e, x_S = project_psd_simplex_hull(float(eta_w), np.asarray(S_w, dtype=float) / a)
    else:
        x_e, x_S = 1.0, np.zeros((p, p))
    fx = g_val(x_e, x_S)
    w_e, w_S = x_e, x_S
    theta = 1.0
    res = np.inf
    it = 0

    def pg_step(e, Ss, ge, gS, r, L):
        # backtracking: halve the step (double L) on failed descent check;
        # r is the residual at (e, Ss), returned alike for the new point
        base = g_val(e, Ss, r)
        for _ in range(80):
            c_e, c_S = project_psd_simplex_hull(e - ge / L, Ss - gS / L)
            d_e, d_S = c_e - e, c_S - Ss
            quad = base + ge * d_e + float(np.sum(gS * d_S)) \
                + 0.5 * L * (d_e * d_e + float(np.sum(d_S * d_S)))
            r_c = ip.residual_vec(c_e, a * c_S)
            fc = g_val(c_e, c_S, r_c)
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
            E, S = _face_polish(ip, cur_e, cur_S)
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
