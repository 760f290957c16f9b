"""Regularized bundle subproblem: projections, APG solver, closed forms.

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
X = eta Xbar + V S V^T.  The quadratic is solved exactly for a width-1
bundle and by accelerated projected gradient otherwise; the projection
onto S_t is spectral and reduces to a simplex-with-slack projection of
(eta, eigenvalues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.linalg.lapack import dsyevr, dsyevr_lwork

from .linops import symmetrize


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
    lwork, liwork = _syevr_work(A.shape[0])
    w, v, _, _, info = dsyevr(A, compute_v=1, lower=1, lwork=lwork, liwork=liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info={info}")
    return w, v


def project_simplex_hull(v):
    """Euclidean projection onto { x >= 0, sum(x) <= 1 }.

    Clamping negatives suffices when the clamped point already satisfies
    the sum constraint; otherwise the constraint is active and the
    problem reduces to the classical sort-based simplex projection.
    """
    v = np.asarray(v, dtype=float)
    w = np.maximum(v, 0.0)
    if w.sum() <= 1.0:
        return w
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    counts = np.arange(1, v.size + 1)
    support = np.nonzero(u - shifted / counts > 0.0)[0]
    k = support[-1]
    tau = shifted[k] / (k + 1)
    return np.maximum(v - tau, 0.0)


def project_psd_simplex_hull(eta0, S0):
    """Project (eta0, S0) onto { eta >= 0, S psd, eta + tr(S) <= 1 }.

    Spectral: the projection keeps the eigenbasis of S0 and jointly
    projects (eta0, eigenvalues) onto the nonnegative simplex hull.
    """
    S0 = symmetrize(np.atleast_2d(np.asarray(S0, dtype=float)))
    lam, Q = _eigh(S0)
    x = project_simplex_hull(np.concatenate([[float(eta0)], lam]))
    S = symmetrize((Q * x[1:]) @ Q.T)
    return float(x[0]), S


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

    def value(self, eta, S):
        r = self.residual_vec(eta, S)
        return (self.const + eta * self.c_eta + float(np.sum(S * self.G2))
                + 0.5 / self.rho * float(r @ r))

    def gradient(self, eta, S):
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


def _stationarity_residual(ip, e, Ss):
    """Distance moved by a unit-step projected gradient from the scaled
    point (e, Ss) = (eta, S/alpha); zero exactly at a minimizer."""
    a = ip.alpha
    ge, gS = ip.gradient(e, a * Ss)
    r_e, r_S = project_psd_simplex_hull(e - ge, Ss - a * gS)
    return np.sqrt((e - r_e) ** 2 + float(np.sum((Ss - r_S) ** 2)))


def _quadratic_lipschitz(ip, rel_tol=1e-3, max_iter=200, seed=0):
    """Largest curvature of the quadratic part in scaled variables
    (eta, S/alpha), estimated by power iteration on the Hessian."""
    a = ip.alpha
    rng = np.random.default_rng(seed)
    p = ip.width
    de = rng.standard_normal()
    dS = symmetrize(rng.standard_normal((p, p)))
    scale = np.sqrt(de * de + float(np.sum(dS * dS)))
    de, dS = de / scale, dS / scale
    lam = 0.0
    for _ in range(max_iter):
        # forward map into constraint space, then its adjoint, over rho
        r = de * ip.AX + a * ip.apply(dS)
        he = float(ip.AX @ r) / ip.rho
        hS = a * ip.adjoint(r) / ip.rho
        norm = np.sqrt(he * he + float(np.sum(hS * hS)))
        if norm == 0.0:
            return 0.0
        new = norm
        de, dS = he / norm, hS / norm
        if abs(new - lam) <= rel_tol * max(new, 1e-300):
            lam = new
            break
        lam = new
    return float(lam)


def _face_solves(H, rhs):
    """Truncated least-squares solve of H u = rhs (valley directions
    dropped) and the exact one (valley resolved when its minimizer is
    finite; the caller's projection rejects blowups).  When the truncated
    solve keeps full rank, gelsd truncates nothing under either cutoff and
    does the same arithmetic twice, so that one solution is returned."""
    u, _, rank, _ = np.linalg.lstsq(H, rhs, rcond=1e-10)
    if rank == H.shape[0]:
        return [u]
    return [u, np.linalg.lstsq(H, rhs, rcond=None)[0]]


def _face_candidates(ip, Qo, TFull, G2Full, keep, eta_free):
    """Stationary points of the quadratic restricted to one face.

    The face freezes eta at zero unless ``eta_free`` and restricts S to
    U W U^T with W a free symmetric block over U, the leading ``keep``
    columns of the rotated basis Qo; ``TFull``/``G2Full`` are the
    constraint and linear blocks already rotated into that basis, so
    each face only slices them.  Solved unconstrained (see
    ``_face_solves``; the design can carry nearly flat valleys) and once
    with the trace cap pinned as an equality.  Results are projected onto
    the feasible set, so a wrong face or an indefinite KKT solve is
    harmless.  Returns scaled (eta, S/alpha) pairs.
    """
    a = ip.alpha
    p = ip.width
    if keep == 0 and not eta_free:
        return [(0.0, np.zeros((p, p)))]
    iu, ju = np.triu_indices(keep)
    fac = np.where(iu == ju, 1.0, 2.0)
    cols = []
    lin = []
    tvec = []
    if eta_free:
        cols.append(ip.AX[:, None])
        lin.append([ip.c_eta])
        tvec.append([a])
    if keep:
        cols.append(TFull[:, iu, ju] * fac)
        lin.append(G2Full[iu, ju] * fac)
        tvec.append(np.where(iu == ju, 1.0, 0.0))
    D = np.concatenate(cols, axis=1)
    lin = np.concatenate(lin)
    tvec = np.concatenate(tvec)
    H = D.T @ D / ip.rho
    rhs = D.T @ ip.b / ip.rho - lin
    q = H.shape[0]
    U = Qo[:, :keep]

    def unpack(u):
        if not np.all(np.isfinite(u)):
            return None
        k = 0
        eta_new = 0.0
        if eta_free:
            eta_new = float(u[0])
            k = 1
        W = np.zeros((keep, keep))
        W[iu, ju] = u[k:]
        W = symmetrize(W + np.triu(W, 1).T)
        S_new = (U @ W) @ U.T if keep else np.zeros((p, p))
        return project_psd_simplex_hull(eta_new, S_new / a)

    out = []
    for u in _face_solves(H, rhs):
        if float(np.abs(u).max(initial=0.0)) > 1e10:
            continue
        cand = unpack(u)
        if cand is not None:
            out.append(cand)
    K = np.zeros((q + 1, q + 1))
    K[:q, :q] = H
    K[:q, q] = tvec
    K[q, :q] = tvec
    kr = np.concatenate([rhs, [a]])
    cand = unpack(np.linalg.lstsq(K, kr, rcond=1e-12)[0][:q])
    if cand is not None:
        out.append(cand)
    return out


def _face_polish(ip, e, Ss):
    """Exact QP candidates near a scaled iterate, over a ladder of faces.

    The right active face is not knowable from the iterate alone (slow
    manifold identification is exactly why plain projected gradients
    crawl here), so every prefix of the sorted eigenvalues is tried as
    the clamped set, each with eta free and, when eta is small, clamped
    too.  Candidate counts stay tiny because the bundle width is.
    """
    lam, Q = _eigh(symmetrize(Ss))
    order = np.argsort(lam)[::-1]      # descending, clamp suffixes
    p = lam.size
    Qo = Q[:, order]
    TFull = np.matmul(Qo.T, np.matmul(ip.T, Qo))
    G2Full = symmetrize(Qo.T @ ip.G2 @ Qo)
    out = []
    for keep in range(p, -1, -1):
        out += _face_candidates(ip, Qo, TFull, G2Full, keep, True)
        if e <= 0.5:
            out += _face_candidates(ip, Qo, TFull, G2Full, keep, False)
    return out


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
        return ip.value(e, a * Ss)

    def g_grad(e, Ss):
        de, dS = ip.gradient(e, a * Ss)
        return de, a * dS

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

    def pg_step(e, Ss, ge, gS, L):
        # backtracking: halve the step (double L) on failed descent check
        base = g_val(e, Ss)
        for _ in range(80):
            c_e, c_S = project_psd_simplex_hull(e - ge / L, Ss - gS / L)
            d_e, d_S = c_e - e, c_S - Ss
            quad = base + ge * d_e + float(np.sum(gS * d_S)) \
                + 0.5 * L * (d_e * d_e + float(np.sum(d_S * d_S)))
            fc = g_val(c_e, c_S)
            if fc <= quad + 1e-12 * (1.0 + abs(quad)):
                return c_e, c_S, fc, L
            L *= 2.0
        return c_e, c_S, fc, L

    def try_polish(e0, S0, f0, r0, cycles=4):
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
        for cycle in range(cycles):
            sel = None
            for p_e, p_S in _face_polish(ip, cur_e, cur_S):
                fp = g_val(p_e, p_S)
                if fp > f_cap:
                    continue
                rp = _stationarity_residual(ip, p_e, p_S)
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
        ge, gS = g_grad(w_e, w_S)
        c_e, c_S, fc, L = pg_step(w_e, w_S, ge, gS, L)
        if fc > fx:
            # momentum overshoot: restart from the best iterate
            theta = 1.0
            ge, gS = g_grad(x_e, x_S)
            c_e, c_S, fc, L = pg_step(x_e, x_S, ge, gS, L)
        res = _stationarity_residual(ip, c_e, c_S)
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


def _argmin_quad_1d(curv, slope, lo, hi):
    """Minimizer of curv*x^2 + slope*x on [lo, hi] (curv >= 0)."""
    if curv > 0.0:
        return float(np.clip(-slope / (2.0 * curv), lo, hi))
    return lo if slope >= 0.0 else hi


def solve_inner_rank1(ip):
    """Exact minimizer for a width-1 bundle.

    With S = [[s]] the feasible set is the triangle {eta >= 0, s >= 0,
    alpha*eta + s <= alpha}; the quadratic is minimized by comparing the
    unconstrained stationary point with the exact minimizers along the
    three edges (vertices are covered by clamping).
    """
    if ip.width != 1:
        raise ValueError(f"closed form needs a width-1 bundle, got {ip.width}")
    a = ip.alpha
    av = ip.T[:, 0, 0]                      # A(v v^T)
    Q11 = float(ip.AX @ ip.AX) / ip.rho
    Q22 = float(av @ av) / ip.rho
    Q12 = float(ip.AX @ av) / ip.rho
    p1 = ip.c_eta - float(ip.AX @ ip.b) / ip.rho
    p2 = float(ip.G2[0, 0]) - float(av @ ip.b) / ip.rho

    cands = []
    det = Q11 * Q22 - Q12 * Q12
    if det > 1e-14 * max(Q11 * Q22, 1.0):
        e = (-p1 * Q22 + p2 * Q12) / det
        s = (-p2 * Q11 + p1 * Q12) / det
        if e >= 0.0 and s >= 0.0 and a * e + s <= a:
            cands.append((e, s))
    # edge eta = 0, s in [0, alpha]
    cands.append((0.0, _argmin_quad_1d(0.5 * Q22, p2, 0.0, a)))
    # edge s = 0, eta in [0, 1]
    cands.append((_argmin_quad_1d(0.5 * Q11, p1, 0.0, 1.0), 0.0))
    # edge s = alpha * (1 - eta), eta in [0, 1]
    curv = 0.5 * Q11 + 0.5 * Q22 * a * a - Q12 * a
    slope = Q12 * a - Q22 * a * a + p1 - p2 * a
    e = _argmin_quad_1d(curv, slope, 0.0, 1.0)
    cands.append((e, a * (1.0 - e)))

    best = min(cands, key=lambda c: ip.value(c[0], np.array([[c[1]]])))
    return float(best[0]), float(best[1])


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
    """Solve one bundle subproblem and assemble the candidate point.

    Uses the exact closed form for width-1 bundles and APG otherwise.
    The candidate z satisfies the stationarity identity
    z = y + (b - A(X)) / rho by construction, and the model value at z is
    recovered from the inner optimum as  -value - (rho/2) ||z - y||^2.
    """
    ip = InnerProblem.build(prob, agg, V, y, rho)
    if ip.width == 1:
        eta, s = solve_inner_rank1(ip)
        S = np.array([[s]])
        res = float(_stationarity_residual(ip, eta, S / prob.alpha))
        info = InnerInfo(residual=res, iterations=0, converged=True)
    else:
        eta, S, info = solve_inner_apg(ip, max_iter=max_iter, warm=warm)

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
