"""Proximal bundle loop over the penalized dual, one bundle-update rule.

Each iteration:

1. solve the regularized subproblem at the proximal center y, producing
   a candidate z and the maximizing primal pair (eta, S);
2. evaluate the true objective at z (the single eigensolve per iteration)
   and apply the descent test  F(z) <= F(y) - beta * (F(y) - model(z));
3. fold the iteration's primal candidate X = eta Xbar + V S V^T into the
   aggregate, except the part spanned by the r_p leading eigenvectors of S;
4. rebuild the bundle basis from those r_p vectors (rotated through V) and
   the r_c top eigenvectors at z.

This is the Helmberg-Rendl update; the variants are its settings:
``block`` is (r_p, r_c) = (0, rbar), a full spectral refresh in which the
whole candidate becomes the aggregate; ``hr`` is (rbar - 1, 1), so its
width settles at rbar; ``hybrid`` is (rbar - 1, rbar), so its width can
reach 2 rbar - 1.  At rbar = 1 all three recycle nothing.

The aggregate matrix is stored rescaled to trace alpha (see model module)
so the recycled-cut certificates below stay inside the trace-capped set.

Only the aggregate's caches A(Xbar), <C, Xbar>, tr(Xbar) move the iterates.
The primal record (``Aggregate.X``, ``StepInfo.X_t``) is output only: a
dense matrix, or its two-sided sketch in compressed storage, chosen once by
``init_state``, updated only by ``_record_update`` and rescaling, and
compared only by ``_record_distance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import _eigh, orthonormalize, recorded_fallbacks, symmetrize
from .model import (Aggregate, dual_objective, model_value,
                    objective_with_spectrum, simple_model_value, zero_aggregate)
from .sketch import (LowRankFactors, SketchState, sketch_init, sketch_reconstruct,
                     sketch_scale, sketch_update)
from .subproblem import solve_subproblem

_VARIANTS = ("block", "hr", "hybrid")
_TRACE_FLOOR = 1e-12


@dataclass
class SolverConfig:
    """Knobs of one solver run.

    sketch_rank is the reconstruction rank of compressed storage (default
    rbar); explicit storage takes none.  target_gap stops the run once
        max(feas/(1+|b|), gap/(1+|<b,y>|), dual infeasibility)
    drops below it; 0 disables early stopping.
    """

    variant: str = "block"
    beta: float = 0.25
    rho: float = 1.0
    rbar: int = 1
    max_iters: int = 200
    inner_max_iter: int = 5000
    storage: str = "explicit"
    sketch_rank: int | None = None
    target_gap: float = 0.0
    seed: int = 0
    check_invariants: bool = False

    def validate(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {_VARIANTS}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"descent parameter must lie in (0,1), got {self.beta}")
        if not (self.rho > 0):
            raise ValueError(f"proximal weight must be positive, got {self.rho}")
        if self.rbar < 1:
            raise ValueError(f"bundle size must be at least 1, got {self.rbar}")
        if self.storage not in ("explicit", "compressed"):
            raise ValueError(f"unknown storage mode {self.storage!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.inner_max_iter < 1:
            raise ValueError(f"inner_max_iter must be positive, got {self.inner_max_iter}")
        if self.sketch_rank is not None and self.storage != "compressed":
            raise ValueError("sketch_rank applies only to compressed storage")
        if self.sketch_rank is not None and self.sketch_rank < 1:
            raise ValueError(f"sketch_rank must be positive, got {self.sketch_rank}")
        return self


@dataclass
class IterationRecord:
    """One row of the solve trace.

    F_y is the reference objective at the start of the iteration, F_z the
    objective at the candidate, Fbar_z the model value there.  feas, pval
    and lammin describe the iteration's primal candidate and the updated
    reference point; gaps are the leading eigengaps of A* z - C.
    """

    t: int
    F_y: float
    F_z: float
    Fbar_z: float
    descent: bool
    feas: float
    lammin: float
    pval: float
    dval: float
    step: float
    gaps: tuple
    inner_res: float


@dataclass
class BundleState:
    t: int
    y: np.ndarray
    z: np.ndarray
    V: np.ndarray
    agg: Aggregate
    F_y: float
    lam1_y: float
    warm: tuple | None = None
    descent_steps: int = 0


@dataclass(eq=False)
class StepInfo:
    """What the runtime diagnostics and the tests need of one step beyond
    its trace record and new state: the top eigenpairs at z, the candidate's
    primal record X_t, the aggregate's raw trace, and the r_p recycled
    columns kept = V Q1 with their eigenvalues lam_keep (n x 0 and empty
    when nothing is recycled)."""

    sol: object
    vals: np.ndarray
    vecs: np.ndarray
    X_t: np.ndarray | SketchState
    tr_raw: float
    kept: np.ndarray
    lam_keep: np.ndarray


def is_descent_step(f_ref, f_cand, model_cand, beta):
    """Sufficient-decrease test against the model gap."""
    return f_cand <= f_ref - beta * (f_ref - model_cand)


def init_state(prob, cfg, y0=None):
    """Reference point, exploration point, bundle basis, zero aggregate."""
    m = prob.m
    y0 = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float).copy()
    if y0.shape != (m,):
        raise ValueError(f"initial point must have shape {(m,)}, got {y0.shape}")
    width = min(cfg.rbar, prob.n)
    F0, vals, vecs = objective_with_spectrum(prob, y0, width)
    X = None
    if cfg.storage == "compressed":
        X = sketch_init(prob.n, cfg.sketch_rank or cfg.rbar, cfg.seed)
    agg = zero_aggregate(prob, X)
    return BundleState(t=0, y=y0, z=y0.copy(), V=vecs, agg=agg,
                       F_y=F0, lam1_y=float(vals[0]))


def _record_update(X, scale, V, S):
    """The primal record of  scale * X + V S V^T  from the record X."""
    if isinstance(X, SketchState):
        return sketch_update(X, scale, V, S)
    return symmetrize(scale * X + (V @ S) @ V.T)


def _record_distance(X, Y):
    """Frobenius distance of two records, for sketches its estimate from the
    probes max(|dYc|_F/sqrt(k), |dYr|_F/sqrt(l)), as E|dX Psi|_F^2 = k|dX|_F^2."""
    if isinstance(X, SketchState):
        return max(float(np.linalg.norm(X.Yc - Y.Yc)) / X.k ** 0.5,
                   float(np.linalg.norm(X.Yr - Y.Yr)) / X.l ** 0.5)
    return float(np.linalg.norm(X - Y, "fro"))


def _finished_aggregate(prob, AX, CX, tr, X):
    """Normalize the raw updated aggregate, caches and record X, to trace
    alpha; below the trace floor it is reset to zero."""
    alpha = prob.alpha
    sketched = isinstance(X, SketchState)
    if tr <= _TRACE_FLOOR * alpha:
        return zero_aggregate(prob, sketch_scale(X, 0.0) if sketched else None)
    c = alpha / tr
    X = sketch_scale(X, c) if sketched else X * c
    return Aggregate(AX=AX * c, CX=CX * c, tr=alpha, X=X)


def step(prob, cfg, state):
    """One outer iteration from ``state``; returns (new state, trace
    record, step info)."""
    V = state.V
    p = V.shape[1]
    warm = state.warm
    if warm is not None and warm[1].shape[0] != p:
        warm = None
    sol = solve_subproblem(prob, state.agg, V, state.y, cfg.rho,
                           warm=warm, max_iter=cfg.inner_max_iter)
    z = sol.z
    k = min(cfg.rbar + 1, prob.n)
    F_z, vals, vecs = objective_with_spectrum(prob, z, k)
    descent = is_descent_step(state.F_y, F_z, sol.model_at_z, cfg.beta)

    X_t = _record_update(state.agg.X, sol.eta, V, sol.S)
    # (r_p, r_c): leading eigenvectors of S recycled, top ones at z appended
    r_p, r_c = {"block": (0, cfg.rbar), "hr": (cfg.rbar - 1, 1),
                "hybrid": (cfg.rbar - 1, cfg.rbar)}[cfg.variant]
    keep, fresh = min(r_p, p), vecs[:, :r_c]
    if keep == 0:
        # nothing recycled: the whole candidate becomes the aggregate
        kept, lam_keep, tr_raw = V[:, :0], np.zeros(0), sol.tr
        agg_new = _finished_aggregate(prob, sol.AX, sol.CX, sol.tr, X_t)
        V_new = fresh
    else:
        lam, Q = _eigh(sol.S)
        kept, lam_keep = V @ Q[:, p - keep:], lam[p - keep:]
        Q2, lam_rest = Q[:, :p - keep], lam[:p - keep]
        S_rest = symmetrize((Q2 * lam_rest) @ Q2.T)
        AX_raw = sol.eta * state.agg.AX + sol.ip.apply(S_rest)
        CX_raw = sol.eta * state.agg.CX + float(np.sum(S_rest * sol.ip.VCV))
        tr_raw = sol.eta * state.agg.tr + float(np.sum(lam_rest))
        X_raw = _record_update(state.agg.X, sol.eta, V, S_rest)
        agg_new = _finished_aggregate(prob, AX_raw, CX_raw, tr_raw, X_raw)
        V_new = orthonormalize(np.hstack([kept, fresh]))

    if descent:
        y_new, F_new, lam1_new = z, F_z, float(vals[0])
    else:
        y_new, F_new, lam1_new = state.y, state.F_y, state.lam1_y

    gaps = [float(vals[r] - vals[r + 1]) for r in range(min(cfg.rbar, vals.size - 1))]
    gaps += [0.0] * (cfg.rbar - len(gaps))
    rec = IterationRecord(
        t=state.t + 1,
        F_y=float(state.F_y),
        F_z=float(F_z),
        Fbar_z=float(sol.model_at_z),
        descent=bool(descent),
        feas=float(np.linalg.norm(prob.b - sol.AX)),
        lammin=float(-lam1_new),
        pval=float(sol.CX),
        dval=float(prob.b @ y_new),
        step=float(np.linalg.norm(z - state.y)),
        gaps=tuple(gaps),
        inner_res=float(sol.residual),
    )
    new_state = BundleState(t=state.t + 1, y=y_new, z=z, V=V_new, agg=agg_new,
                            F_y=F_new, lam1_y=lam1_new,
                            warm=(sol.eta, sol.S),
                            descent_steps=state.descent_steps + int(descent))
    info = StepInfo(sol=sol, vals=vals, vecs=vecs, X_t=X_t, tr_raw=tr_raw,
                    kept=kept, lam_keep=lam_keep)
    return new_state, rec, info


# ---------------------------------------------------------------------------
# runtime diagnostics: model dominance and recycled-cut membership
# ---------------------------------------------------------------------------

@dataclass
class InvariantReport:
    """Worst-case slacks across all checked iterations, each normalized
    by the natural scale of its inequality (objective scale for the model
    sandwich, alpha for the membership certificates)."""

    checked: int = 0
    simple_minus_model: float = -np.inf
    model_minus_f: float = -np.inf
    membership_err: float = 0.0
    membership_feas: float = 0.0

    def as_dict(self):
        return {
            "checked": self.checked,
            "simple_minus_model": float(self.simple_minus_model),
            "model_minus_f": float(self.model_minus_f),
            "membership_err": float(self.membership_err),
            "membership_feas": float(self.membership_feas),
        }


_PROBE_RADII = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 0.02, 0.5, 2.0)


def subgradient_at(prob, lam1, v1):
    """Subgradient of the penalized objective at a point with top slack
    eigenvalue lam1 and eigenvector v1 (zero eigenpart when lam1 <= 0)."""
    if lam1 > 0.0:
        return -prob.b + prob.alpha * prob.A.apply_outer(v1)
    return -prob.b.copy()


def check_model_dominance(prob, state, rec, info, rng, report):
    """At random probes y around the step's candidate: the two-cut model
    stays below the refreshed aggregate model of ``state``, which stays
    below the true objective.  Each probe's slack is built once, for
    both evaluations."""
    z = state.z
    g = subgradient_at(prob, float(info.vals[0]), info.vecs[:, 0])
    s = -prob.b + info.sol.AX
    scale_z = 1.0 + float(np.linalg.norm(z))
    for radius in _PROBE_RADII:
        d = rng.standard_normal(prob.m)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            continue
        y = z + radius * scale_z * d / nd
        sv = simple_model_value(rec.F_z, g, s, rec.Fbar_z, z, y)
        D = prob.dual_slack(y)
        mv = model_value(prob, state.agg, state.V, y, D)
        fv = dual_objective(prob, y, D)
        scale = 1.0 + abs(fv)
        report.simple_minus_model = max(report.simple_minus_model, (sv - mv) / scale)
        report.model_minus_f = max(report.model_minus_f, (mv - fv) / scale)


def membership_certificates(prob, state, info):
    """Explicit (eta, S) pairs writing the iteration's primal candidate and
    the scaled top-eigenvector cut as members of the refreshed working set
    (the aggregate and basis of the step's new ``state``); the candidate's
    is built by the step's own ``_record_update``, under either storage.
    Returns (reconstruction error, feasibility violation), both relative
    to alpha.
    """
    alpha = prob.alpha
    agg, Vn = state.agg, state.V
    # candidate certificate: eta equals raw trace over alpha, S collects
    # the recycled part of the subproblem maximizer (zero when r_p = 0)
    eta_c = min(info.tr_raw / alpha, 1.0) if not agg.is_zero else 0.0
    P = Vn.T @ info.kept
    S_c = symmetrize((P * info.lam_keep) @ P.T)
    recon = _record_update(agg.X, eta_c, Vn, S_c)
    err = _record_distance(recon, info.X_t) / alpha
    lam_min_S = float(_eigh(S_c)[0][0])
    feas = max(eta_c * alpha + float(np.trace(S_c)) - alpha, 0.0) / alpha
    feas = max(feas, max(-eta_c, 0.0), max(-lam_min_S, 0.0) / alpha)

    lam1 = float(info.vals[0])
    if lam1 > 0.0:
        v = info.vecs[:, 0]
        pvec = Vn.T @ v
        vhat = Vn @ pvec
        err_v = float(np.linalg.norm(np.outer(vhat, vhat) - np.outer(v, v), "fro"))
        err = max(err, err_v)
        feas = max(feas, max(float(pvec @ pvec) - 1.0, 0.0))
    return err, feas


def _update_invariants(prob, state, rec, info, rng, report):
    check_model_dominance(prob, state, rec, info, rng, report)
    err, feas = membership_certificates(prob, state, info)
    report.membership_err = max(report.membership_err, err)
    report.membership_feas = max(report.membership_feas, feas)
    report.checked += 1


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class RunStats:
    stop_reason: str
    iterations: int
    descent_steps: int
    max_norm_y: float
    warnings: list
    invariants: InvariantReport | None = None


@dataclass(eq=False)
class RunResult:
    """``run``'s output.  primal is the last descent step's primal candidate
    (the last step's when none descended): a dense array, or under
    compressed storage the sketch's ``LowRankFactors`` reconstruction."""

    records: list
    state: BundleState
    primal: np.ndarray | LowRankFactors
    stats: RunStats


def stopping_metric(rec, norm_b):
    """max of scaled primal infeasibility, scaled primal-dual gap, and
    dual infeasibility of the current reference point."""
    return max(rec.feas / (1.0 + norm_b),
               abs(rec.dval - rec.pval) / (1.0 + abs(rec.dval)),
               max(-rec.lammin, 0.0))


def run(prob, cfg, y0=None):
    """Drive one bundle solve to its iteration or accuracy budget."""
    cfg.validate()
    warnings = []
    with recorded_fallbacks(warnings, "iteration 0"):
        state = init_state(prob, cfg, y0=y0)
    rng = np.random.default_rng(cfg.seed)
    norm_b = float(np.linalg.norm(prob.b))
    records = []
    report = InvariantReport() if cfg.check_invariants else None
    max_norm_y = float(np.linalg.norm(state.y))
    primal = last = None
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        with recorded_fallbacks(warnings, f"iteration {state.t + 1}"):
            state, rec, info = step(prob, cfg, state)
            if report is not None:
                _update_invariants(prob, state, rec, info, rng, report)
        records.append(rec)
        if not info.sol.converged:
            warnings.append(
                f"iteration {rec.t}: inner solver stopped at its iteration cap "
                f"(residual {info.sol.residual:.3e})")
        max_norm_y = max(max_norm_y, float(np.linalg.norm(state.y)))
        last = info.X_t
        if rec.descent:
            primal = info.X_t
        if stopping_metric(rec, norm_b) <= cfg.target_gap:
            stop_reason = "target_gap"
            break
    if primal is None and records:
        warnings.append("no descent step taken; reporting the last candidate primal")
        primal = last
    if isinstance(primal, SketchState):
        primal = sketch_reconstruct(primal)
    stats = RunStats(stop_reason=stop_reason, iterations=len(records),
                     descent_steps=state.descent_steps, max_norm_y=max_norm_y,
                     warnings=warnings, invariants=report)
    return RunResult(records=records, state=state, primal=primal, stats=stats)
