"""Proximal bundle loop over the penalized dual, three bundle-update rules.

All variants share the same skeleton per iteration:

1. solve the regularized subproblem at the proximal center y, producing
   a candidate z and the maximizing primal pair (eta, S);
2. evaluate the true objective at z (the single eigensolve per iteration)
   and apply the descent test  F(z) <= F(y) - beta * (F(y) - model(z));
3. fold the iteration's primal candidate X = eta Xbar + V S V^T into the
   aggregate;
4. rebuild the bundle basis from the spectrum at z.

They differ only in steps 3 and 4:

* ``block``: the aggregate is replaced by X outright and the basis by the
  top eigenvectors at z (full spectral refresh).
* ``hr``: only the trailing eigenpart of S is folded into the aggregate;
  the basis keeps the leading eigenvectors of S (rotated through V) and
  appends one new top eigenvector at z.
* ``hybrid``: same split of S, but the basis appends the full set of top
  eigenvectors at z, so the width can reach hr_keep + rbar.

The aggregate matrix is stored rescaled to trace alpha (see model module)
so the recycled-cut certificates below stay inside the trace-capped set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linops import orthonormalize, symmetrize
from .model import (Aggregate, dual_objective, model_value,
                    objective_with_spectrum, simple_model_value, zero_aggregate)
from .sketch import sketch_init, sketch_reconstruct, sketch_scale, sketch_update
from .subproblem import solve_subproblem

_VARIANTS = ("block", "hr", "hybrid")
_TRACE_FLOOR = 1e-12


@dataclass
class SolverConfig:
    """Knobs of one solver run.

    hr_keep is the number of leading eigenvectors of S recycled into the
    next basis by the hr and hybrid rules; defaults to rbar - 1 so the hr
    bundle width settles at rbar.  target_gap stops the run once
        max(feas/(1+|b|), gap/(1+|<b,y>|), dual infeasibility)
    drops below it; 0 disables early stopping.
    """

    variant: str = "block"
    beta: float = 0.25
    rho: float = 1.0
    rbar: int = 1
    hr_keep: int | None = None
    max_iters: int = 200
    inner_max_iter: int = 5000
    storage: str = "explicit"
    sketch_rank: int | None = None
    target_gap: float = 0.0
    seed: int = 0
    check_invariants: bool = False

    def resolved_hr_keep(self):
        return self.rbar - 1 if self.hr_keep is None else self.hr_keep

    def validate(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {_VARIANTS}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"descent parameter must lie in (0,1), got {self.beta}")
        if not (self.rho > 0):
            raise ValueError(f"proximal weight must be positive, got {self.rho}")
        if self.rbar < 1:
            raise ValueError(f"bundle size must be at least 1, got {self.rbar}")
        keep = self.resolved_hr_keep()
        if not (0 <= keep <= self.rbar - 1):
            raise ValueError(f"hr_keep must lie in [0, rbar-1], got {keep}")
        if self.storage not in ("explicit", "compressed"):
            raise ValueError(f"unknown storage mode {self.storage!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
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
    """Intermediate quantities of one step, consumed by the runtime
    diagnostics and the tests; not part of the persisted trace."""

    sol: object
    F_z: float
    vals: np.ndarray
    vecs: np.ndarray
    V_prev: np.ndarray
    agg_new: Aggregate
    V_new: np.ndarray
    X_t: np.ndarray | None
    xt_sketch: object | None
    tr_raw: float
    Q1: np.ndarray | None
    lam_keep: np.ndarray | None


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
    sketch = None
    if cfg.storage == "compressed":
        sketch = sketch_init(prob.n, cfg.sketch_rank or cfg.rbar, cfg.seed)
    agg = zero_aggregate(prob, explicit=(cfg.storage == "explicit"), sketch=sketch)
    return BundleState(t=0, y=y0, z=y0.copy(), V=vecs, agg=agg,
                       F_y=F0, lam1_y=float(vals[0]))


def _finished_aggregate(prob, agg_prev, V, S_part, eta, AX, CX, tr, X):
    """Normalize the raw updated aggregate to trace alpha and push the
    same (scaled) update through the sketch."""
    alpha = prob.alpha
    if tr <= _TRACE_FLOOR * alpha:
        sk = sketch_scale(agg_prev.sketch, 0.0) if agg_prev.sketch is not None else None
        return zero_aggregate(prob, explicit=X is not None, sketch=sk)
    c = alpha / tr
    sk = None
    if agg_prev.sketch is not None:
        sk = sketch_update(agg_prev.sketch, eta * c, V, S_part * c)
    X_new = symmetrize(X) * c if X is not None else None
    return Aggregate(AX=AX * c, CX=CX * c, tr=alpha, X=X_new, sketch=sk)


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

    explicit = state.agg.X is not None
    X_t = None
    if explicit:
        X_t = symmetrize(sol.eta * state.agg.X + (V @ sol.S) @ V.T)
    xt_sketch = None
    if state.agg.sketch is not None:
        xt_sketch = sketch_update(state.agg.sketch, sol.eta, V, sol.S)

    Q1 = lam_keep = None
    if cfg.variant == "block":
        tr_raw = sol.tr
        agg_new = _finished_aggregate(prob, state.agg, V, sol.S, sol.eta,
                                      sol.AX, sol.CX, sol.tr, X_t)
        V_new = vecs[:, :min(cfg.rbar, prob.n)]
    else:
        lam, Q = scipy.linalg.eigh(symmetrize(sol.S))
        keep = min(cfg.resolved_hr_keep(), p)
        Q1, lam_keep = Q[:, p - keep:], lam[p - keep:]
        Q2, lam_rest = Q[:, :p - keep], lam[:p - keep]
        S_rest = symmetrize((Q2 * lam_rest) @ Q2.T)
        AX_raw = sol.eta * state.agg.AX + sol.ip.apply(S_rest)
        CX_raw = sol.eta * state.agg.CX + float(np.sum(S_rest * sol.ip.VCV))
        tr_raw = sol.eta * state.agg.tr + float(np.sum(lam_rest))
        X_raw = None
        if explicit:
            X_raw = sol.eta * state.agg.X + (V @ S_rest) @ V.T
        agg_new = _finished_aggregate(prob, state.agg, V, S_rest, sol.eta,
                                      AX_raw, CX_raw, tr_raw, X_raw)
        fresh = vecs[:, :1] if cfg.variant == "hr" else vecs[:, :min(cfg.rbar, prob.n)]
        V_new = orthonormalize(np.hstack([V @ Q1, fresh]))

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
    info = StepInfo(sol=sol, F_z=F_z, vals=vals, vecs=vecs, V_prev=V,
                    agg_new=agg_new, V_new=V_new, X_t=X_t, xt_sketch=xt_sketch,
                    tr_raw=tr_raw, Q1=Q1, lam_keep=lam_keep)
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
        return -prob.b + prob.alpha * prob.A.congruence(v1)[:, 0, 0]
    return -prob.b.copy()


def check_model_dominance(prob, info, rng, report):
    """At random probes y: the two-cut model stays below the refreshed
    aggregate model, which stays below the true objective."""
    z = info.sol.z
    g = subgradient_at(prob, float(info.vals[0]), info.vecs[:, 0])
    s = -prob.b + info.sol.AX
    scale_z = 1.0 + float(np.linalg.norm(z))
    for radius in _PROBE_RADII:
        d = rng.standard_normal(prob.m)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            continue
        y = z + radius * scale_z * d / nd
        sv = simple_model_value(info.F_z, g, s, info.sol.model_at_z, z, y)
        mv = model_value(prob, info.agg_new, info.V_new, y)
        fv = dual_objective(prob, y)
        scale = 1.0 + abs(fv)
        report.simple_minus_model = max(report.simple_minus_model, (sv - mv) / scale)
        report.model_minus_f = max(report.model_minus_f, (mv - fv) / scale)


def membership_certificates(prob, info):
    """Explicit (eta, S) pairs writing the iteration's primal candidate and
    the scaled top-eigenvector cut as members of the refreshed working set.

    Returns (reconstruction error, feasibility violation), both relative
    to alpha.  Requires explicit aggregate storage.
    """
    if info.X_t is None or info.agg_new.X is None:
        raise ValueError("membership certificates need explicit storage")
    alpha = prob.alpha
    Vn = info.V_new
    # candidate certificate: eta equals raw trace over alpha, S collects
    # whatever part of the subproblem maximizer was not folded into the
    # aggregate (zero for the block rule)
    eta_c = min(info.tr_raw / alpha, 1.0) if not info.agg_new.is_zero else 0.0
    if info.Q1 is None or info.Q1.shape[1] == 0:
        S_c = np.zeros((Vn.shape[1], Vn.shape[1]))
    else:
        P = Vn.T @ (info.V_prev @ info.Q1)
        S_c = symmetrize((P * info.lam_keep) @ P.T)
    recon = eta_c * info.agg_new.X + (Vn @ S_c) @ Vn.T
    err = float(np.linalg.norm(recon - info.X_t, "fro")) / alpha
    lam_min_S = float(scipy.linalg.eigh(S_c, eigvals_only=True,
                                        subset_by_index=[0, 0])[0]) if S_c.size else 0.0
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


def _update_invariants(prob, info, rng, report):
    check_model_dominance(prob, info, rng, report)
    if info.X_t is not None and info.agg_new.X is not None:
        err, feas = membership_certificates(prob, info)
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
    records: list
    state: BundleState
    primal: np.ndarray | None
    primal_factors: object | None
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
    state = init_state(prob, cfg, y0=y0)
    rng = np.random.default_rng(cfg.seed)
    norm_b = float(np.linalg.norm(prob.b))
    records = []
    warnings = []
    report = InvariantReport() if cfg.check_invariants else None
    max_norm_y = float(np.linalg.norm(state.y))
    primal = None
    primal_sketch = None
    last_X = None
    last_sketch = None
    stop_reason = "max_iters"
    for _ in range(cfg.max_iters):
        state, rec, info = step(prob, cfg, state)
        records.append(rec)
        if not info.sol.converged:
            warnings.append(
                f"iteration {rec.t}: inner solver stopped at its iteration cap "
                f"(residual {info.sol.residual:.3e})")
        if report is not None:
            _update_invariants(prob, info, rng, report)
        max_norm_y = max(max_norm_y, float(np.linalg.norm(state.y)))
        last_X, last_sketch = info.X_t, info.xt_sketch
        if rec.descent:
            if info.X_t is not None:
                primal = info.X_t
            if info.xt_sketch is not None:
                primal_sketch = info.xt_sketch
        if stopping_metric(rec, norm_b) <= cfg.target_gap:
            stop_reason = "target_gap"
            break
    if primal is None and primal_sketch is None and records:
        warnings.append("no descent step taken; reporting the last candidate primal")
        primal, primal_sketch = last_X, last_sketch
    factors = None
    if primal_sketch is not None:
        factors = sketch_reconstruct(primal_sketch)
    stats = RunStats(stop_reason=stop_reason, iterations=len(records),
                     descent_steps=state.descent_steps, max_norm_y=max_norm_y,
                     warnings=warnings, invariants=report)
    return RunResult(records=records, state=state, primal=primal,
                     primal_factors=factors, stats=stats)
