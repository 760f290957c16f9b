"""Runtime verification of the solver's structural guarantees.

Checked from a finished trace plus reference values:

* primal feasibility bound: at every descent step,
  ||b - A(X)||^2 <= (2 rho / beta) (F(y) - F*);
* dual feasibility bound: lambda_min(C - A* y') >= -(F(y) - F*) / D for
  the updated reference point, D the reference solution's nuclear norm
  (valid once alpha >= 2 D);
* primal-dual gap bracket:
  -( (1-beta)/beta ) (F(y) - F*) - sqrt((2 rho / beta)(F(y) - F*)) D_y
     <= <b, y'> - <C, X>
     <= (alpha / D)(F(y) - F*) + sqrt((2 rho / beta)(F(y) - F*)) D_y,
  with D_y the largest reference-point norm along the run;
* model dominance and recycled-cut membership slacks, recorded live by
  the solver (they need model state a trace does not retain);
* spectral model accuracy: for X with eigengap delta at cut r and any
  symmetric Y within Frobenius distance delta,
  0 <= max(lam_1(Y), 0) - max(lam_1(V^T Y V), 0)
    <= 8 ||Y-X||_F^2 Lam / delta^2 + (8 sqrt(2) + 16) ||Y-X||_F^2 / delta,
  where V spans the top-r eigenvectors of X and Lam bounds the residual
  spectrum; globally the difference is at most 2 ||X-Y||_op.

Every check has a fixed limit: ``_DESCENT_TOL`` on the normalized descent-step
slacks, ``_INVARIANT_LIMITS`` on the recorded ones, 1e-9 on the spectral ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ..linops import symmetrize, top_eigs


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float        # most adverse normalized slack seen (<= 0 is clean)
    count: int
    note: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.note})" if self.note else ""
        return f"{status} {self.name}: worst slack {self.worst:.3e} over {self.count} checks{extra}"


@dataclass
class VerifyReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]


def _relslack(lhs, rhs):
    """Normalized violation of lhs <= rhs."""
    return (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


# the per-descent-step bounds, in the order of the slacks each row yields,
# and the largest normalized slack any of them may reach
_DESCENT_BOUNDS = ("primal feasibility bound", "dual feasibility bound",
                   "gap upper bound", "gap lower bound")
_DESCENT_TOL = 1e-6


def check_descent_bounds(records, refs, rho, beta, alpha, d_y):
    """The bounds of ``_DESCENT_BOUNDS`` at each descent step, from trace
    rows and references."""
    f_star, D = refs.d_star, refs.nuc
    rows = []
    for rec in records:
        if not rec.descent:
            continue
        drop = max(rec.F_y - f_star, 0.0)
        budget = np.sqrt(2.0 * rho / beta * drop)
        gap = rec.dval - rec.pval
        rows.append((_relslack(rec.feas ** 2, 2.0 * rho / beta * drop),
                     _relslack(-drop / D - rec.lammin, 0.0),
                     _relslack(gap, alpha / D * drop + budget * d_y),
                     _relslack(-(1.0 - beta) / beta * drop - budget * d_y, gap)))
    if not rows:
        return [CheckResult(name, True, -np.inf, 0, "no descent steps") for name in _DESCENT_BOUNDS]
    note = "" if alpha >= 2.0 * D - 1e-9 else "penalty below twice the solution nuclear norm"
    out = []
    for name, slacks in zip(_DESCENT_BOUNDS, zip(*rows)):
        # a NaN slack fails its bound; max() alone would skip it
        w = np.nan if np.isnan(slacks).any() else max(slacks)
        extra = note if name == "dual feasibility bound" else ""
        out.append(CheckResult(name, bool(w <= _DESCENT_TOL), float(w), len(rows), extra))
    return out


# (check name, recorded InvariantReport field, largest slack it may reach)
_INVARIANT_LIMITS = (
    ("model dominance (two-cut vs aggregate)", "simple_minus_model", 1e-8),
    ("model dominance (aggregate vs objective)", "model_minus_f", 1e-7),
    ("recycled-cut membership (reconstruction)", "membership_err", 1e-8),
    ("recycled-cut membership (feasibility)", "membership_feas", 1e-8),
)


def check_recorded_invariants(invariants):
    """Turn the solver's live dominance/membership slacks into checks,
    each against its limit in ``_INVARIANT_LIMITS``; each fails when the
    run recorded no checked step."""
    if not invariants:
        return [CheckResult("model dominance", False, np.inf, 0,
                            "run carried no invariant telemetry")]
    checked = int(invariants.get("checked", 0))
    note = "" if checked else "no checks ran"
    return [CheckResult(name, bool(checked and invariants[key] <= limit),
                        float(invariants[key]), checked, note)
            for name, key, limit in _INVARIANT_LIMITS]


# ---------------------------------------------------------------------------
# spectral model accuracy property
# ---------------------------------------------------------------------------

def spectral_truncation_gap(X, Y, r):
    """max(lam_1(Y), 0) minus its maximization restricted to the top-r
    eigenspace of X; the quantity the accuracy bound controls."""
    _, V = top_eigs(np.asarray(X, dtype=float), r)
    full = max(float(np.linalg.eigvalsh(Y).max()), 0.0)
    B = symmetrize(V.T @ Y @ V)
    compressed = max(float(np.linalg.eigvalsh(B).max()), 0.0)
    return full - compressed


def sample_gapped_matrix(rng, n, r, delta):
    """Random symmetric X whose spectrum has the exact gap delta at cut r."""
    Q, _ = scipy.linalg.qr(rng.standard_normal((n, n)))
    vals = np.sort(rng.normal(scale=2.0, size=n))[::-1]
    # push the tail down so vals[r-1] - vals[r] == delta exactly
    tail_shift = vals[r - 1] - delta - vals[r]
    vals[r:] += tail_shift
    return symmetrize((Q * vals) @ Q.T), vals


def check_spectral_accuracy(samples=200, seed=0):
    """Property check of the truncation-gap bounds on random instances.

    Draws (X, Y, r, delta) with order 3 to 16 and ||Y - X||_F <= delta,
    and verifies the two-sided Frobenius bound plus the global
    operator-norm bound, each to slack 1e-9.
    """
    rng = np.random.default_rng(seed)
    worst_low = -np.inf
    worst_up = -np.inf
    worst_op = -np.inf
    for _ in range(samples):
        n = int(rng.integers(3, 17))
        r = int(rng.integers(1, n))
        delta = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        X, vals = sample_gapped_matrix(rng, n, r, delta)
        E = symmetrize(rng.standard_normal((n, n)))
        E *= rng.uniform(0.05, 1.0) * delta / np.linalg.norm(E, "fro")
        Y = X + E
        dist2 = float(np.linalg.norm(Y - X, "fro")) ** 2
        lam_resid = max(abs(vals[r]), abs(vals[-1]))
        bound = 8.0 * dist2 * lam_resid / delta ** 2 + (8.0 * np.sqrt(2.0) + 16.0) * dist2 / delta
        gap = spectral_truncation_gap(X, Y, r)
        worst_low = max(worst_low, -gap)
        worst_up = max(worst_up, gap - bound)
        op = 2.0 * float(np.linalg.norm(Y - X, 2))
        worst_op = max(worst_op, abs(gap) - op)
    out = [
        CheckResult("spectral accuracy (nonnegativity)", bool(worst_low <= 1e-9),
                    float(worst_low), samples),
        CheckResult("spectral accuracy (gap bound)", bool(worst_up <= 1e-9),
                    float(worst_up), samples),
        CheckResult("spectral accuracy (operator bound)", bool(worst_op <= 1e-9),
                    float(worst_op), samples),
    ]
    return out


def verify_run(records, refs, rho, beta, alpha, d_y, invariants=None, samples=200):
    """Full verification of a finished run; see module docstring.  Every
    argument but the spectral sample size is the run's own."""
    rep = VerifyReport()
    rep.checks += check_descent_bounds(records, refs, rho, beta, alpha, d_y)
    rep.checks += check_recorded_invariants(invariants)
    rep.checks += check_spectral_accuracy(samples=samples)
    return rep
