"""Reference optima for gap reporting.

Two sources, recorded with provenance:

* closed forms where the construction supplies one (synthetic completion:
  the embedded ground truth is optimal with value -2 ||M||_*),
* an independent primal oracle for max-cut: row-normalized factorized
  coordinate ascent (the mixing method) over X = R R^T with unit rows.
  Every iterate is exactly feasible for the relaxation, so the value is a
  rigorous lower bound on the SDP optimum and the reported gaps of a dual
  method can only be overestimated, never flattered.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..linops import INTEGER, NONNEGATIVE, OBJECT, POSITIVE, REAL, STRING, check_field


@dataclass
class ReferenceValues:
    """Optimal-value references for one instance.

    d_star: optimal penalized dual value, equal to <-b, y*> = <-C, X*>.
    p_star: <C, X*>, the sign convention primal metrics are quoted in.
    nuc:    nuclear norm of the reference primal solution.
    rank:   its numerical rank.
    provenance: how the numbers were produced.
    """

    d_star: float
    p_star: float
    nuc: float
    rank: int
    provenance: str

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; unknown keys are ignored.  Raises
        ValueError when ``d`` is not a mapping, lacks a field or holds one
        that breaks its rule in ``_REFERENCE_RULES``."""
        check_field("reference values", d, OBJECT)
        missing = [n for n in _REFERENCE_RULES if n not in d]
        if missing:
            raise ValueError(f"reference values lack {', '.join(missing)}")
        for name, rule in _REFERENCE_RULES.items():
            check_field(f"reference value {name}", d[name], *rule)
        return cls(**{n: d[n] for n in _REFERENCE_RULES})


# each ReferenceValues field's rule, (kind, test, want) as ``check_field`` takes them
_REFERENCE_RULES = {"d_star": (REAL,), "p_star": (REAL,), "nuc": (REAL, *POSITIVE),
                    "rank": (INTEGER, *NONNEGATIVE), "provenance": (STRING,)}


def rel_gap(value, star):
    """``(value - star) / |star|``, or ``value - star`` when ``star`` is 0."""
    return (float(value) - star) / (abs(star) if star != 0.0 else 1.0)


def compute_metrics(F_y, primal_value, feas_norm, b_norm, refs):
    """The summary's ``metrics`` object: the accuracy of a final dual
    point and primal candidate against ``refs``.

    dual_opt:    (F(y) - d*) / |d*|, nonnegative up to reference error.
    primal_opt:  |<C, X> - p*| / |p*|, with ``primal_value`` = <C, X>.
    primal_feas: ||A(X) - b|| / ||b||, with ``feas_norm`` = ||A(X) - b||.

    Each denominator is 1 when its reference value or ||b|| is zero; the
    object also echoes d*, p* and the references' provenance.
    """
    return {
        "dual_opt": rel_gap(F_y, refs.d_star),
        "primal_opt": abs(rel_gap(primal_value, refs.p_star)),
        "primal_feas": float(feas_norm) / (b_norm if b_norm > 0.0 else 1.0),
        "d_star": refs.d_star,
        "p_star": refs.p_star,
        "provenance": refs.provenance,
    }


def maxcut_factor_ascent(L, sweeps=4000, seed=0):
    """Maximize <L, R R^T> over unit rows of R by cyclic row updates.

    Each row update is the exact maximizer with the others fixed, so the
    objective is monotone; with the factor rank ceil(sqrt(2n)) + 2, above
    the barrier sqrt(2n), the landscape has no spurious local maxima in
    practice and the iteration converges to the SDP optimum.  Stops early
    once a sweep moves no entry by 1e-13.  Returns (R, value).
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    r = int(np.ceil(np.sqrt(2.0 * n))) + 2
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, r))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    for _ in range(sweeps):
        shift = 0.0
        for i in range(n):
            g = L[i] @ R - L[i, i] * R[i]
            ng = np.linalg.norm(g)
            if ng <= 1e-300:
                continue
            new = g / ng
            shift = max(shift, float(np.abs(new - R[i]).max()))
            R[i] = new
        if shift < 1e-13:
            break
    value = float(np.sum((L @ R) * R))
    return R, value


def numerical_rank(X):
    """Count of eigenvalues above 1e-6 of the largest (0 unless it is positive)."""
    vals = np.linalg.eigvalsh(X)
    top = float(vals.max())
    if top <= 0.0:
        return 0
    return int(np.sum(vals > 1e-6 * top))


def maxcut_reference(g, sweeps=4000, seed=0):
    """Reference values for a max-cut instance from the factor oracle.

    The oracle value lower-bounds the SDP optimum; any feasible X has
    trace n, fixing the nuclear norm.
    """
    L = g.laplacian()
    R, value = maxcut_factor_ascent(L, sweeps=sweeps, seed=seed)
    X = R @ R.T
    return ReferenceValues(
        d_star=value,
        p_star=-value,
        nuc=float(g.n),
        rank=numerical_rank(X),
        provenance=(f"factor coordinate ascent, {sweeps} sweep budget, seed {seed}"),
    ), X


def completion_reference(inst):
    """Closed-form references for a synthetic completion instance.

    The embedded matrix [[M, M], [M, M]] is feasible and optimal with
    high probability for Bernoulli sampling at the generated density, so
    the dual optimum is -2 ||M||_* and the solution nuclear norm 2 ||M||_*.
    """
    nuc = inst.nuclear_norm()
    rank = int(np.linalg.matrix_rank(np.asarray(inst.factors, dtype=float)))
    return ReferenceValues(
        d_star=-2.0 * nuc,
        p_star=2.0 * nuc,
        nuc=2.0 * nuc,
        rank=rank,
        provenance="closed form from the planted factorization",
    )
