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

from dataclasses import asdict, dataclass, fields

import numpy as np


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
        ValueError when ``d`` is not a mapping, lacks a field or holds a
        field of the wrong type (booleans are not numbers here)."""
        if not isinstance(d, dict):
            raise ValueError(f"reference values must be a JSON object, "
                             f"got {type(d).__name__}")
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in d]
        if missing:
            raise ValueError(f"reference values lack {', '.join(missing)}")
        for name, (kinds, what) in _FIELD_TYPES.items():
            v = d[name]
            if isinstance(v, bool) or not isinstance(v, kinds):
                raise ValueError(f"reference value {name} must be {what}, got {v!r}")
        return cls(**{n: d[n] for n in names})


# the JSON types each field of ReferenceValues accepts
_NUMBER = ((int, float), "a number")
_FIELD_TYPES = {"d_star": _NUMBER, "p_star": _NUMBER, "nuc": _NUMBER,
                "rank": (int, "an integer"), "provenance": (str, "a string")}


def maxcut_factor_ascent(L, factor_rank=None, sweeps=4000, tol=1e-13, seed=0):
    """Maximize <L, R R^T> over unit rows of R by cyclic row updates.

    Each row update is the exact maximizer with the others fixed, so the
    objective is monotone; with the factor rank above the barrier
    sqrt(2n) the landscape has no spurious local maxima in practice and
    the iteration converges to the SDP optimum.  Returns (R, value).
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    r = int(np.ceil(np.sqrt(2.0 * n))) + 2 if factor_rank is None else int(factor_rank)
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
        if shift < tol:
            break
    value = float(np.sum((L @ R) * R))
    return R, value


def numerical_rank(X, rel_tol=1e-6):
    vals = np.linalg.eigvalsh(X)
    top = float(vals.max())
    if top <= 0.0:
        return 0
    return int(np.sum(vals > rel_tol * top))


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
