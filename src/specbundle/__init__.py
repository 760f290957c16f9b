"""Spectral bundle solvers for semidefinite programs in penalized dual form.

The package exports what a solve needs; everything else (``step``,
``StepInfo``, the bundle models, the eigensolver and the inner QP's
internals) lives in its own module under its own name.
"""

from .linops import ConstraintMap, DimensionError, RankError
from .model import SdpProblem
from .subproblem import project_simplex_hull, solve_inner_apg, solve_subproblem
from .bundle import IterationRecord, RunResult, SolverConfig, run
from .sketch import (LowRankFactors, sketch_init, sketch_reconstruct,
                     sketch_scale, sketch_update)

__version__ = "0.1.0"

__all__ = [
    "ConstraintMap", "DimensionError", "IterationRecord", "LowRankFactors",
    "RankError", "RunResult", "SdpProblem", "SolverConfig",
    "project_simplex_hull", "run", "sketch_init", "sketch_reconstruct",
    "sketch_scale", "sketch_update", "solve_inner_apg", "solve_subproblem",
]
