"""Spectral bundle solvers for semidefinite programs in penalized dual form."""

from .linops import (ConstraintMap, DimensionError, RankError, orthonormalize,
                     symmetrize, top_eigs)
from .model import (Aggregate, SdpProblem, dual_objective, model_value,
                    objective_with_spectrum, simple_model_value, zero_aggregate)
from .subproblem import (InnerProblem, InnerSolution, project_psd_simplex_hull,
                         project_simplex_hull, solve_inner_apg, solve_inner_rank1,
                         solve_subproblem)
from .bundle import (BundleState, InvariantReport, IterationRecord, RunResult,
                     SolverConfig, init_state, is_descent_step,
                     membership_certificates, run, step, stopping_metric)
from .sketch import (LowRankFactors, SketchState, gaussian_matrix, sketch_init,
                     sketch_reconstruct, sketch_scale, sketch_update)

__version__ = "0.1.0"

__all__ = [
    "Aggregate", "BundleState", "ConstraintMap", "DimensionError",
    "InnerProblem", "InnerSolution", "InvariantReport", "IterationRecord",
    "LowRankFactors", "RankError", "RunResult", "SdpProblem", "SketchState",
    "SolverConfig", "dual_objective", "gaussian_matrix", "init_state",
    "is_descent_step", "membership_certificates", "model_value",
    "objective_with_spectrum", "orthonormalize", "project_psd_simplex_hull",
    "project_simplex_hull", "run", "simple_model_value", "sketch_init",
    "sketch_reconstruct", "sketch_scale", "sketch_update", "solve_inner_apg",
    "solve_inner_rank1", "solve_subproblem", "step", "stopping_metric",
    "symmetrize", "top_eigs", "zero_aggregate",
]
