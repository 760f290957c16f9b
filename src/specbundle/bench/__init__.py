"""Benchmark harness: problem builders, references and metrics, run
verification, trace persistence, and the command-line front end.

The package exports what the acceptance gate and the benchmark use; the
other helpers stay in their modules (``problems``, ``reference``,
``verify``, ``traceio``, ``cli``)."""

from .problems import build_completion, build_maxcut, gen_completion, gen_er_graph
from .reference import ReferenceValues, completion_reference, maxcut_reference
from .verify import (check_descent_bounds, check_recorded_invariants,
                     check_spectral_accuracy, verify_run)
from .traceio import TraceFormatError, summary_dict, write_summary, write_trace

__all__ = [
    "ReferenceValues", "TraceFormatError", "build_completion", "build_maxcut",
    "check_descent_bounds", "check_recorded_invariants",
    "check_spectral_accuracy", "completion_reference", "gen_completion",
    "gen_er_graph", "maxcut_reference", "summary_dict", "verify_run",
    "write_summary", "write_trace",
]
