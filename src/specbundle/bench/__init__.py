"""Benchmark harness: problem builders, references, metrics, run
verification, trace persistence, and the command-line front end."""

from .problems import (CompletionInstance, GraphInstance, ParseError,
                       build_completion, build_maxcut, embed_completion,
                       gen_completion, gen_er_graph, read_gset,
                       read_observations, triangle_graph)
from .reference import (ReferenceValues, completion_reference,
                        maxcut_factor_ascent, maxcut_reference, numerical_rank)
from .metrics import MetricsReport, compute_metrics, metrics_from_run
from .verify import (CheckResult, VerifyReport, check_descent_bounds,
                     check_recorded_invariants, check_spectral_accuracy,
                     sample_gapped_matrix, spectral_truncation_gap, verify_run)
from .traceio import (TraceFormatError, read_summary, read_trace,
                      summary_dict, trace_header, write_summary, write_trace)

__all__ = [
    "CheckResult", "CompletionInstance", "GraphInstance", "MetricsReport",
    "ParseError", "ReferenceValues", "TraceFormatError", "VerifyReport",
    "build_completion", "build_maxcut", "check_descent_bounds",
    "check_recorded_invariants", "check_spectral_accuracy",
    "completion_reference", "compute_metrics", "embed_completion",
    "gen_completion", "gen_er_graph",
    "maxcut_factor_ascent", "maxcut_reference", "metrics_from_run",
    "numerical_rank", "read_gset", "read_observations", "read_summary",
    "read_trace", "sample_gapped_matrix", "spectral_truncation_gap",
    "summary_dict", "trace_header", "triangle_graph", "verify_run",
    "write_summary", "write_trace",
]
