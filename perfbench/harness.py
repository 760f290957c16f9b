"""Timed solves, the per-solve correctness gate and the run's figures.

A timed solve takes one ``perf_counter`` per outer step (by wrapping
``bundle.stopping_metric``, which ``run`` calls once at the end of every
step) and no other instrumentation.  A traced solve additionally routes
the layer calls through a ``tracing.Tracer``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import specbundle.bundle as bundle
from specbundle.bench import check_descent_bounds, check_recorded_invariants

import tracing
from workloads import set_up

SETUP_REPEATS = 5

END_TO_END = {
    "time_to_gap_s": "s",
    "iters_to_gap": "count",
    "solve_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "subproblem.s": "s",
    "subproblem.build_s": "s",
    "linops.congruence_s": "s",
    "subproblem.inner_s": "s",
    "subproblem.inner_iters": "count",
    "subproblem.inner_iters_max": "count",
    "subproblem.capped": "count",
    "subproblem.hull_proj_calls": "count",
    "subproblem.hull_proj_s": "s",
    "model.objective_s": "s",
    "model.objective_calls": "count",
    "linops.top_eigs_s": "s",
    "linops.top_eigs_calls": "count",
    "linops.slack_s": "s",
    "linops.slack_bytes": "B",
    "diag.s": "s",
    "diag.dominance_s": "s",
    "diag.membership_s": "s",
    "diag.objective_calls": "count",
    "sketch.update_calls": "count",
    "sketch.update_s": "s",
    "sketch.reconstruct_s": "s",
    "sketch.bytes": "B",
    "bundle.step_ms": "ms",
    "bundle.self_s": "s",
    "bundle.descent_ratio": "ratio",
    "bundle.width_mean": "count",
    "setup.build_s": "s",
    "setup.ref_load_s": "s",
    "verify.s": "s",
    "traceio.write_s": "s",
    "traceio.bytes": "B",
    "trace.overhead_pct": "%",
}

# counts a seeded solve reproduces exactly; any solve that disagrees with
# the others of its run fails
EXACT_COUNTS = ("iterations", "iters_to_gap",
                "subproblem.inner_iters", "subproblem.hull_proj_calls")


@dataclass(eq=False)
class Outcome:
    """One solve: its figures, and the reason it failed, if it did."""

    traced: bool
    solve_s: float
    figures: dict = field(default_factory=dict)
    failure: str | None = None
    trace: tracing.Tracer | None = None


def first_crossing(records, d_star, threshold):
    """Index of the first step whose updated reference point has relative
    gap (F_y - d*)/|d*| at or below ``threshold``, or None."""
    denom = abs(d_star) if d_star != 0.0 else 1.0
    for i, rec in enumerate(records):
        f_ref = rec.F_z if rec.descent else rec.F_y
        if (f_ref - d_star) / denom <= threshold:
            return i
    return None


def timed_run(prob, cfg):
    """``bundle.run`` with a timestamp at the end of each outer step.
    Returns (result, start, end, step_end_times)."""
    marks = []
    inner = bundle.stopping_metric

    def mark(rec, norm_b):
        marks.append(time.perf_counter())
        return inner(rec, norm_b)

    bundle.stopping_metric = mark
    try:
        t0 = time.perf_counter()
        result = bundle.run(prob, cfg)
        t1 = time.perf_counter()
    finally:
        bundle.stopping_metric = inner
    return result, t0, t1, marks


def gate(wl, setup, cfg, result):
    """Reasons the solve fails the correctness gate (empty when it passes),
    and the index of its gap crossing."""
    problems = []
    values = [r.F_y for r in result.records] + [result.state.F_y]
    if not result.records or not all(math.isfinite(v) for v in values):
        problems.append("non-finite F_y")
    k = first_crossing(result.records, setup.refs.d_star, wl.gap)
    if k is None:
        problems.append(f"gap {wl.gap:g} not reached in {len(result.records)} steps")
    checks = check_descent_bounds(result.records, setup.refs, cfg.rho, cfg.beta,
                                  setup.prob.alpha, result.stats.max_norm_y)
    if cfg.check_invariants:
        inv = result.stats.invariants
        checks += check_recorded_invariants(inv.as_dict() if inv else None)
    problems += [c.line() for c in checks if not c.passed]
    return problems, k


def solve_once(wl, setup, cfg, traced):
    """One solve with its gate; an exception fails the solve, not the run."""
    tr = tracing.Tracer() if traced else None
    t0 = time.perf_counter()
    try:
        if traced:
            result, start, end, marks = tracing.traced(tr, lambda: timed_run(setup.prob, cfg))
        else:
            result, start, end, marks = timed_run(setup.prob, cfg)
        v0 = time.perf_counter()
        problems, k = gate(wl, setup, cfg, result)
        verify_s = time.perf_counter() - v0
    except Exception:
        return Outcome(traced, time.perf_counter() - t0, failure=traceback.format_exc())
    figures = {"solve_s": end - start, "iterations": len(result.records)}
    if k is not None:
        figures["time_to_gap_s"] = marks[k] - start
        figures["iters_to_gap"] = k + 1
    if traced:
        figures.update(tracing.layer_metrics(tr, result))
        figures["verify.s"] = verify_s
    return Outcome(traced, end - start, figures, "; ".join(problems) or None, tr)


def fail_count_mismatches(outcomes):
    """Fail each solve whose exact counts differ from the most common
    value among the solves that report that count."""
    for key in EXACT_COUNTS:
        seen = [o.figures[key] for o in outcomes if key in o.figures]
        if not seen:
            continue
        mode = Counter(seen).most_common(1)[0][0]
        for o in outcomes:
            if key in o.figures and o.figures[key] != mode:
                note = f"{key}={o.figures[key]} but {mode} in the other solves"
                o.failure = f"{o.failure}; {note}" if o.failure else note


def quartiles(values):
    """(first quartile, median, third quartile); the quartiles as
    statistics.quantiles gives them, a single value its own quartiles."""
    values = list(values)
    med = statistics.median(values)
    if len(values) == 1:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(wl, cfg, seconds, traced):
    """Closed loop of solves for ``seconds``: untraced only, or untraced
    and traced alternately.  Each solve gets a fresh set-up, built
    SETUP_REPEATS times so that set-up is sampled across the whole run;
    only the set-up timings are kept.  A solve starts only if one like the
    last of its kind would end within the time; each kind runs at least
    once.  Returns (set-up timings, outcomes)."""
    deadline = time.perf_counter() + seconds
    kinds = (False, True) if traced else (False,)
    last = {}
    timings = []
    outcomes = []
    while True:
        kind = kinds[len(outcomes) % len(kinds)]
        if kind in last and time.perf_counter() + last[kind] > deadline:
            break
        for _ in range(SETUP_REPEATS):
            setup = set_up(wl)
            timings.append({"setup_s": setup.total_s, "setup.build_s": setup.build_s,
                            "setup.ref_load_s": setup.ref_load_s})
        o = solve_once(wl, setup, cfg, kind)
        if not outcomes:
            # the high-water mark through the set-ups and the first solve;
            # later solves reuse that memory, but the allocator's state
            # after one solve would make a later reading depend on how
            # many solves fit in the run
            o.figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last[kind] = o.solve_s
        outcomes.append(o)
    fail_count_mismatches(outcomes)
    return timings, outcomes
