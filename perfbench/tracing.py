"""Spans around the calls into each solver layer, recorded from outside.

``patched(tracer)`` rebinds the public callables that ``bundle``,
``subproblem`` and ``model`` look up at module level (and two methods of
``ConstraintMap``) to wrappers that open and close a span, and restores
them on exit.  Nothing in ``src/`` changes.  Spans are kept in memory as
parallel lists and written once, at the end of the benchmark run.

An outer step has no public entry point of its own, so step spans are cut
at the boundaries ``run`` does expose: the first starts when ``init_state``
returns, and each ends when ``stopping_metric`` (called once per step, last
thing in the step) returns.  What ``run`` does after its last step (primal
recovery, ``sketch_reconstruct``) lands in a ``tail`` span.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

import specbundle.bundle as bundle
import specbundle.model as model
import specbundle.subproblem as subproblem
from specbundle.linops import ConstraintMap

# (module or class, attribute) pairs the wrappers replace; span names are
# the attribute names
_TARGETS = (
    (bundle, "init_state"),
    (bundle, "stopping_metric"),
    (bundle, "solve_subproblem"),
    (bundle, "objective_with_spectrum"),
    (bundle, "sketch_update"),
    (bundle, "sketch_reconstruct"),
    (bundle, "check_model_dominance"),
    (bundle, "membership_certificates"),
    (bundle, "model_value"),
    (model, "objective_with_spectrum"),
    (model, "top_eigs"),
    (subproblem, "solve_inner_apg"),
    (subproblem, "solve_inner_rank1"),
    (subproblem, "project_psd_simplex_hull"),
    (ConstraintMap, "slack"),
    (ConstraintMap, "congruence"),
)


class Tracer:
    """Spans of one traced solve: name, start, end and parent index
    (-1 for a root), plus counts read off the wrapped calls' results."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self.inner = []          # (inner_iters, converged, width) per subproblem
        self.slack_bytes = 0
        self.sketch_bytes = 0

    def open(self, name):
        sid = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.name[sid]!r} closed out of order")

    def close_open_steps(self):
        """End the step span left open after the last step; it covers the
        run's tail, so it is renamed."""
        if self._stack and self.name[self._stack[-1]] == "step":
            sid = self._stack[-1]
            self.name[sid] = "tail"
            self.close(sid)

    def wrap(self, name, fn):
        after = self._after.get(name)

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(self, args, out)
            return out
        return traced

    # per-name hooks, run after the span closes
    def _note_subproblem(self, args, sol):
        self.inner.append((sol.inner_iters, sol.converged, sol.ip.width))

    def _note_slack(self, args, out):
        self.slack_bytes += out.nbytes

    def _note_sketch(self, args, st):
        self.sketch_bytes = max(self.sketch_bytes, sum(
            a.nbytes for a in (st.Psi, st.Phi, st.Yc, st.Yr)))

    def _first_step(self, args, out):
        self.open("step")

    def _next_step(self, args, out):
        self.close(self._stack[-1])
        self.open("step")

    _after = {
        "solve_subproblem": _note_subproblem,
        "slack": _note_slack,
        "sketch_update": _note_sketch,
        "init_state": _first_step,
        "stopping_metric": _next_step,
    }


@contextlib.contextmanager
def patched(tracer):
    """Route the layer calls through ``tracer`` for the duration."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr in _TARGETS]
    build = subproblem.InnerProblem.__dict__["build"]
    try:
        for owner, attr, fn in saved:
            setattr(owner, attr, tracer.wrap(attr, fn))
        subproblem.InnerProblem.build = classmethod(
            tracer.wrap("InnerProblem.build", build.__func__))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        subproblem.InnerProblem.build = build


def traced(tr, call):
    """``call()`` under ``patched(tr)``, inside a root span named run."""
    with patched(tr):
        root = tr.open("run")
        try:
            return call()
        finally:
            tr.close_open_steps()
            tr.close(root)


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = start[i]
        for lo, hi in sorted((start[c], end[c]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


def _has_ancestor(parent, name, i, target):
    i = parent[i]
    while i >= 0:
        if name[i] == target:
            return True
        i = parent[i]
    return False


def layer_metrics(tr, result):
    """Per-layer figures of one traced solve (see NOTES.md for the map
    from each figure to the end-to-end metric it should move)."""
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    ids = defaultdict(list)
    for i, n in enumerate(tr.name):
        ids[n].append(i)

    def total(*names):
        return sum(dur[i] for n in names for i in ids[n])

    def count(*names):
        return sum(len(ids[n]) for n in names)

    steps = ids["step"]
    own = self_times(tr.start, tr.end, tr.parent)
    model_calls = ids["objective_with_spectrum"] + ids["model_value"]
    iters = [it for it, _, _ in tr.inner]
    dominance, membership = total("check_model_dominance"), total("membership_certificates")
    return {
        "subproblem.s": total("solve_subproblem"),
        "subproblem.build_s": total("InnerProblem.build"),
        "linops.congruence_s": total("congruence"),
        "subproblem.inner_s": total("solve_inner_apg", "solve_inner_rank1"),
        "subproblem.inner_iters": sum(iters),
        "subproblem.inner_iters_max": max(iters, default=0),
        "subproblem.capped": sum(not conv for _, conv, _ in tr.inner),
        "subproblem.hull_proj_calls": count("project_psd_simplex_hull"),
        "subproblem.hull_proj_s": total("project_psd_simplex_hull"),
        "model.objective_s": total("objective_with_spectrum", "model_value"),
        "model.objective_calls": len(model_calls),
        "linops.top_eigs_s": total("top_eigs"),
        "linops.top_eigs_calls": count("top_eigs"),
        "linops.slack_s": total("slack"),
        "linops.slack_bytes": tr.slack_bytes,
        "diag.s": dominance + membership,
        "diag.dominance_s": dominance,
        "diag.membership_s": membership,
        "diag.objective_calls": sum(
            _has_ancestor(tr.parent, tr.name, i, "check_model_dominance")
            for i in model_calls),
        "sketch.update_calls": count("sketch_update"),
        "sketch.update_s": total("sketch_update"),
        "sketch.reconstruct_s": total("sketch_reconstruct"),
        "sketch.bytes": tr.sketch_bytes,
        "bundle.step_ms": 1e3 * sum(dur[i] for i in steps) / max(len(steps), 1),
        "bundle.self_s": sum(own[i] for i in steps),
        "bundle.descent_ratio": result.stats.descent_steps / max(result.stats.iterations, 1),
        "bundle.width_mean": sum(w for _, _, w in tr.inner) / max(len(tr.inner), 1),
    }


def write_spans(path, traces):
    """Write the spans of every traced solve as CSV; returns bytes written.
    Times are seconds from the start of that solve's first span."""
    lines = ["solve,id,name,start_s,end_s,parent\n"]
    for k, tr in enumerate(traces):
        t0 = tr.start[0] if tr.start else 0.0
        lines += [f"{k},{i},{n},{s - t0:.9f},{e - t0:.9f},{p}\n"
                  for i, (n, s, e, p) in enumerate(zip(tr.name, tr.start, tr.end, tr.parent))]
    text = "".join(lines)
    with open(path, "w") as fh:
        fh.write(text)
    return len(text.encode())
