"""Persisted run artifacts: per-iteration CSV trace and JSON summary.

The trace carries one row per iteration with fixed columns

    t, F_y, F_z, Fbar_z, descent, feas, lammin, pval, dval, step,
    gap1..gapN, inner_res

where N is the configured bundle size.  Floats are written with 17
significant digits so a parsed trace reproduces the run bitwise.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields

import numpy as np

from ..bundle import InvariantReport, IterationRecord, _CONFIG_RULES
from ..linops import INTEGER, NONNEGATIVE, NUMBER, OBJECT, POSITIVE, REAL, check_field


class TraceFormatError(ValueError):
    """Trace file does not match the expected column layout."""


def _fmt(x):
    return format(float(x), ".17g")


def trace_header(rbar):
    gaps = [f"gap{r}" for r in range(1, rbar + 1)]
    return ["t", "F_y", "F_z", "Fbar_z", "descent", "feas", "lammin",
            "pval", "dval", "step", *gaps, "inner_res"]


def write_trace(path, records, rbar):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(trace_header(rbar))
        for rec in records:
            if len(rec.gaps) != rbar:
                raise TraceFormatError(
                    f"record {rec.t} carries {len(rec.gaps)} gaps, header promises {rbar}")
            w.writerow([rec.t, _fmt(rec.F_y), _fmt(rec.F_z), _fmt(rec.Fbar_z),
                        int(rec.descent), _fmt(rec.feas), _fmt(rec.lammin),
                        _fmt(rec.pval), _fmt(rec.dval), _fmt(rec.step),
                        *[_fmt(g) for g in rec.gaps], _fmt(rec.inner_res)])


def read_trace(path):
    """Parse a trace back into records; returns (records, rbar)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TraceFormatError(f"{path}: empty trace")
    header = rows[0]
    ngap = len(header) - len(trace_header(0))
    if ngap < 0 or header != trace_header(ngap):
        raise TraceFormatError(f"{path}: unexpected header {header!r}")
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise TraceFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            records.append(IterationRecord(
                t=int(row[0]), F_y=float(row[1]), F_z=float(row[2]),
                Fbar_z=float(row[3]), descent=bool(int(row[4])),
                feas=float(row[5]), lammin=float(row[6]), pval=float(row[7]),
                dval=float(row[8]), step=float(row[9]),
                gaps=tuple(float(g) for g in row[10:10 + ngap]),
                inner_res=float(row[10 + ngap])))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    return records, ngap


def summary_dict(cfg, result, refs=None, metrics=None, problem_label="", *,
                 alpha_effective):
    """JSON-ready summary of a run: config echo, penalty, stopping data,
    telemetry; ``metrics`` is ``reference.compute_metrics``'s object."""
    inv = result.stats.invariants
    return {
        "problem": problem_label,
        "alpha_effective": alpha_effective,
        "config": asdict(cfg),
        "seed": cfg.seed,
        "iterations": result.stats.iterations,
        "descent_steps": result.stats.descent_steps,
        "stop_reason": result.stats.stop_reason,
        "max_norm_y": result.stats.max_norm_y,
        "final_objective": result.state.F_y,
        "warnings": list(result.stats.warnings),
        "invariants": inv.as_dict() if inv is not None else None,
        "refs": refs.to_dict() if refs is not None else None,
        "metrics": metrics,
    }


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path):
    """The summary written by ``write_summary``.  Raises ValueError, naming
    the field, unless the file holds a JSON object whose fields that verify
    reads follow the rules below (``config.rho`` and ``config.beta`` those
    of ``SolverConfig``), with an optional ``invariants`` object holding
    every ``InvariantReport`` field."""
    with open(path) as fh:
        summary = check_field(f"{path}: summary", json.load(fh), OBJECT)
    conf = _field(path, summary, "config", OBJECT)
    for key in ("rho", "beta"):
        _field(path, conf, key, *_CONFIG_RULES[key], prefix="config.")
    _field(path, summary, "alpha_effective", REAL, *POSITIVE)
    _field(path, summary, "max_norm_y", REAL, *NONNEGATIVE)
    inv = _field(path, summary, "invariants", OBJECT, required=False)
    if inv is not None:
        for f in fields(InvariantReport):
            _field(path, inv, f.name, INTEGER if f.name == "checked" else NUMBER,
                   prefix="invariants.")
    return summary


def _field(path, obj, key, kind, ok=None, want="", prefix="", required=True):
    """``check_field`` on ``obj[key]``, or None if it is absent or null and
    not required; ValueError naming the field otherwise."""
    v = obj.get(key)
    if v is None:
        if required:
            raise ValueError(f"{path}: summary lacks {prefix}{key}")
        return None
    return check_field(f"{path}: summary field {prefix}{key}", v, kind, ok, want)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj
