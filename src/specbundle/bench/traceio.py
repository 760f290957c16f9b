"""Persisted run artifacts: per-iteration CSV trace and JSON summary.

The trace carries one row per iteration, whose columns are the fields of
``IterationRecord`` in order; its tuple field ``gaps`` spreads over one
column per entry, ``gap1..gapN``, where N is the configured bundle size.
Integer and bool fields are written as integers, the rest with 17
significant digits, so a parsed trace reproduces the run bitwise.  The
summary's run fields are those of ``RunStats``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from itertools import islice
from typing import get_type_hints

import numpy as np

from ..bundle import InvariantReport, IterationRecord, _CONFIG_RULES
from ..linops import INTEGER, NONNEGATIVE, NUMBER, OBJECT, POSITIVE, REAL, check_field

# (name, type) of each IterationRecord field, in column order
_COLUMNS = [(f.name, get_type_hints(IterationRecord)[f.name]) for f in fields(IterationRecord)]


class TraceFormatError(ValueError):
    """Trace file does not match the expected column layout."""


def _cells(kind, value):
    """A field's CSV cells: integers for int and bool, else 17-digit floats."""
    if kind in (int, bool):
        return [int(value)]
    return [format(float(v), ".17g") for v in (value if kind is tuple else [value])]


def _parse(kind, cells):
    """The field of type ``kind`` written as ``cells`` by ``_cells``."""
    if kind is tuple:
        return tuple(float(c) for c in cells)
    return kind(int(cells[0])) if kind in (int, bool) else float(cells[0])


def trace_header(rbar):
    """The column names: each field's, a tuple field's by its singular
    with the entry number (gap1..gap<rbar>)."""
    return [col for name, kind in _COLUMNS
            for col in ([f"{name[:-1]}{r}" for r in range(1, rbar + 1)]
                        if kind is tuple else [name])]


def write_trace(path, records, rbar):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(trace_header(rbar))
        for k, rec in enumerate(records, start=1):
            row = []
            for name, kind in _COLUMNS:
                value = getattr(rec, name)
                if kind is tuple and len(value) != rbar:
                    raise TraceFormatError(
                        f"record {k} carries {len(value)} {name}, header promises {rbar}")
                row += _cells(kind, value)
            w.writerow(row)


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
        cells = iter(row)
        try:
            records.append(IterationRecord(**{
                name: _parse(kind, list(islice(cells, ngap if kind is tuple else 1)))
                for name, kind in _COLUMNS}))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    return records, ngap


def summary_dict(cfg, result, refs=None, metrics=None, problem_label="", *,
                 alpha_effective):
    """JSON-ready summary of a run: config echo, penalty, stopping data,
    telemetry; ``metrics`` is ``reference.compute_metrics``'s object."""
    return {
        "problem": problem_label,
        "alpha_effective": alpha_effective,
        "config": asdict(cfg),
        "seed": cfg.seed,
        **asdict(result.stats),
        "final_objective": result.state.F_y,
        "refs": refs.to_dict() if refs is not None else None,
        "metrics": metrics,
    }


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_numpy_to_json)
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


def _numpy_to_json(obj):
    """``json.dump``'s hook for what it cannot write: a numpy scalar or
    array as its ``tolist()``."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
