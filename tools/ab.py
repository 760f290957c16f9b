"""Paired runs of the time-to-gap benchmark: a parent checkout against a
changed one.

    python3 tools/ab.py PARENT CHANGE --workload W --pairs N --seconds S [--first-seed K]

PARENT and CHANGE are source checkouts.  Pair k (k = 1..N) runs
``perfbench/run.py --workload W --seed K+k-1 --seconds S --trace 0`` (K is
1 unless given, so a claim can be checked on seeds unused before) in each
of them, one after the other; the parent goes first in odd pairs and the
change in even ones, so drift in the machine's load falls on both sides.

For every end-to-end metric of ``BENCHMARK.json`` (its name, unit, the
direction that is better and its regression bound) the summary gives each
side's median and quartiles over the pairs, the median and quartiles of
the per-pair ratio change/parent (the two runs of a pair are adjacent in
time, so load drift between pairs largely cancels in it), the pairs the
change won (ties count for neither side), the parent's interquartile
range, the change of the median against the bound, and whether a gain
may be claimed: the change won at least nine tenths of the pairs, and its
median is better than the parent's by more than the parent's
interquartile range.  The ratio is reported only; the claim does not
read it.

Each run prints one line as it ends: its metrics, then the machine state
from the run's ``env`` line (load averages before and after it, BLAS
threads per library, CPUs it may run on), so a claim can quote the load.

Exits 1 when any run fails to report, reports ``failed > 0`` or reports
``correct: false``; otherwise 0, whether or not a claim holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# the fields of a run's ``env`` line that describe the machine's state
ENV_SHOWN = ("loadavg_before", "loadavg_after", "blas_threads", "cpus_allowed")


def run_once(cmd, checkout, workload, seed, seconds):
    """The output of one run of the benchmark command ``cmd`` in
    ``checkout``, or ``""`` when it exits non-zero."""
    out = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        return ""
    return out.stdout


def parse_result(stdout):
    """The JSON object on the last line of a run's output, or ``None``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) else None


def parse_env(stdout):
    """The ``ENV_SHOWN`` fields of the run's ``env`` line that it has, or
    ``{}`` when it printed no such line that parses."""
    for line in stdout.splitlines():
        if line.startswith("env "):
            try:
                env = json.loads(line[4:])
            except json.JSONDecodeError:
                return {}
            return {k: env[k] for k in ENV_SHOWN if k in env} if isinstance(env, dict) else {}
    return {}


def run_line(k, side, stdout):
    """The line printed for one run: its metrics, its machine state and,
    when it failed, a mark."""
    result = parse_result(stdout)
    shown = {n: v["value"] for n, v in (result or {}).get("metrics", {}).items()}
    return (f"pair {k} {side}: {json.dumps(shown)} env {json.dumps(parse_env(stdout))}"
            + (" FAILED" if run_failed(result) else ""))


def run_failed(result):
    return result is None or result.get("failed") != 0 or result.get("correct") is not True


def quartiles(values):
    """(first quartile, median, third quartile), as ``perfbench`` takes them."""
    med = statistics.median(values)
    if len(values) == 1:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(metrics, parent, change):
    """One row per end-to-end metric.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries; ``parent``
    and ``change`` are the runs' JSON objects, pair by pair.  A pair counts
    for a metric only when both of its runs report it.
    """
    rows = []
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if p is not None and c is not None
                 and name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not pairs:
            rows.append({"name": name, "pairs": 0})
            continue
        pq, cq = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        ratios = [c / p for p, c in pairs if p]
        won = sum(sign * (p - c) > 0 for p, c in pairs)
        iqr = pq[2] - pq[0]
        gain = sign * (pq[1] - cq[1])       # > 0 when the change's median is better
        worse = -gain / abs(pq[1]) if pq[1] else (0.0 if gain >= 0 else float("inf"))
        rows.append({
            "name": name, "unit": m["unit"], "better": m["better"], "pairs": len(pairs),
            "parent": pq, "change": cq, "ratio": quartiles(ratios) if ratios else None,
            "won": won, "parent_iqr": iqr,
            "worse_rel": worse, "within_bound": worse <= m["bound"], "bound": m["bound"],
            "claim": 10 * won >= 9 * len(pairs) and gain > iqr,
        })
    return rows


def format_row(row):
    if not row["pairs"]:
        return f"{row['name']}: no pair reports it"
    (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
    ratio = ("no pair has a nonzero parent value" if row["ratio"] is None
             else "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["ratio"]))
    return (f"{row['name']} ({row['unit']}, {row['better']} is better): "
            f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"ratio change/parent {ratio}  "
            f"change won {row['won']}/{row['pairs']}  parent IQR {row['parent_iqr']:.6g}  "
            f"median {-100 * row['worse_rel']:+.1f}% better "
            f"({'within' if row['within_bound'] else 'BEYOND'} the {row['bound']:.0%} bound)  "
            f"claim {'holds' if row['claim'] else 'does not hold'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.first_seed < 0:
        ap.error("--first-seed must be at least 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            stdout = run_once(bench["command"], getattr(args, side), args.workload,
                              args.first_seed + k - 1, args.seconds)
            runs[side].append(parse_result(stdout))
            print(run_line(k, side, stdout), flush=True)

    for row in summarize(bench["end_to_end"], runs["parent"], runs["change"]):
        print(format_row(row))
    failed = sum(run_failed(r) for side in runs.values() for r in side)
    if failed:
        print(f"{failed} of {2 * args.pairs} runs failed or were not correct")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
