"""Run every workload once and print one table of its metrics.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own ``run.py`` process, one after the other.
Prints each metric by workload with its unit, then each workload's
correctness-gate result; exits 1 if any workload failed its gate or did
not finish.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])

    units = {}
    for res in results.values():
        for m, v in (res or {}).get("metrics", {}).items():
            units.setdefault(m, v["unit"])
    print(f"{'metric':28} {'unit':6} " + " ".join(f"{w:>24}" for w in WORKLOADS))
    for m, unit in units.items():
        cells = [(results[w] or {}).get("metrics", {}).get(m) for w in WORKLOADS]
        print(f"{m:28} {unit:6} " + " ".join(
            f"{c['value']:>24.6g}" if c else f"{'-':>24}" for c in cells))
    ok = True
    for w, res in results.items():
        good = res is not None and res["correct"]
        ok &= good
        detail = (f"{res['failed']} of {res['attempted']} solves failed" if res
                  else "no result")
        print(f"{w}: {'PASS' if good else 'FAIL'} ({detail})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
