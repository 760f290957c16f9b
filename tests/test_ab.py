"""Summary logic of ``tools/ab.py`` on canned benchmark output (no run is
started)."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "time_to_gap_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "iters_to_gap", "unit": "count", "better": "lower", "bound": 0.1},
]


def _stdout(failed=0, correct=True, **values):
    """A run's output: human-readable lines, then its JSON line."""
    last = {"correct": correct, "attempted": 4, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return "env {}\nsolve 0 timed: {}\n" + json.dumps(last) + "\n"


def _runs(times, iters=93):
    return [ab.parse_result(_stdout(time_to_gap_s=t, iters_to_gap=iters)) for t in times]


def _row(rows, name):
    (row,) = [r for r in rows if r["name"] == name]
    return row


def test_nine_wins_in_ten_and_a_gap_beyond_the_iqr_make_a_claim():
    parent = _runs([4.0, 4.1, 4.2, 4.3, 4.4, 4.0, 4.1, 4.2, 4.3, 2.0])
    change = _runs([2.8, 2.9, 3.0, 2.8, 2.9, 3.0, 2.8, 2.9, 3.0, 2.5])
    row = _row(ab.summarize(METRICS, parent, change), "time_to_gap_s")
    assert row["pairs"] == 10 and row["won"] == 9
    assert row["parent"][1] == pytest.approx(4.15) and row["change"][1] == pytest.approx(2.9)
    q1, _, q3 = row["parent"]
    assert row["parent_iqr"] == pytest.approx(q3 - q1)
    assert row["claim"] and row["within_bound"]
    assert "change won 9/10" in ab.format_row(row) and "claim holds" in ab.format_row(row)


def test_eight_wins_in_ten_make_no_claim():
    parent = _runs([4.0] * 8 + [2.0, 2.0])
    change = _runs([3.0] * 10)
    row = _row(ab.summarize(METRICS, parent, change), "time_to_gap_s")
    assert row["won"] == 8 and not row["claim"]


def test_a_median_gap_inside_the_parent_iqr_makes_no_claim():
    parent = _runs([3.0, 5.0] * 5)
    change = _runs([2.9, 4.9] * 5)
    row = _row(ab.summarize(METRICS, parent, change), "time_to_gap_s")
    assert row["won"] == 10 and row["parent_iqr"] == pytest.approx(2.0)
    assert not row["claim"]


def test_per_pair_ratio_quartiles_are_reported_and_leave_the_claim_alone():
    # the parent drifts from 3 s to 5 s across the pairs and the change
    # runs 10% under its own pair's parent throughout
    times = [3.0 + 0.2 * k for k in range(11)]
    parent, change = _runs(times), _runs([0.9 * t for t in times])
    row = _row(ab.summarize(METRICS, parent, change), "time_to_gap_s")
    q1, med, q3 = row["ratio"]
    assert q1 == pytest.approx(0.9) and med == pytest.approx(0.9) and q3 == pytest.approx(0.9)
    assert row["won"] == 11 and not row["claim"]    # the median gap is inside the IQR
    assert "ratio change/parent 0.9 [0.9, 0.9]" in ab.format_row(row)
    # a zero parent value has no ratio; a pair that has one still counts
    row = _row(ab.summarize(METRICS, _runs([0.0, 2.0, 4.0]), _runs([1.0, 1.0, 3.0])),
               "time_to_gap_s")
    assert row["pairs"] == 3 and row["ratio"][1] == pytest.approx((0.5 + 0.75) / 2)
    row = _row(ab.summarize(METRICS, _runs([0.0]), _runs([1.0])), "time_to_gap_s")
    assert row["ratio"] is None and "no pair has a nonzero" in ab.format_row(row)


def test_ties_count_for_neither_side():
    row = _row(ab.summarize(METRICS, _runs([4.0] * 10), _runs([3.0] * 10)), "iters_to_gap")
    assert row["won"] == 0 and not row["claim"]
    assert row["worse_rel"] == 0.0 and row["within_bound"]


def test_higher_is_better_reverses_the_comparison():
    metrics = [{"name": "time_to_gap_s", "unit": "s", "better": "higher", "bound": 0.25}]
    row = _row(ab.summarize(metrics, _runs([3.0] * 10), _runs([4.0] * 10)), "time_to_gap_s")
    assert row["won"] == 10 and row["claim"] and row["worse_rel"] < 0


def test_a_change_worse_than_its_bound_is_flagged():
    row = _row(ab.summarize(METRICS, _runs([4.0] * 10), _runs([5.2] * 10)), "time_to_gap_s")
    assert row["won"] == 0 and row["worse_rel"] == pytest.approx(0.3)
    assert not row["within_bound"] and "BEYOND" in ab.format_row(row)


def test_pairs_missing_a_metric_or_a_result_are_left_out():
    parent = _runs([4.0, 4.0, 4.0])
    change = _runs([3.0, 3.0]) + [None]
    parent[0]["metrics"].pop("time_to_gap_s")
    row = _row(ab.summarize(METRICS, parent, change), "time_to_gap_s")
    assert row["pairs"] == 1 and row["won"] == 1
    assert ab.summarize(METRICS, [None], [None])[0] == {"name": "time_to_gap_s", "pairs": 0}


def test_failed_incorrect_and_unparsable_runs_count_as_failures():
    assert not ab.run_failed(ab.parse_result(_stdout(time_to_gap_s=1.0)))
    assert ab.run_failed(ab.parse_result(_stdout(failed=1, time_to_gap_s=1.0)))
    assert ab.run_failed(ab.parse_result(_stdout(correct=False, time_to_gap_s=1.0)))
    assert ab.parse_result("Traceback (most recent call last):\n  ...\n") is None
    assert ab.parse_result("") is None
    assert ab.run_failed(None)


def test_each_run_line_shows_the_machine_state_of_its_env_line():
    env = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.29",
           "blas_threads": {"libscipy_openblas64_.so": 1}, "nproc": 4, "cpus_allowed": 2,
           "loadavg_before": [0.52, 0.61, 0.7], "loadavg_after": [1.1, 0.8, 0.75]}
    stdout = _stdout(time_to_gap_s=3.5).replace("env {}", "env " + json.dumps(env))
    shown = ab.parse_env(stdout)
    assert shown == {k: env[k] for k in ("loadavg_before", "loadavg_after",
                                         "blas_threads", "cpus_allowed")}
    line = ab.run_line(3, "change", stdout)
    assert line == ('pair 3 change: {"time_to_gap_s": 3.5} env ' + json.dumps(shown))
    # a run without a readable env line shows none; a failed run is marked
    assert ab.parse_env(_stdout(time_to_gap_s=3.5)) == {}
    assert ab.parse_env("env {not json\n") == {} and ab.parse_env("") == {}
    assert ab.run_line(1, "parent", "") == "pair 1 parent: {} env {} FAILED"


@pytest.mark.parametrize("argv, seeds", [
    ([], [1, 2, 3]),
    (["--first-seed", "11"], [11, 12, 13]),
])
def test_pairs_alternate_sides_over_consecutive_seeds(argv, seeds, monkeypatch):
    calls = []

    def fake_run(cmd, checkout, workload, seed, seconds):
        calls.append((str(checkout), seed))
        return _stdout(time_to_gap_s=1.0)
    monkeypatch.setattr(ab, "run_once", fake_run)
    assert ab.main(["P", "C", "--workload", "w", "--pairs", "3", "--seconds", "1"] + argv) == 0
    assert calls == [("P", seeds[0]), ("C", seeds[0]), ("C", seeds[1]), ("P", seeds[1]),
                     ("P", seeds[2]), ("C", seeds[2])]


def test_a_negative_first_seed_is_refused(capsys):
    with pytest.raises(SystemExit):
        ab.main(["P", "C", "--workload", "w", "--pairs", "3", "--seconds", "1",
                 "--first-seed", "-1"])
    assert "--first-seed must be at least 0" in capsys.readouterr().err
