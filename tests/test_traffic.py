"""The line collector of ``tools/traffic.py`` on a small fixture module."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "traffic", Path(__file__).resolve().parent.parent / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

FIXTURE = '''"""Module docstring,
over two lines."""

import functools


def used(a,
         b):
    """Function docstring."""
    total = (a +
             b)
    if total > 100:
        return -1
    return total


@functools.cache
def decorated(x):
    return x * 2


def unused():
    return 3


class K:
    """Class docstring."""
    y = 2

    def method(self):
        return [i for i in range(3)]
'''


def _run_fixture(root):
    spec = importlib.util.spec_from_file_location("fixture", root / "fixture.py")
    mod = importlib.util.module_from_spec(spec)
    with traffic.LineTrace(root) as trace:
        spec.loader.exec_module(mod)
        mod.used(1, 2)
        mod.decorated(3)
    return trace


def test_executable_lines_skip_docstrings_blanks_and_continuations(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert traffic.executable_lines(tmp_path / "fixture.py") == {
        1, 4, 7, 10, 11, 12, 13, 14, 17, 18, 19, 22, 23, 26, 27, 28, 30, 31}


def test_unreached_lines_are_those_no_call_ran(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "never.py").write_text("x = 1\n\ny = 2\n")
    trace = _run_fixture(tmp_path)
    # the early return, unused's body and the method's body never run;
    # a module never imported is unreached as a whole
    assert traffic.unreached(tmp_path, trace.hit) == [
        ("fixture.py", [13, 23, 31], 18), ("pkg/never.py", [1, 3], 2)]


def test_the_trace_is_restricted_to_its_root(tmp_path):
    (tmp_path / "inside").mkdir()
    (tmp_path / "inside" / "fixture.py").write_text(FIXTURE)
    (tmp_path / "fixture.py").write_text(FIXTURE)
    trace = _run_fixture(tmp_path / "inside")
    spec = importlib.util.spec_from_file_location("outside", tmp_path / "fixture.py")
    with trace:
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert list(trace.hit) == [str((tmp_path / "inside" / "fixture.py").resolve())]


def test_ranges_join_consecutive_lines():
    assert traffic.ranges([]) == ""
    assert traffic.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
