"""Line counts of ``tools/loc.py`` on a small fixture tree."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(a,
      b):
    """Function docstring."""
    text = """a string that is not a docstring
still code"""
    return (a +
            b)


class C:
    """Class docstring,

    over four lines."""
    x = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    lines, code = loc.count(FIXTURE)
    assert lines == 21
    # import, def (2 lines), the string assignment (2), the return (2),
    # class, x = 1
    assert code == 9


def test_tree_counts_sum_its_python_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.count_files(tmp_path) == [("pkg/a.py", 21, 9), ("pkg/b.py", 2, 1)]
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ("wc -l: 23\n"
                                       "code lines: 10\n"
                                       " wc -l   code  file\n"
                                       "    21      9  pkg/a.py\n"
                                       "     2      1  pkg/b.py\n")
