"""Print, for each file of the package source, the executable lines that
none of the runs of ``tools/seed_traces.py`` reaches.

    python3 tools/traffic.py

Runs everything ``tools/seed_traces.py`` runs (the four benchmark workloads,
the small and Lanczos runs and the command-line runs), unchanged, into a
temporary directory, under a ``sys.settrace`` line trace restricted to the
files under this checkout's ``src/``.  A line is executable when a code
object compiled from its file holds an instruction on it; a line counts as
reached when the trace saw a ``line`` event on it.  So a line printed here
is one that only a test, or no caller at all, reaches.  The runs' own
output goes to standard error.  Uses only the standard library.  The runs take about 46 s under the trace, against 23 s
without it, on a 2-vCPU VM.
"""

import contextlib
import importlib.util
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path):
    """The line numbers that hold an instruction of a code object compiled
    from the file at ``path``."""
    lines, todo = set(), [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a line of None or 0 (a module's start) is no line of the file
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTrace:
    """Within ``with``, the lines run in the files under ``root``, as
    ``hit[filename]``, a set of line numbers."""

    def __init__(self, root):
        self.root = str(Path(root).resolve())
        self.hit = defaultdict(set)

    def __enter__(self):
        self._prior = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._prior)

    def _call(self, frame, event, arg):
        # frames of other files get no local trace, so no line events
        return self._line if frame.f_code.co_filename.startswith(self.root) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hit[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line


def unreached(root, hit):
    """(path under ``root``, sorted unreached lines, executable line count)
    of each ``*.py`` file under ``root``, in path order."""
    root = Path(root).resolve()
    out = []
    for path in sorted(root.rglob("*.py")):
        lines = executable_lines(path)
        out.append((path.relative_to(root).as_posix(),
                    sorted(lines - hit.get(str(path), set())), len(lines)))
    return out


def ranges(lines):
    """Sorted line numbers as runs: [3, 4, 5, 9] -> "3-5, 9"."""
    runs = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main():
    src = ROOT / "src"
    spec = importlib.util.spec_from_file_location("seed_traces", ROOT / "tools" / "seed_traces.py")
    seed_traces = importlib.util.module_from_spec(spec)
    with (LineTrace(src) as trace, tempfile.TemporaryDirectory() as out,
          contextlib.redirect_stdout(sys.stderr)):
        # the package is imported inside the trace, so its module-level
        # lines count; seed_traces pins BLAS to one thread before numpy loads
        spec.loader.exec_module(seed_traces)
        status = seed_traces.main([out])
    if status != 0:
        return status
    files = unreached(src, trace.hit)
    print(f"unreached: {sum(len(lines) for _, lines, _ in files)} "
          f"of {sum(total for _, _, total in files)} executable lines")
    for path, lines, total in files:
        print(f"{path}: {len(lines)} of {total}" + (f": {ranges(lines)}" if lines else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
