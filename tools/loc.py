"""Print the two line counts tracked for the package source, ``wc -l`` and
code lines, then both counts of each file.

    python3 tools/loc.py [DIR]      # DIR defaults to this checkout's src/

The totals cover every ``*.py`` file under DIR.  Code lines are the
physical lines that hold a token other than a comment and are not inside a
module, class or function docstring, so a multi-line statement counts each
of its lines, and a docstring, a comment or a blank line counts none.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_spans(tree):
    """((row, col), (end_row, end_col)) of each module, class and function
    docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def count(source):
    """(``wc -l``, code lines) of one file's source text."""
    spans = docstring_spans(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(rows)


def count_files(root):
    """(path under ``root``, ``wc -l``, code lines) of each ``*.py`` file
    under ``root``, in path order."""
    root = Path(root)
    return [(path.relative_to(root).as_posix(), *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else Path(__file__).resolve().parent.parent / "src"
    files = count_files(root)
    print(f"wc -l: {sum(lines for _, lines, _ in files)}")
    print(f"code lines: {sum(code for _, _, code in files)}")
    print(f"{'wc -l':>6} {'code':>6}  file")
    for path, lines, code in files:
        print(f"{lines:6d} {code:6d}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
