"""Print the logic lines of the zomirror package, per module and in total.

Run from the repository root:

    python3 tests/src_lines.py                   # the package under ./src
    python3 tests/src_lines.py --src OTHER/src   # another checkout's package

A logic line is a source line that holds a token of code: lines that hold
only comments, blank lines and docstrings (the string statement that opens
a module, class or function) do not count, and a token that spans lines
counts each line it spans.  One rule, so that two checkouts compare by it.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def logic_lines(source: str) -> int:
    """The number of logic lines in one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the zomirror package")
    args = parser.parse_args(argv)
    package = os.path.join(args.src, "zomirror")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                count = logic_lines(fh.read())
            total += count
            print(f"{name:14s} {count:5d}")
    print(f"{'total':14s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
