"""Total lines and code lines of each `src/lodecomp` module.

Code lines are the lines that hold a token of code: blank lines, comment
lines and the lines of module, class and function docstrings do not
count, so deleting comments does not move the code count.

    python3 tools/src_lines.py              # the package next to this tool
    python3 tools/src_lines.py DIR          # every *.py file in DIR
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "lodecomp")
    args = parser.parse_args(argv)
    totals = [0, 0]
    rows = []
    for path in sorted(args.directory.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        rows.append((path.name, lines, code))
        totals[0] += lines
        totals[1] += code
    rows.append(("total", *totals))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
