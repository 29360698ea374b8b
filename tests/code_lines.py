"""Code lines of each module under `src/hfedsim`, their total, and the field
count of each record a caller configures a run with.

Run from the repository root:

    python tests/code_lines.py

A code line is a line that holds some token of code. Blank lines, comment
lines and the lines of module, class and function docstrings do not count;
a line with code and a trailing comment does. The file is not named
`test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hfedsim"
NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
RECORDS = [
    ("simulator", "SimConfig"), ("network", "TopologySpec"), ("data", "DataSpec"),
    ("learning", "TrainConfig"), ("learning", "ModelArch"), ("simulator", "Policy"),
]


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    sys.path.insert(0, str(PACKAGE.parent))
    for module, name in RECORDS:
        record = getattr(importlib.import_module(f"hfedsim.{module}"), name)
        print(f"{len(dataclasses.fields(record)):6d}  {name} fields")
    return 0


if __name__ == "__main__":
    sys.exit(main())
