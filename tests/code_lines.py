"""Code lines of each module under `src/hfedsim`, their total, the field count
of each record a caller configures a run with, and the code lines of the file
readers and writers.

Run from the repository root:

    python tests/code_lines.py

A code line is a line that holds some token of code. Blank lines, comment
lines and the lines of module, class and function docstrings do not count;
a line with code and a trailing comment does. A function's code lines are the
code lines from its `def` to its last line, nested functions included. The
file is not named `test_*.py`, so pytest does not collect it.
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
    ("data", "FederatedDataset"),
]
# The dataset and topology file readers and writers, with their helpers, and
# the checks they share.
FILE_IO = {
    "data.py": ("save_dataset", "_shard_from_json", "load_shards"),
    "network.py": ("save_topology", "load_topology"),
    "errors.py": ("read_json", "integer_field", "float_field"),
}


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


def code_lines(source: str) -> set[int]:
    """The numbers of the code lines of `source`."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return lines


def function_lines(source: str, names: tuple[str, ...]) -> int:
    """Code lines of the module-level functions `names` of `source`."""
    lines = code_lines(source)
    spans = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in names
    ]
    if len(spans) != len(names):
        raise SystemExit(f"not every one of {names} is a module-level function")
    return sum(n in span for span in spans for n in lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = len(code_lines(path.read_text()))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    sys.path.insert(0, str(PACKAGE.parent))
    for module, name in RECORDS:
        record = getattr(importlib.import_module(f"hfedsim.{module}"), name)
        print(f"{len(dataclasses.fields(record)):6d}  {name} fields")
    for module, names in FILE_IO.items():
        n = function_lines((PACKAGE / module).read_text(), names)
        print(f"{n:6d}  file I/O in {module}: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
