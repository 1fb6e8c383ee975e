"""Count the lines of each ``src/simqp`` module by kind.

Every physical line is exactly one of: blank (only whitespace), docstring
(inside the docstring of the module, a class or a function), code (a
token other than a comment starts or continues on it) or comment (the
rest: comment-only lines).  "Code lines" are what the design aim counts:
non-blank lines outside comments and docstrings.  Standard library only:

    python tests/code_lines.py [FILE.py ...]

With no argument it counts every module of ``src/simqp`` and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("physical", "code", "docstring", "comment", "blank")
SOURCES = Path(__file__).resolve().parents[1] / "src" / "simqp"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by a module, class or function docstring."""
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


def count_lines(source: str) -> dict:
    """``{kind: number of lines}`` for one module's ``source``."""
    physical = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    counts["physical"] = len(physical)
    for number, text in enumerate(physical, start=1):
        if not text.strip():
            kind = "blank"
        elif number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv: list) -> int:
    paths = [Path(arg) for arg in argv] or sorted(SOURCES.glob("*.py"))
    width = max(len(path.name) for path in paths)
    print(f"{'file':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<{width}}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))
    print(f"{'total':<{width}}" + "".join(f"{total[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
