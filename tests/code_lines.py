"""Count the raw lines and the code lines of each module in ``src/gf2count``.

    python tests/code_lines.py [ROOT]

ROOT is a repository root, the one holding this script by default.  A
code line holds a token other than a comment: blank lines, comment lines
and the lines of docstrings (a string that opens a module, class or
function body) are not code lines.  Needs only the standard library.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the module's, classes' and functions' docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(root: Path) -> None:
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>8}{'code':>8}")
    for path in sorted((root / "src" / "gf2count").glob("*.py")):
        raw, code = count(path.read_text())
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>8}{code:>8}")
    print(f"{'total':<16}{total_raw:>8}{total_code:>8}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
