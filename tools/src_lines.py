"""Line counts of the package source, per module and in total.

    python tools/src_lines.py [source dir]

For each ``*.py`` file of the directory (``src/zubov`` by default) it
prints the lines as ``wc -l`` counts them and the code lines: lines that
hold a token other than a comment, and that are not part of a docstring
(the string that opens a module, class or function body).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(wc -l lines, code lines) of Python source ``text``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "zubov"
    total = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(root.glob("*.py")):
        lines, code = counts(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
