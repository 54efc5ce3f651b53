"""Count the source lines of the treeqi package.

    python tools/code_lines.py [package-dir]

For each module of the package (default: the repository's src/treeqi)
print its code lines and its physical lines, then the totals.  A code line
holds at least one token that is neither a comment nor part of a
docstring; blank lines, comment-only lines and docstring lines do not
count.  Physical lines are what `wc -l` reports.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        owner = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, owner) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = _docstring_lines(source)
    lines: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "treeqi"
    root = Path(argv[1]) if len(argv) > 1 else default
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"error: no Python modules under {root}", file=sys.stderr)
        return 1
    total_code = total_wc = 0
    print(f"{'code':>6} {'wc -l':>6}  file")
    for path in files:
        code = code_lines(path)
        wc = path.read_bytes().count(b"\n")
        total_code += code
        total_wc += wc
        print(f"{code:6d} {wc:6d}  {path.name}")
    print(f"{total_code:6d} {total_wc:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
