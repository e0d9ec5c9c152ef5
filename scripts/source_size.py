"""Print the line counts of each module under src/bankadapt, and their sum.

Each line is counted once, by the first rule that holds:
- docstring: it lies in the first string statement of a module, class or
  function;
- code: a Python token other than a comment (read by tokenize) starts on
  it or runs through it;
- comment: it holds a comment;
- blank: anything else.

Usage:
    python3 scripts/source_size.py
    python3 scripts/source_size.py path/to/src/bankadapt
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("docstring", "code", "comment", "blank")
# tokens that mark layout, not code
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source text."""
    docstring = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, len(text.splitlines()) + 1):
        kind = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    return counts


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", default=str(root / "src" / "bankadapt"),
                    help="folder of the modules (default: src/bankadapt)")
    args = ap.parse_args()
    paths = sorted(Path(args.package).glob("*.py"))
    total = dict.fromkeys(("total",) + KINDS, 0)
    print(f"{'module':<20} {'total':>6} " + " ".join(f"{k:>9}" for k in KINDS))
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        row = {"total": sum(counts.values()), **counts}
        for key, n in row.items():
            total[key] += n
        print(f"{path.name:<20} " + " ".join(
            f"{row[k]:>{6 if k == 'total' else 9}}" for k in total))
    print(f"{'all':<20} " + " ".join(
        f"{total[k]:>{6 if k == 'total' else 9}}" for k in total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
