"""Code used only by tests lives in tests/: every function, class and method
defined in src/bankadapt is used by src/, scripts/ or perfbench/."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Names kept in src/ although nothing there uses them yet, each with the
# reason.
ALLOWED = {
    # the weak-pair mask of a synthetic bank: ROADMAP item 5 (pseudo-label
    # precision against the ground truth) needs it
    "weak_pair_mask",
}


def test_src_holds_no_test_only_code():
    texts = [path.read_text(encoding="utf-8")
             for folder in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    defined = Counter(
        node.name
        for path in sorted((ROOT / "src" / "bankadapt").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__")))
    unused = sorted(
        name for name, definitions in defined.items() if name not in ALLOWED
        and sum(len(re.findall(rf"\b{name}\b", text)) for text in texts)
        == definitions)
    assert unused == [], unused
