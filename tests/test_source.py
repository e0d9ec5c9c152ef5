"""Checks on the shape of the source.

Code used only by tests lives in tests/: every function, class and method
defined in src/bankadapt is used by src/, scripts/ or perfbench/.  A
bank file and a bank in memory are told apart in embank.py only, and only
embank.py handles a container's bytes: every other module goes through
its layouts.  A row's float64 copy is made in embank.py and sampler.py
only, and one function of sampler.py multiplies chunks.
"""

import ast
from pathlib import Path

from bankadapt import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bankadapt"

# Names kept in src/ although nothing there uses them yet, each with the
# reason.
ALLOWED = {
    # the weak-pair mask of a synthetic bank: ROADMAP item 5 (pseudo-label
    # precision against the ground truth) needs it
    "weak_pair_mask",
}


def _trees(*folders):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))]


def _referenced(node) -> list[str]:
    """The names node refers to: a name, an attribute, or the dotted parts
    of an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    return []


def test_src_holds_no_test_only_code():
    """A name counts as used when code refers to it (a name, an attribute
    or an import) or when it is a key of cli._LAZY, through which the
    commands look names up; a word in a docstring or a comment does not
    count."""
    used = set(cli._LAZY)
    for tree in _trees("src", "scripts", "perfbench"):
        for node in ast.walk(tree):
            used.update(_referenced(node))
    defined = {
        node.name
        for tree in _trees("src/bankadapt")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))}
    unused = sorted(defined - ALLOWED - used)
    assert unused == [], unused


def test_only_embank_tells_a_bank_file_from_a_bank_in_memory():
    """read_bank takes a DATB path or an EmbeddingBank alike, so no module
    but embank.py asks isinstance(..., EmbeddingBank)."""
    asking = sorted(
        path.name for path in PACKAGE.glob("*.py") if path.name != "embank.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any("EmbeddingBank" in _referenced(part)
                for part in ast.walk(node.args[1])))
    assert asking == [], asking


def test_only_the_bank_and_the_precision_report_refer_to_latent_classes():
    """latent_class is ground truth for precision reporting only: the
    scoring and the trainer never read it.  So no module refers to it (a
    name, an attribute, a keyword or a string of the name) but embank.py,
    which stores it, synth.py, which makes it, sampler.py, which carries it
    from stage 1 to the precision, and cli.py, which reports it."""
    def refers(node):
        return ("latent_class" in _referenced(node)
                or isinstance(node, ast.keyword) and node.arg == "latent_class"
                or isinstance(node, ast.Constant) and node.value == "latent_class")

    referring = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name not in {"embank.py", "synth.py", "sampler.py", "cli.py"}
        and any(refers(node) for node in ast.walk(
            ast.parse(path.read_text(encoding="utf-8")))))
    assert referring == [], referring


def test_only_embank_handles_container_bytes():
    """The formats are declared once, as embank.py's layouts, so no other
    module refers to the container mechanics behind write_file and
    read_fields."""
    mechanics = {"write_container", "read_container", "_PayloadReader"}
    referring = sorted(
        path.name for path in PACKAGE.glob("*.py") if path.name != "embank.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if mechanics & set(_referenced(node)))
    assert referring == [], referring


def test_only_the_reader_and_the_selector_copy_rows_to_float64():
    """A unit row's float64 copy and norm are made by embank.copy_with_norms
    only where they are needed: in embank.py, for a block of a unit-row
    field that the float32 screen cannot certify, and in sampler.py, for
    the query rows and the rows the selector's float32 screen keeps.  No
    third module calls it, so no third float64 copy of every row comes
    back."""
    calling = sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "copy_with_norms" in _referenced(node.func))
    assert set(calling) == {"embank.py", "sampler.py"}, calling


def test_only_the_scoring_pass_multiplies_chunks():
    """One matmul scores each chunk, in TopKSelector._best, which screens
    the chunk and assigns its rows from the same scores: no other function
    of sampler.py calls np.matmul or multiplies by the @ operator."""
    tree = ast.parse((PACKAGE / "sampler.py").read_text(encoding="utf-8"))
    multiplying = sorted(
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and "matmul" in _referenced(node.func)
                or isinstance(node, ast.MatMult) for node in ast.walk(func)))
    assert multiplying == ["_best"], multiplying
