"""Every private function, method and class of the package is referenced
in the package outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iosc"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.AST) -> Counter:
    """How often each name is read in the tree: as a variable, as an
    attribute, or as a string that is an identifier (a quoted annotation,
    a getattr name)."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names[node.value] += 1
    return names


def private_defs() -> list[tuple[str, ast.AST]]:
    return [
        (module, node)
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.endswith("__")
    ]


def test_the_guard_sees_the_private_helpers():
    names = {node.name for _, node in private_defs()}
    assert {"_count_naive", "_top", "_LiftState"} <= names


def test_every_private_helper_is_referenced():
    everywhere = sum((references(tree) for tree in TREES.values()), Counter())
    # a reference inside the helper's own body, as in recursion, keeps
    # nothing alive
    dead = sorted(
        f"{module}.{node.name}"
        for module, node in private_defs()
        if everywhere[node.name] == references(node)[node.name]
    )
    assert dead == [], f"{dead} are defined and never used"
