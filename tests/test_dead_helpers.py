"""Every private function, method and class of the package is referenced
in the package outside its own definition, and so is every public one that
iosc/__init__.py does not export, but for a short allow-list."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iosc"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
EXPORTED = {
    alias.asname or alias.name
    for node in ast.walk(TREES["__init__"])
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}

# public names that nothing in the package calls, each kept for a reason.
# The CLI's cmd_* need no entry, since its parser references each of
# them; the count_zpm imports of zeta and expsum are imports, not
# definitions, and tests/test_imports.py keeps them (KEPT).
ALLOWED = {
    # bench/tracer.py wraps these to count evaluation rows and calls
    "ringcount.eval_poly_mod",
    "gf.GFTable.eval_poly",
    "poly.Poly.eval_poly",
    "zeta.ord_volumes",
    # a constructor of the exported Region; the tests build reduction
    # regions with it
    "ringcount.Region.reduction_in",
}


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


def public_defs() -> list[tuple[str, ast.AST]]:
    """(module.Class.name or module.name, node) of every public function,
    method and class that iosc/__init__.py does not export."""
    found = []

    def visit(prefix: str, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, DEFS):
                if not node.name.startswith("_") and node.name not in EXPORTED:
                    found.append((f"{prefix}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    visit(f"{prefix}.{node.name}", node.body)

    for module, tree in TREES.items():
        visit(module, tree.body)
    return found


def unreferenced(defs: list[tuple[str, ast.AST]]) -> list[str]:
    """The names of the defs that nothing outside their own body reads."""
    everywhere = sum((references(tree) for tree in TREES.values()), Counter())
    # a reference inside the def's own body, as in recursion, keeps
    # nothing alive
    return sorted(
        name for name, node in defs if everywhere[node.name] == references(node)[node.name]
    )


def test_the_guard_sees_the_private_helpers():
    names = {node.name for _, node in private_defs()}
    assert {"_count_naive", "_top", "_Lift"} <= names


def test_every_private_helper_is_referenced():
    dead = unreferenced([(f"{module}.{node.name}", node) for module, node in private_defs()])
    assert dead == [], f"{dead} are defined and never used"


def test_the_guard_sees_public_names_and_methods():
    names = {name for name, _ in public_defs()}
    assert {"ringcount.Grid", "ringcount.Grid.chunks", "gf.GFTable.eval_poly"} <= names
    # exported names are the API and are not checked
    assert "ringcount.count_zpm" not in names


def test_every_unexported_public_name_is_referenced_or_allowed():
    dead = [name for name in unreferenced(public_defs()) if name not in ALLOWED]
    assert dead == [], f"{dead} are defined, not exported and never used"


def test_the_allowed_names_are_the_only_exceptions():
    # an allowed name that is deleted, exported or used again no longer
    # needs its entry
    assert sorted(ALLOWED) == unreferenced([d for d in public_defs() if d[0] in ALLOWED])
