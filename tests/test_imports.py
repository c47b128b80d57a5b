"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iosc"

# bench/test_bench.py checks that the tracer rebinds these aliases, so the
# modules keep them though they no longer call count_zpm
KEPT = {("zeta", "count_zpm"), ("expsum", "count_zpm")}


def imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names the module's imports bind, and the names it reads,
    including those inside quoted annotations."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if getattr(node, "module", None) != "__future__":
                    imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name)}
    return imported, used


MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    imported, used = imported_and_used(ast.parse((SRC / f"{module}.py").read_text()))
    unused = sorted(name for name in imported - used if (module, name) not in KEPT)
    assert unused == [], f"{module} imports {unused} and never uses them"


def test_the_kept_imports_are_the_only_exceptions():
    # a kept name the module starts using again no longer needs the exception
    for module, name in KEPT:
        imported, used = imported_and_used(ast.parse((SRC / f"{module}.py").read_text()))
        assert name in imported and name not in used
