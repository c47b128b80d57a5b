"""No module of the package uses a private name (one with a leading
underscore) of another module, but for a short allow-list: a name read
as `from .module import _name` or as `module._name`, with module bound by
`from . import module [as alias]`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iosc"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}

# (user, owner, name) of the private names shared between two modules
ALLOWED = {
    # the box count runs the ring counts' scan and split routines
    ("circle", "ringcount", "_count_naive"),
    ("circle", "ringcount", "_split_zeros"),
    # value_histogram tallies the split's value-vector codes
    ("expsum", "ringcount", "_codes"),
    # the zeta command reports what the zeta helpers compute on one LocalData
    ("cli", "zeta", "_ord_distribution"),
    ("cli", "zeta", "_compa"),
    ("cli", "zeta", "_zeta_series"),
    ("cli", "zeta", "_pole_report"),
}


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses() -> set[tuple[str, str, str]]:
    """(user, owner, name) for every private name of the module owner that
    the module user imports or reads as an attribute of owner."""
    uses = set()
    for user, tree in TREES.items():
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif private(alias.name):
                        uses.add((user, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and private(node.attr)
            ):
                uses.add((user, modules[node.value.id], node.attr))
    return uses


def test_no_module_uses_another_modules_private_names():
    extra = sorted(private_uses() - ALLOWED)
    assert extra == [], f"{extra} use another module's private names"


def test_every_allowed_private_use_is_still_made():
    # an entry whose use is gone, or whose name went public, is dropped
    stale = sorted(ALLOWED - private_uses())
    assert stale == [], f"{stale} are allowed but no longer used"
