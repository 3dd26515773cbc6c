"""The library ships only what its controllers, harness and CLI use.

Every public top-level function or class in ``src/robust_mppi`` must either
be referenced by name from library code outside its own definition or be
exported through the package's ``__all__``.  Anything else is used only by
tests and belongs in ``tests/oracles.py`` or the test that needs it.
"""

import ast
from pathlib import Path

import robust_mppi

PACKAGE = Path(robust_mppi.__file__).resolve().parent


def names_used(node: ast.AST) -> set[str]:
    """Names read in ``node``: bare names and attribute names (``mod.name``)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_public_definition_is_used_by_the_library_or_exported():
    definitions = []  # (module, name, defining node)
    uses = []  # (defining node or None, names used by that top-level statement)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if is_def and not stmt.name.startswith("_"):
                definitions.append((path.stem, stmt.name, stmt))
            uses.append((stmt if is_def else None, names_used(stmt)))

    unused = [
        f"{module}.{name}"
        for module, name, node in definitions
        if name not in robust_mppi.__all__
        and not any(name in used for owner, used in uses if owner is not node)
    ]
    assert not unused, f"public but used only outside the library: {unused}"
