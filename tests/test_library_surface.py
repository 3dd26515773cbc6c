"""The library ships only what its controllers, harness and CLI use.

Every public top-level function or class in ``src/robust_mppi`` must either
be referenced by name from library code outside its own definition or be
exported through the package's ``__all__``.  Anything else is used only by
tests and belongs in ``tests/oracles.py`` or the test that needs it.  The
same holds one level down: every dataclass or NamedTuple field and every
property of a library class must be read as an attribute somewhere in the
library or in the benchmark's tracer, which counts what the controllers
return.

Its only runtime dependency is numpy: ``pyproject.toml`` declares nothing
else, and no module imports anything outside the standard library, numpy
and the package itself.

The benchmark's tracer (``perfbench/layers.py``) wraps library functions and
methods by name, so every name it lists must still resolve; a rename would
otherwise surface only when a traced benchmark run starts.  It wraps
``apply_batch`` on the feedback policy classes it lists, so every policy
class in ``feedback.py`` must be on that list.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path
from typing import Protocol

import pytest

import robust_mppi

PACKAGE = Path(robust_mppi.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "layers.py"


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


def attributes_read(path: Path) -> set[str]:
    """Attribute names loaded anywhere in the module at ``path`` (``obj.name``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_field_is_read_by_the_library_or_the_tracer():
    read = set().union(*(attributes_read(p) for p in [*PACKAGE.glob("*.py"), TRACER]))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"robust_mppi.{path.stem}")
        for name, cls in vars(module).items():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls):
                fields = [f.name for f in dataclasses.fields(cls)]
            else:
                fields = list(getattr(cls, "_fields", ()))  # a NamedTuple
            fields += [attr for attr, value in vars(cls).items() if isinstance(value, property)]
            unread += [f"{path.stem}.{name}.{f}" for f in fields if f not in read]
    assert not unread, f"fields no library code or tracer reads: {unread}"


def test_pyproject_declares_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared]
    assert names == ["numpy"], f"runtime dependencies: {declared}"


def test_the_library_imports_only_the_standard_library_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "robust_mppi"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [
                f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in allowed
            ]
    assert not outside, f"imports outside the standard library, numpy and the package: {outside}"


def tracer_constant(name: str):
    """The literal value assigned to ``name`` at the top level of the tracer module."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{name} is not assigned in {TRACER.name}")


def test_every_traced_name_resolves_in_the_library():
    missing = []
    for span, (module, attr) in tracer_constant("FUNCTION_SPANS").items():
        owner = importlib.import_module(f"robust_mppi.{module}")
        if "." in attr:
            # a method is wrapped on its class, looked up in the class dict
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(span)
    feedback = importlib.import_module("robust_mppi.feedback")
    for cls_name in tracer_constant("APPLY_BATCH_CLASSES"):
        cls = getattr(feedback, cls_name, None)
        if cls is None or "apply_batch" not in vars(cls):
            missing.append(f"feedback.{cls_name}.apply_batch")
    assert not missing, f"traced names that no longer resolve: {missing}"


def test_every_feedback_policy_class_is_traced():
    # a policy missing from the list would run unwrapped, and its corrections
    # would drop out of the per-layer numbers without an error
    feedback = importlib.import_module("robust_mppi.feedback")
    policies = {
        name
        for name, cls in vars(feedback).items()
        if inspect.isclass(cls)
        and cls.__module__ == feedback.__name__
        and "apply_batch" in vars(cls)
        and Protocol not in cls.__bases__
    }
    assert policies, "no feedback policy class found"
    untraced = policies - set(tracer_constant("APPLY_BATCH_CLASSES"))
    assert not untraced, f"feedback policies the tracer does not wrap: {sorted(untraced)}"
