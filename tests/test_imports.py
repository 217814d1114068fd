"""The library's imports, read with the stdlib ast module alone: no module
under src/hydrenyi imports mpmath, or a name that it never uses."""

import ast
from pathlib import Path

import pytest

import hydrenyi

MODULES = sorted(Path(hydrenyi.__file__).resolve().parent.glob("*.py"))

# Imported but not used by the module itself: the benchmark's tracer
# (perfbench/tracing.py) replaces these names on the module.
PATCHED_FROM_OUTSIDE = {("entropy", "pochhammer")}


def _imports(tree: ast.Module):
    """(module, bound name) for each import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.module or "", alias.asname or alias.name


def _used(tree: ast.Module) -> set[str]:
    """The names the module reads, and those its __all__ exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {element.value for element in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_imports_are_used_and_not_mpmath(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = list(_imports(tree))
    assert [m for m, _ in imports if m.partition(".")[0] == "mpmath"] == []
    unused = {name for _, name in imports} - _used(tree)
    allowed = {name for stem, name in PATCHED_FROM_OUTSIDE if stem == path.stem}
    assert unused == allowed
