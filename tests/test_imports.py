"""The library's names, read with the stdlib ast module alone: no module
under src/hydrenyi imports mpmath, imports a name that it never uses, or
defines a private module-level name that it never reads."""

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


def _private_definitions(tree: ast.Module):
    """The private names (one leading underscore) that the module's own
    top-level statements bind: constants, functions and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_private_names_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert [name for name in _private_definitions(tree) if name not in read] == []
