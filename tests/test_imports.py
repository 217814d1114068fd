"""The library's names, read with the stdlib ast module alone: no module
under src/hydrenyi imports mpmath, imports a name that it never uses, or
defines a module-level name that nothing reads."""

import ast
from pathlib import Path

import pytest

import hydrenyi

MODULES = sorted(Path(hydrenyi.__file__).resolve().parent.glob("*.py"))

# Imported but not used by the module itself: the benchmark's tracer
# (perfbench/tracing.py) replaces these names on the module.
PATCHED_FROM_OUTSIDE = {("entropy", "pochhammer")}

# Public names that no module under src/hydrenyi reads, and who reads them.
READ_FROM_OUTSIDE = {
    ("kernels", "BACKEND"): "perfbench/run.py's machine stamp",
    ("entropy", "angular_pochhammer_factor"): "perfbench/tracing.py and the tests",
    ("exactnum", "pochhammer"): "perfbench/tracing.py and the tests",
    ("entropy", "ns_position_entropy"): "perfbench/workloads.py",
    ("entropy", "ns_momentum_entropy"): "perfbench/workloads.py",
    ("entropy", "ns_position_entropy_exact"): "tests/test_acceptance.py",
    ("entropy", "ns_momentum_entropy_exact"): "tests/test_acceptance.py",
}


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


def _definitions(tree: ast.Module):
    """The names, but dunder names, that the module's own top-level
    statements bind: constants, functions and classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("__"))


def _read(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_private_names_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    assert [n for n in _definitions(tree) if n.startswith("_") and n not in read] == []


def test_public_names_are_read():
    # read in its own module, imported by name into a module that reads or
    # exports it, or read as an attribute of its module
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = set()
    for stem, tree in trees.items():
        used = _used(tree)
        read |= {(stem, name) for name in _read(tree)}
        read |= {
            (module.rpartition(".")[2], name) for module, name in _imports(tree) if name in used
        }
        read |= {
            (node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        }
    unread = {
        (stem, name) for stem, tree in trees.items() for name in _definitions(tree)
        if not name.startswith("_") and (stem, name) not in read
    }
    assert unread == set(READ_FROM_OUTSIDE)
