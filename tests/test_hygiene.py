"""Static checks over the package source: imports are used, ``__all__`` is true.

Each module is parsed, not imported.  ``__init__.py`` re-exports by
importing, so the unused-import check leaves it out; the public-name
check covers the modules that declare ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import qkdbench

MODULES = sorted(Path(qkdbench.__file__).parent.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return None


def top_level_names(tree: ast.Module) -> set[str]:
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_exist(path):
    tree = parse(path)
    exported = declared_all(tree) or []
    missing = sorted(set(exported) - top_level_names(tree))
    assert not missing, f"{path.name}: __all__ names {missing} are not defined"


@pytest.mark.parametrize("path", [p for p in MODULES if declared_all(parse(p)) is not None], ids=lambda p: p.name)
def test_public_defs_listed_in_all(path):
    tree = parse(path)
    exported = declared_all(tree)
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unlisted = sorted(public - set(exported))
    assert not unlisted, f"{path.name}: public names {unlisted} missing from __all__"
