"""Static hygiene of ``src/starwick``, checked with the standard library's ``ast``.

No linter is a test dependency, so two of its checks are spelled out here:
every name a module imports is used in that module (the package
``__init__`` imports to re-export, so it is exempt), and every private
``_name`` a module defines (a function, method, class or module-level
assignment) is referenced somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "starwick"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _read_names(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names and the strings listed in ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(elt.value for elt in node.value.elts)
    return out


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module) -> list[str]:
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    names += [t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if _private(name)]


def _references() -> set[str]:
    """Every name read, attribute accessed or name imported anywhere in the package."""
    out = set()
    for tree in TREES.values():
        out |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    assert sorted(set(imported) - _read_names(tree)) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_definition_is_referenced(module):
    references = _references()
    unused = [name for name in _private_definitions(TREES[module]) if name not in references]
    assert unused == []
