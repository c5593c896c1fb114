"""Source hygiene of the bellkit package, read with the standard library's `ast` (no linter is required)."""

import ast
from pathlib import Path

import pytest

import bellkit

# __init__.py imports names to re-export them.
MODULES = sorted(path for path in Path(bellkit.__file__).parent.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that `source`'s imports bind and that no name, attribute root or `__all__` entry uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_imports_no_name_it_never_uses(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, sys as system\nfrom .core import a, b\nprint(a, os.sep)\n"
    assert _unused_imports(source) == ["line 2: system", "line 3: b"]
