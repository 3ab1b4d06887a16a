"""Static hygiene of the package source, checked with the standard library's
``ast`` alone.

A deleted class or helper often leaves its import behind; this test flags
every name a module under ``src/daslab`` imports and never uses.
"""

import ast
from pathlib import Path

import daslab

PACKAGE = Path(daslab.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads and
    ``__all__`` does not export."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom json import dumps, loads\n\nprint(loads('1'))\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


def test_checker_counts_exports_and_attribute_roots():
    source = "import numpy as np\nfrom . import model\n__all__ = ['model']\nx = np.eye(2)\n"
    assert unused_imports(source) == []


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    problems = [
        f"{path.name} {entry}"
        for path in modules
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert problems == []
