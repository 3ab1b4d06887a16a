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


def imports_at_import_time(source: str) -> list[str]:
    """Absolute modules that ``source`` imports when it is itself imported:
    every import statement outside a function body."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(f"line {node.lineno}: {node.module}")
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_import_checker_skips_function_bodies():
    source = (
        "import numpy as np\nfrom . import model\n"
        "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
        "def spline():\n    from scipy.interpolate import CubicSpline\n"
    )
    assert imports_at_import_time(source) == ["line 1: numpy", "line 4: scipy.linalg"]


def test_no_module_imports_scipy_at_import_time():
    """The package runs on numpy alone; SciPy is reached only from inside
    the one function that needs it (``OscillatorySumSpec.from_samples``'s
    spline), so importing daslab never loads it."""
    problems = [
        f"{path.name} {entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in imports_at_import_time(path.read_text(encoding="utf-8"))
        if entry.split(": ")[1].split(".")[0] == "scipy"
    ]
    assert problems == []
