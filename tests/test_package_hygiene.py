"""Static hygiene of the package source, checked with the standard library's
``ast`` alone.

A deleted class or helper often leaves its import behind, and a moved one
its old definition; these tests flag every name a module under
``src/daslab`` imports and never uses, and every top-level private function
or class that no module of the package references.  They also keep every
LAPACK decomposition behind the one boundary in ``linalg``, SciPy out of
the package, and ``np.kron`` out of it too: Pauli sums are built from bit
masks, and the Kronecker build is the tests' reference.
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


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level ``_private`` functions and classes of the modules in
    ``sources`` (file name -> source) that no module reads, by name or as
    an attribute."""
    defined = {}
    referenced = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined[node.name] = f"{name} line {node.lineno}: {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(entry for name, entry in defined.items() if name not in referenced)


def test_checker_flags_an_unreferenced_private_helper():
    sources = {
        "a.py": "def _kept():\n    pass\n\ndef _left():\n    pass\n\nclass _Old:\n    pass\n",
        "b.py": "from . import a\n\ndef public():\n    return a._kept()\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py line 4: _left", "a.py line 7: _Old"]


def test_every_private_helper_has_a_caller():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unreferenced_private_definitions(sources) == []


def imported_modules(source: str) -> list[str]:
    """Absolute modules that ``source`` imports anywhere, function bodies
    included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(f"line {node.lineno}: {node.module}")
    return sorted(found)


def test_import_checker_reads_function_bodies():
    source = (
        "import numpy as np\nfrom . import model\n"
        "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
        "def spline():\n    from scipy.interpolate import CubicSpline\n"
    )
    assert imported_modules(source) == [
        "line 1: numpy",
        "line 4: scipy.linalg",
        "line 8: scipy.interpolate",
    ]


def test_no_module_imports_scipy():
    """The package runs on numpy alone: no module imports SciPy, not even
    inside a function, so SciPy is a dependency of the tests only."""
    problems = [
        f"{path.name} {entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in imported_modules(path.read_text(encoding="utf-8"))
        if entry.split(": ")[1].split(".")[0] == "scipy"
    ]
    assert problems == []


LAPACK_SOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky"}


def direct_lapack_calls(source: str) -> list[str]:
    """References in ``source`` to a ``numpy.linalg`` decomposition, as
    ``<...>.linalg.<solver>`` or imported from ``numpy.linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in LAPACK_SOLVERS
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [
                f"line {node.lineno}: numpy.linalg.{alias.name}"
                for alias in node.names
                if alias.name in LAPACK_SOLVERS
            ]
    return sorted(found)


def test_lapack_checker_flags_direct_decompositions():
    source = (
        "import numpy as np\nfrom numpy.linalg import eigvalsh, norm\n"
        "w, v = np.linalg.eigh(a)\nu, s, vh = numpy.linalg.svd(b)\n"
        "x = np.linalg.norm(v)\nw, v = _lapack('eigh', a)\n"
    )
    assert direct_lapack_calls(source) == [
        "line 2: numpy.linalg.eigvalsh",
        "line 3: np.linalg.eigh",
        "line 4: numpy.linalg.svd",
    ]


def test_every_decomposition_goes_through_linalg():
    """Only ``linalg`` reaches ``numpy.linalg``'s decompositions, through
    its ``_lapack`` helper, which turns a solver that fails to converge into
    ``ConvergenceFailure`` (exit 3) in one place."""
    problems = [
        f"{path.name} {entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for entry in direct_lapack_calls(path.read_text(encoding="utf-8"))
    ]
    assert problems == []


def kron_calls(source: str) -> list[str]:
    """References in ``source`` to numpy's ``kron``, as ``<...>.kron`` or
    imported by name from numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kron":
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"line {node.lineno}: numpy.kron" for alias in node.names if alias.name == "kron"]
    return sorted(found)


def test_kron_checker_flags_attribute_and_import():
    source = "import numpy as np\nfrom numpy import kron, eye\nm = np.kron(a, b)\nk = 'np.kron'\n"
    assert kron_calls(source) == ["line 2: numpy.kron", "line 3: np.kron"]


def test_no_module_builds_with_kron():
    """Pauli terms are signed permutations built from bit masks
    (``model.pauli_sum_matrix``); no module forms a Kronecker product."""
    problems = [
        f"{path.name} {entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in kron_calls(path.read_text(encoding="utf-8"))
    ]
    assert problems == []
