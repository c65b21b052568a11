"""clustermod has no runtime dependencies: the package imports only the standard
library and itself, and pyproject.toml declares none.  numpy, sympy, networkx and
hypothesis may be installed for tests and benchmarks, so an accidental import of
one of them would not fail anything else."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "clustermod").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports of one module (relative ones skipped)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {str(p.relative_to(ROOT)): sorted(_absolute_imports(p) - sys.stdlib_module_names)
               for p in SOURCES}
    assert {p: names for p, names in outside.items() if names} == {}


def test_pyproject_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
