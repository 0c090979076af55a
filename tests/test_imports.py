"""The package depends on numpy alone: every module of src/mdap imports
only the standard library, numpy and its own modules (relatively)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdap"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_roots(path: Path):
    """(line, top-level module) of each absolute import in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    stray = [f"{path.relative_to(PACKAGE)}:{line} imports {root}"
             for path in modules for line, root in imported_roots(path) if root not in ALLOWED]
    assert not stray, stray
