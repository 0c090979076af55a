"""The package depends on numpy alone: every module of src/mdap imports
only the standard library, numpy and its own modules (relatively). And no
module of src/mdap or tests imports a name it never uses."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mdap"
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


def unused_imports(path: Path):
    """(line, name) of each name an import binds in one source file that
    no expression of the file reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py's imports are the package's API, read by its importers
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    stray = [f"{path.name}:{line} imports {name} but never uses it"
             for path in modules for line, name in unused_imports(path)]
    assert not stray, stray
