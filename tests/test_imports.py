"""Runtime dependencies stay numpy only: every module of the package imports
only the standard library, numpy and the package itself.  The modules are
read with `ast`, not imported, so an import inside a function counts too."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foldcast"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "foldcast"}


def imported_roots(path: Path):
    """The top-level name of every absolute import in the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_stdlib_numpy_and_foldcast():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    foreign = sorted(f"{p.relative_to(PACKAGE)}: {root}" for p in modules
                     for root in imported_roots(p) if root not in ALLOWED)
    assert not foreign, foreign
