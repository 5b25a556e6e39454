"""The package keeps zero runtime dependencies: every absolute import in
``src/quadsemi`` names the standard library or the package itself.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "quadsemi").glob("*.py"))


def absolute_imports(path):
    # ast.walk also reaches imports under ``if TYPE_CHECKING:`` and
    # inside functions
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_are_stdlib_or_quadsemi():
    assert SOURCES
    foreign = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in absolute_imports(path)
        if name.split(".")[0] != "quadsemi"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
