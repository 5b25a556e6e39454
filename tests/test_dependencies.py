"""The package keeps zero runtime dependencies: every absolute import in
``src/quadsemi`` names the standard library or the package itself.  And
importing the CLI loads every package module eagerly and no
``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "quadsemi").glob("*.py"))


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


def test_cli_import_loads_every_module_and_no_dataclasses():
    # a fresh interpreter without site, so only the package's own
    # imports count; the benchmark's tracer reads every module from
    # sys.modules right after importing quadsemi.cli
    probe = (
        "import json, sys, quadsemi.cli; "
        "print(json.dumps(sorted(k for k in sys.modules "
        "if k == 'dataclasses' or k.startswith('quadsemi'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["quadsemi"] + [
        f"quadsemi.{m}"
        for m in ("cli", "criterion", "field", "oracle", "polys", "quadratic", "search")
    ]
