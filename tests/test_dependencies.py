"""The package keeps zero runtime dependencies: every absolute import in
``src/quadsemi`` names the standard library or the package itself.  And
importing the CLI loads every package module eagerly and no
``dataclasses``.  The public surface is pinned, and so are the kernel
make_field picks, the names the benchmark's tracer in
``bench/spans.py`` reads from the package, and the target of the
console script.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import quadsemi
import quadsemi.cli
from quadsemi import (
    CrosscheckReport,
    Field,
    GeneratorSet,
    MonicQuadratic,
    ReachGraph,
    make_field,
    reachable_subgraph,
)
from quadsemi.field import _DigitField, _TableField

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SOURCES = sorted((SRC / "quadsemi").glob("*.py"))

PUBLIC = [
    "CENSUS_FILTERS",
    "CensusRow",
    "CrosscheckReport",
    "Field",
    "GeneratorSet",
    "MonicQuadratic",
    "NonSquarePairRecord",
    "REASON_GENERATOR",
    "REASON_REACHABLE",
    "ReachGraph",
    "SingleGeneratorRecord",
    "Verdict",
    "census_pairs",
    "check_semigroup_irreducible",
    "compose_word",
    "crosscheck",
    "distinguished_set",
    "evaluate",
    "example_family",
    "expand",
    "export_dot",
    "from_coeffs",
    "make_field",
    "max_indegree_from_nonsquares",
    "nonsquare_pair_records",
    "rabin_irreducible",
    "reachable_subgraph",
    "single_generator_records",
    "verdict_from_graph",
    "verify_lemma_p7mod8",
    "verify_prop_p3mod4",
    "witness_word",
    "word_irreducible",
]

# (owner, name) pairs deleted as surface that no command or output read
DELETED = [
    (quadsemi, "frobenius_power"),
    (quadsemi, "is_irreducible_quadratic"),
    (quadsemi.polys, "frobenius_power"),
    (quadsemi.polys, "poly_eval"),
    (quadsemi.polys, "_require_monic"),
    (quadsemi.quadratic, "is_irreducible_quadratic"),
    (Field, "digits"),
    (Field, "from_digits"),
    (Field, "elements"),
    (ReachGraph, "edges"),
    (ReachGraph, "targets"),
    (ReachGraph, "pred"),
    (ReachGraph, "node_set"),
    (quadsemi.criterion, "_PredView"),
    (quadsemi.criterion, "_map_kernel"),
    (quadsemi.field, "_digit_mulmod"),
    (quadsemi.field, "_digits_of"),
    (quadsemi.cli, "_print_check"),
    (quadsemi.cli, "_census_json_lines"),
    (Field, "_square_table"),
    (_DigitField, "_square_table"),
    (quadsemi.search, "census_tsv"),
]


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


def test_public_surface_is_pinned():
    assert quadsemi.__all__ == sorted(quadsemi.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(quadsemi, name) is not None
    for owner, name in DELETED:
        assert not hasattr(owner, name), (owner, name)


def test_make_field_picks_one_kernel_per_field():
    # the prime kernel is Field itself; an extension field takes the table
    # kernel up to the table limit and the digit kernel above it
    assert type(make_field(7)) is Field
    assert type(make_field(3, 2)) is _TableField
    assert type(make_field(3, 7)) is _TableField
    assert type(make_field(1031, 2)) is _DigitField
    assert issubclass(_TableField, _DigitField) and issubclass(_DigitField, Field)
    assert not {"_DigitField", "_TableField"} & set(quadsemi.__all__)


def benchmark_traced():
    """The TRACED list of bench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TRACED")


def test_names_the_benchmark_reads_resolve():
    traced = benchmark_traced()
    assert len(traced) == 13
    for module, function in traced:
        assert callable(getattr(importlib.import_module(f"quadsemi.{module}"), function))
    # the tracer walks a witness back to its seed through graph.parent,
    # whose first entry is the predecessor of a plain BFS
    field = make_field(7)
    s = GeneratorSet(field, [MonicQuadratic(0, 3), MonicQuadratic(0, 5)])
    graph = reachable_subgraph(s)
    assert graph.first_square is not None and graph.nodes
    pred, queue = {}, sorted({-g.b % 7 for g in s.gens})
    for u in queue:
        for g in s.gens:
            v = (u * u - g.b) % 7
            if v not in pred:
                pred[v] = u
                queue.append(v)
    assert {u: graph.parent[u][0] for u in graph.nodes} == pred
    # and the oracle workload reads the reducible tally of each length
    assert "reducible_per_length" in CrosscheckReport._fields


def test_console_script_target_resolves():
    # pyproject.toml is read as text, as Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(re.findall(r'^(\S+) = "([\w.]+:\w+)"$', section, re.MULTILINE))
    assert scripts == {"quadsemi": "quadsemi.cli:entry"}
    module, function = scripts["quadsemi"].split(":")
    assert callable(getattr(importlib.import_module(module), function))
