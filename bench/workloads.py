"""The three workloads: how each runs one item and checks its output.

Checks use the benchmark's own reference arithmetic (reference.py) or,
for dense irreducibility over extension fields, the package's dense
Rabin path, which shares no code with the walk it checks.  A check
returns the number of failed operations of its item.  quadsemi is
imported late, so the cli runner stays small while it starts children.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import re
import sys

import inputs
import reference
from inputs import FAMILY, CliDoc, OracleItem, SweepItem

_NODE = re.compile(r'  "(\d+)"(?: \[(.*)\])?;')
_EDGE = re.compile(r'  "(\d+)" -> "(\d+)" \[label="(\w+)"\];')
_DOT_HEAD = ["digraph reach {", "  rankdir=LR;", "  node [shape=circle];"]
# Witness compositions are printed densely up to this word length.
_MAX_DENSE_WITNESS = 12


def _gen_index(name: str) -> int:
    return "fgh".index(name) if len(name) == 1 else int(name[1:])


def _quadsemi_set(p: int, e: int, gens):
    import quadsemi

    return quadsemi.GeneratorSet(
        _qs_field(p, e), [quadsemi.MonicQuadratic(a, b) for a, b in gens]
    )


@functools.cache
def _qs_field(p: int, e: int):
    import quadsemi

    return quadsemi.make_field(p, e)


# -- cli ----------------------------------------------------------------


@functools.cache
def _decided(p: int, e: int, gens):
    """The reference verdict of a document, once for all its passes."""
    return reference.decide(inputs.ref_field(p, e), gens)


def cli_failure(d: CliDoc, code: int, text: str) -> str | None:
    """Why the output of one CLI invocation is wrong, or None."""
    f, gens = d.field, d.gens
    seeds, nodes, reason = _decided(d.p, d.e, gens)
    if d.kind == FAMILY and reason is not None:
        return "family document is not irreducible by the reference"
    if d.command == "dot":
        return f"exit code {code}" if code != 0 else _dot_failure(d, seeds, nodes, text)
    expected_code = 0 if reason is None else 1
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    out = json.loads(text)
    verdict = "irreducible" if reason is None else "reducible"
    if (out["verdict"], out["reason"]) != (verdict, reason):
        return f"verdict {out['verdict']}/{out['reason']}, expected {verdict}/{reason}"
    witness = out["witness"]
    if reason is None:
        if witness is not None:
            return "witness printed for an irreducible set"
    else:
        why = _witness_failure(d, witness, reason)
        if why:
            return why
    if d.command == "check":
        if out["d_s"] != seeds:
            return "d_s differs from the distinguished set"
        reach = out["reach_nodes"]
        if len(reach) != len(nodes) or set(reach) != nodes:
            return "reach_nodes differ from the reference closure"
        return None
    composition = out["composition"]
    if witness is None or len(witness) > _MAX_DENSE_WITNESS:
        return None if composition is None else "unexpected composition"
    if len(composition) != 2 ** len(witness) + 1 or composition[-1] != 1:
        return "composition has the wrong degree"
    for x in (0, 1, f.q - 1):
        y = x
        for idx in reversed(witness):
            y = f.apply(gens[idx], y)
        if reference.eval_poly(f, composition, x) != y:
            return f"composition differs from the word at x = {x}"
    return None


def _witness_failure(d: CliDoc, witness, reason: str) -> str | None:
    f, gens = d.field, d.gens
    if not witness:
        return "no witness for a reducible set"
    if reason == "generator_reducible":
        first = next(i for i, g in enumerate(gens) if f.is_square(g[1]))
        if witness != [first]:
            return f"witness {witness}, expected [{first}]"
    if reference.first_chain_failure(f, gens, witness) != len(witness) - 1:
        return "witness is not reducible or has a reducible outer prefix"
    if d.e > 1:
        # dense check: the witness composition is reducible, its outer
        # prefixes are not
        import quadsemi

        qs = _quadsemi_set(d.p, d.e, gens)
        for cut in range(1, len(witness) + 1):
            dense = quadsemi.compose_word(qs, witness[:cut])
            if quadsemi.rabin_irreducible(qs.field, dense) != (cut < len(witness)):
                return f"dense Rabin disagrees on the witness prefix of length {cut}"
    return None


def _dot_failure(d: CliDoc, seeds, nodes: set[int], text: str) -> str | None:
    f, gens = d.field, d.gens
    lines = text.splitlines()
    if lines[:3] != _DOT_HEAD or lines[-1:] != ["}"]:
        return "DOT header or footer"
    drawn, circled, filled, edges = [], set(), set(), 0
    for line in lines[3:-1]:
        m = _EDGE.fullmatch(line)
        if m:
            u, v, name = int(m[1]), int(m[2]), m[3]
            if f.apply(gens[_gen_index(name)], u) != v:
                return f"edge {u} -> {v} [{name}] is not a map evaluation"
            edges += 1
            continue
        m = _NODE.fullmatch(line)
        if not m:
            return f"unparsed DOT line {line!r}"
        v, attrs = int(m[1]), m[2] or ""
        drawn.append(v)
        if "shape=doublecircle" in attrs:
            circled.add(v)
        if "style=filled" in attrs:
            filled.add(v)
    expected = set(seeds) | nodes
    if len(drawn) != len(expected) or set(drawn) != expected:
        return "DOT nodes differ from the seeds plus the reference closure"
    if circled != set(seeds):
        return "double-circled nodes differ from the seeds"
    if filled != {v for v in nodes if f.is_square(v)}:
        return "shaded nodes differ from the square nodes"
    if edges != len(expected) * len(gens):
        return f"{edges} edges, expected {len(expected) * len(gens)}"
    return None


def checked_cli_failure(d: CliDoc, code: int, text: str) -> str | None:
    """cli_failure, with unparsable output as a failure too."""
    try:
        return cli_failure(d, code, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output ({exc!r})"


class CliInProcess:
    """The cli documents through quadsemi.cli.main in this process, for
    the traced run; one op is one invocation.
    """

    def __init__(self, tmp):
        self.path = tmp / "doc.json"

    def build_fields(self) -> None:
        pass  # each command builds its own field

    def prepare(self, item: CliDoc) -> str:
        self.path.write_text(json.dumps(item.doc))
        return str(self.path)

    def run(self, item: CliDoc, path: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["quadsemi.cli"].main([item.command, path])
        return code, out.getvalue()

    def failed(self, item: CliDoc, result) -> int:
        why = checked_cli_failure(item, *result)
        if why:
            print(f"failed: {item.command} {item.doc}: {why}", file=sys.stderr)
        return 1 if why else 0

    @staticmethod
    def ops(item: CliDoc) -> int:
        return 1


# -- sweep --------------------------------------------------------------


class Sweep:
    """In-process verification sweeps and censuses; one op is one
    generator set decided.
    """

    def __init__(self):
        import quadsemi

        self.qs = quadsemi
        self.fields = {}
        self._census_checked: dict[tuple[int, int], list] = {}

    def build_fields(self) -> None:
        for function, candidates in inputs.SWEEP_RUNGS:
            if function == "census":
                for p, e in candidates:
                    self.fields[(p, e)] = self.qs.make_field(p, e)

    def prepare(self, item: SweepItem):
        return None

    def run(self, item: SweepItem, prepared):
        if item.function == "prop":
            return self.qs.verify_prop_p3mod4(item.p)
        if item.function == "lemma":
            return self.qs.verify_lemma_p7mod8(item.p)
        return self.qs.census_pairs(self.fields[(item.p, item.e)])

    def failed(self, item: SweepItem, result) -> int:
        if item.function != "census":
            return 0 if result is True else item.sets
        key = (item.p, item.e)
        if self._census_checked.get(key) == result:
            return 0  # same rows as an earlier, fully checked call
        bad = abs(len(result) - item.sets)
        f = inputs.ref_field(item.p, item.e)
        for row in result:
            gens = [row.first, row.second]
            _, nodes, reason = reference.decide(f, gens)
            square_b = any(f.is_square(b) for _, b in gens)
            if (
                row.irreducible != (reason is None)
                or (square_b and row.witness_len != 1)
                or (not row.irreducible and row.witness_len < 1)
                or row.reach_size != len(nodes)
            ):
                bad += 1
        if not bad:
            self._census_checked[key] = result
        return bad

    @staticmethod
    def ops(item: SweepItem) -> int:
        return item.sets


# -- oracle -------------------------------------------------------------


class Oracle:
    """In-process dense crosscheck; one op is one word compared."""

    def __init__(self):
        import quadsemi

        self.qs = quadsemi

    def build_fields(self) -> None:
        for p, e in inputs.oracle_fields():
            _qs_field(p, e)

    def prepare(self, item: OracleItem):
        return _quadsemi_set(item.p, item.e, item.gens)

    def run(self, item: OracleItem, prepared):
        return self.qs.crosscheck(prepared, item.depth)

    def failed(self, item: OracleItem, report) -> int:
        bad = len(report.mismatches) + abs(report.words - item.words)
        for length, irreducible in enumerate(_irreducible_per_length(item), 1):
            n = len(item.gens)
            tally = report.irreducible_per_length.get(length, -1)
            tally_red = report.reducible_per_length.get(length, -1)
            if tally != irreducible or tally + tally_red != n**length:
                bad += abs(tally - irreducible) or 1
        return bad

    @staticmethod
    def ops(item: OracleItem) -> int:
        return item.words



@functools.cache
def _irreducible_per_length(item: OracleItem) -> list[int]:
    """Irreducible words of each length 1..depth, by the reference chain."""
    f, n = inputs.ref_field(item.p, item.e), len(item.gens)
    return [
        sum(
            reference.first_chain_failure(f, item.gens, w) is None
            for w in itertools.product(range(n), repeat=length)
        )
        for length in range(1, item.depth + 1)
    ]
