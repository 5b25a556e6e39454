"""Command-line front end.

Commands:
  check    decide whether every composition of the generators is irreducible
  witness  print the reducible witness word (and its dense form when small)
  words    compare the chain test against the dense test up to a depth
  census   sweep all pairs of monic quadratics over a field
  verify   run one of the exhaustive small-prime verifications
  dot      render the reachability graph in DOT format

check, witness, words and dot read a JSON document from a file (or stdin
when the path is "-"):

  {"field": {"p": 7}, "generators": [{"a": 0, "b": 3}, {"c1": 0, "c0": -5}]}

Each generator is given either in shifted form {a, b} meaning
(x - a)^2 - b, or by coefficients {c1, c0} meaning x^2 + c1 x + c0.
Exit codes: 0 = all compositions irreducible (or clean report),
1 = reducible (or mismatch found), 2 = bad input or out of memory,
141 = stdout closed before the output was written (as by `| head`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import operator
import os
import sys
from pathlib import Path
from typing import Iterable

from .criterion import (
    Verdict,
    _dot_lines,
    check_semigroup_irreducible,
    reachable_subgraph,
    verdict_from_graph,
)
from .field import Field, make_field
from .oracle import crosscheck
from .quadratic import GeneratorSet, MonicQuadratic, compose_word, from_coeffs
from .search import (
    _CENSUS_COLUMNS,
    CENSUS_FILTERS,
    _census,
    _census_tsv_lines,
    _census_values,
    _check_census_order,
    verify_lemma_p7mod8,
    verify_prop_p3mod4,
)

# Witness compositions are printed densely only up to this word length
# (degree 2^length coefficients).
_MAX_DENSE_WITNESS = 12


def _read_document(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    return doc


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    keys = set(obj)
    unknown = keys - allowed
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(sorted(unknown))}")
    missing = required - keys
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(sorted(missing))}")


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _parse_field(obj) -> Field:
    if not isinstance(obj, dict):
        raise ValueError('"field" must be an object')
    _require_keys(obj, {"p", "e", "modulus"}, {"p"}, "field")
    p = _as_int(obj["p"], '"p"')
    e = _as_int(obj.get("e", 1), '"e"')
    modulus = obj.get("modulus")
    if modulus is not None:
        if not isinstance(modulus, list):
            raise ValueError('"modulus" must be a list of coefficients')
        modulus = [_as_int(c, "modulus coefficient") for c in modulus]
    return make_field(p, e, modulus)


def _element(field: Field, value, what: str) -> int:
    v = _as_int(value, what)
    if field.e == 1:
        return v % field.p
    if not 0 <= v < field.q:
        raise ValueError(
            f"{what} must be an encoded element in [0, {field.q}), got {v}"
        )
    return v


def _parse_generator(field: Field, obj, index: int) -> MonicQuadratic:
    if not isinstance(obj, dict):
        raise ValueError(f"generator #{index} must be an object")
    keys = set(obj)
    if keys == {"a", "b"}:
        return MonicQuadratic(
            _element(field, obj["a"], f'generator #{index} "a"'),
            _element(field, obj["b"], f'generator #{index} "b"'),
        )
    if keys == {"c1", "c0"}:
        return from_coeffs(
            field,
            _element(field, obj["c1"], f'generator #{index} "c1"'),
            _element(field, obj["c0"], f'generator #{index} "c0"'),
        )
    raise ValueError(
        f'generator #{index} must have keys {{"a", "b"}} or {{"c1", "c0"}}, '
        f"got {{{', '.join(sorted(keys))}}}"
    )


def load_generator_set(doc: dict, max_generators: int) -> GeneratorSet:
    """Validate an input document and build the generator set, warning on
    stderr when duplicate generators are dropped.
    """
    _require_keys(doc, {"field", "generators"}, {"field", "generators"}, "input")
    field = _parse_field(doc["field"])
    raw = doc["generators"]
    if not isinstance(raw, list) or not raw:
        raise ValueError('"generators" must be a nonempty list')
    gens = [_parse_generator(field, g, i) for i, g in enumerate(raw)]
    generators = GeneratorSet(field, gens)
    dropped = len(gens) - len(generators)
    if dropped:
        print(
            f"warning: dropped {dropped} duplicate generator(s)", file=sys.stderr
        )
    if len(generators) > max_generators:
        raise ValueError(
            f"{len(generators)} generators exceed the cap of {max_generators} "
            "(raise with --max-generators)"
        )
    return generators


def _write(chunks: Iterable[str], sep: str = "", lead: str = "") -> str:
    """Write lead, then the chunks joined by sep, 2^12 chunks at a time:
    one string of a census of 2^20 rows takes GBs, and a batch keeps a
    large closure's peak low.  Returns lead when there were no chunks.
    """
    chunks = iter(chunks)
    for batch in iter(lambda: sep.join(itertools.islice(chunks, 1 << 12)), ""):
        sys.stdout.write(lead + batch)
        lead = sep
    return lead


# The value of the one payload slot, or the whole payload, that
# _print_json writes as a list from its items.  No other payload value is
# a string that could hold it.
_LIST = "\0list"


def _print_json(payload, items: Iterable[str] | None = None) -> None:
    """json.dumps(payload, indent=2, sort_keys=True) and a newline.  With
    items, the _LIST in payload stands for the list whose elements' JSON
    texts items gives, written through _write as they come and indented
    as the marker's line is: the encoder would hold them all at once,
    for check a boxed int of 40 B per node.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if items is not None:
        head, _, text = text.partition(json.dumps(_LIST))
        line = head[head.rfind("\n") + 1 :]
        indent = "\n" + line[: len(line) - len(line.lstrip(" "))]
        sys.stdout.write(head)
        lead = "[" + indent + "  "
        empty = _write(items, "," + indent + "  ", lead) == lead
        sys.stdout.write("[]" if empty else indent + "]")
    sys.stdout.write(text + "\n")


# One object of the census list as json.dumps(census_json(rows), indent=2,
# sort_keys=True) prints it: the keys sorted, the values read from
# _census_values in that order, the verdict one of two plain words.
_CENSUS_KEYS = sorted(range(len(_CENSUS_COLUMNS)), key=_CENSUS_COLUMNS.__getitem__)
_CENSUS_JSON_ROW = "{\n%s\n  }" % ",\n".join(
    f'    "{_CENSUS_COLUMNS[i]}": ' + ('"%s"' if _CENSUS_COLUMNS[i] == "verdict" else "%d")
    for i in _CENSUS_KEYS
)


def _verdict_payload(verdict: Verdict) -> dict:
    return {
        "verdict": "irreducible" if verdict.irreducible else "reducible",
        "reason": verdict.reason,
        "witness": list(verdict.witness) if verdict.witness else None,
    }


def cmd_check(args) -> int:
    generators = load_generator_set(_read_document(args.input), args.max_generators)
    graph = reachable_subgraph(generators)
    verdict = verdict_from_graph(graph)
    payload = {**_verdict_payload(verdict), "d_s": graph.seeds, "reach_nodes": _LIST}
    _print_json(payload, map(str, graph.nodes))
    return 0 if verdict.irreducible else 1


def cmd_witness(args) -> int:
    generators = load_generator_set(_read_document(args.input), args.max_generators)
    verdict = check_semigroup_irreducible(generators)
    composition = None
    if verdict.witness and len(verdict.witness) <= _MAX_DENSE_WITNESS:
        composition = compose_word(generators, verdict.witness)
    _print_json({**_verdict_payload(verdict), "composition": composition})
    return 0 if verdict.irreducible else 1


def cmd_words(args) -> int:
    generators = load_generator_set(_read_document(args.input), args.max_generators)
    report = crosscheck(generators, args.depth)
    _print_json(report.to_json())
    return 0 if report.ok() else 1


def cmd_census(args) -> int:
    _check_census_order(args.p, args.e)  # before a large field is built
    rows = _census(make_field(args.p, args.e), args.filter, args.limit)
    if args.format == "tsv":
        _write(_census_tsv_lines(rows))
    else:
        values = map(operator.itemgetter(*_CENSUS_KEYS), map(_census_values, rows))
        _print_json(_LIST, map(_CENSUS_JSON_ROW.__mod__, values))
    return 0


def cmd_verify(args) -> int:
    if args.lemma_7mod8 is not None:
        result = verify_lemma_p7mod8(args.lemma_7mod8)
    else:
        result = verify_prop_p3mod4(args.prop_3mod4)
    print("true" if result else "false")
    return 0 if result else 1


def cmd_dot(args) -> int:
    generators = load_generator_set(_read_document(args.input), args.max_generators)
    _write(_dot_lines(reachable_subgraph(generators)))
    return 0


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help='JSON input path, or "-" for stdin')
    parser.add_argument(
        "--max-generators",
        type=int,
        default=8,
        metavar="N",
        help="refuse inputs with more than N generators (default 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsemi",
        description=(
            "Decide whether every composition of a set of monic quadratics "
            "over an odd finite field is irreducible."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="decide the all-compositions-irreducible question"
    )
    _add_input_options(p_check)
    p_check.set_defaults(func=cmd_check)

    p_witness = sub.add_parser(
        "witness", help="print the witness word for a reducible set"
    )
    _add_input_options(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_words = sub.add_parser(
        "words", help="cross-validate the chain test against dense arithmetic"
    )
    _add_input_options(p_words)
    p_words.add_argument(
        "--depth",
        type=int,
        default=3,
        help="maximum word length to test (default 3)",
    )
    p_words.set_defaults(func=cmd_words)

    p_census = sub.add_parser(
        "census", help="sweep all pairs of monic quadratics over a field"
    )
    p_census.add_argument("--p", type=int, required=True, help="field characteristic")
    p_census.add_argument(
        "--e", type=int, default=1, help="extension degree (default 1)"
    )
    p_census.add_argument(
        "--filter",
        choices=CENSUS_FILTERS,
        default="all",
        help="restrict the swept quadratics (default all)",
    )
    p_census.add_argument(
        "--format", choices=("tsv", "json"), default="tsv", help="output format"
    )
    p_census.add_argument(
        "--limit", type=int, default=None, help="emit only the first N rows"
    )
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser(
        "verify", help="run an exhaustive small-prime verification"
    )
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--lemma-7mod8",
        type=int,
        metavar="P",
        help="check that no single x^2 - b works over F_P (P = 7 mod 8, P <= 2^20)",
    )
    which.add_argument(
        "--prop-3mod4",
        type=int,
        metavar="P",
        help=(
            "check that no shift-free pair of distinct non-squares works "
            "over F_P (P = 3 mod 4, P <= 2^20)"
        ),
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dot = sub.add_parser("dot", help="render the reachability graph as DOT")
    _add_input_options(p_dot)
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # a reader that stopped early is no error
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # reported out here, once the failed command's frames are freed; exit 1
    # would read as a reducible verdict
    print("error: out of memory", file=sys.stderr)
    return 2


def entry() -> None:
    status = main()
    if status == 141:
        # the interpreter's last flush would meet the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
