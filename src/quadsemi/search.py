"""Sweeps over generator sets: a census of all pairs of monic quadratics
over a field, the a / a+1 family of irreducible pairs, and exhaustive
verification of the two shift-free non-existence facts at small primes:

  * p = 7 (mod 8): a single generator x^2 - b never yields an
    all-irreducible semigroup, whatever b.
  * p = 3 (mod 4): no pair x^2 - b_f, x^2 - b_g with b_f, b_g distinct
    non-squares yields an all-irreducible semigroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .criterion import (
    check_semigroup_irreducible,
    max_indegree_from_nonsquares,
    reachable_subgraph,
    verdict_from_graph,
)
from .field import Field, make_field
from .quadratic import GeneratorSet, MonicQuadratic

CENSUS_FILTERS = ("all", "irreducible-generators-only", "no-linear-term")


@dataclass(frozen=True)
class CensusRow:
    """One unordered pair of distinct monic quadratics and its verdict.

    first <= second as (a, b) tuples; witness_len is 0 for irreducible
    verdicts; reach_size counts positive-length reachable nodes.
    """

    q: int
    first: tuple[int, int]
    second: tuple[int, int]
    irreducible: bool
    witness_len: int
    reach_size: int


def _census_quadratics(field: Field, census_filter: str) -> list[MonicQuadratic]:
    if census_filter not in CENSUS_FILTERS:
        raise ValueError(
            f"unknown filter {census_filter!r}; expected one of {CENSUS_FILTERS}"
        )
    quads = [
        MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)
    ]
    if census_filter == "irreducible-generators-only":
        quads = [f for f in quads if not field.is_square(f.b)]
    elif census_filter == "no-linear-term":
        quads = [f for f in quads if f.a == 0]
    return quads


def census_pairs(
    field: Field, census_filter: str = "all", limit: int | None = None
) -> list[CensusRow]:
    """One row per unordered pair of distinct quadratics passing the
    filter, in lexicographic (a1, b1) < (a2, b2) order; limit keeps the
    first rows of that order (none for 0; a negative limit is refused).
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    rows: list[CensusRow] = []
    quads = _census_quadratics(field, census_filter)
    for f, g in itertools.islice(itertools.combinations(quads, 2), limit):
        graph = reachable_subgraph(GeneratorSet(field, [f, g]))
        verdict = verdict_from_graph(graph)
        rows.append(
            CensusRow(
                q=field.q,
                first=(f.a, f.b),
                second=(g.a, g.b),
                irreducible=verdict.irreducible,
                witness_len=len(verdict.witness) if verdict.witness else 0,
                reach_size=len(graph.nodes),
            )
        )
    return rows


def example_family(field: Field) -> list[int]:
    """All a with a and a+1 both non-squares; q = 1 (mod 4) required so
    that -a is then a non-square as well.

    Each such a yields the pair (x-a)^2 + a, (x-(a+1))^2 + a whose
    compositions are all irreducible; that is re-checked here before a
    is returned.
    """
    if field.q % 4 != 1:
        raise ValueError(
            f"requires q = 1 (mod 4); got q = {field.q} = {field.q % 4} (mod 4)"
        )
    family: list[int] = []
    for a in range(field.q):
        if field.is_square(a) or field.is_square(field.add(a, 1)):
            continue
        b = field.neg(a)
        pair = GeneratorSet(
            field,
            [MonicQuadratic(a, b), MonicQuadratic(field.add(a, 1), b)],
        )
        verdict = check_semigroup_irreducible(pair)
        if not verdict.irreducible:  # cannot happen; guards the invariant
            raise AssertionError(f"family member a={a} unexpectedly reducible")
        family.append(a)
    return family


def _checked_prime_field(p: int, residue: int, modulus: int) -> Field:
    if p % modulus != residue:
        raise ValueError(
            f"requires a prime p = {residue} (mod {modulus}); "
            f"got p = {p} = {p % modulus} (mod {modulus})"
        )
    return make_field(p)  # raises if p is not an odd prime


@dataclass(frozen=True)
class SingleGeneratorRecord:
    """Verdict for the singleton set {x^2 - b} at one value of b."""

    b: int
    b_is_square: bool
    irreducible: bool
    witness: tuple[int, ...]


def single_generator_records(p: int) -> list[SingleGeneratorRecord]:
    """Verdicts for {x^2 - b} over every b in F_p, for p = 7 (mod 8)."""
    field = _checked_prime_field(p, residue=7, modulus=8)
    records = []
    for b in range(p):
        verdict = check_semigroup_irreducible(
            GeneratorSet(field, [MonicQuadratic(0, b)])
        )
        records.append(
            SingleGeneratorRecord(
                b=b,
                b_is_square=field.is_square(b),
                irreducible=verdict.irreducible,
                witness=verdict.witness or (),
            )
        )
    return records


def verify_lemma_p7mod8(p: int) -> bool:
    """True iff every singleton {x^2 - b} over F_p has a reducible
    composition — square b splits at degree 2, and for p = 7 (mod 8)
    every non-square b is caught by the reachability check.
    """
    return all(not r.irreducible for r in single_generator_records(p))


@dataclass(frozen=True)
class NonSquarePairRecord:
    """Verdict and graph statistics for {x^2 - b_f, x^2 - b_g} with
    b_f, b_g distinct non-squares, over a prime p = 3 (mod 4).

    all_nodes_nonsquare is the hypothesis under which the node count
    would be pinched into 1..(p-1)/2 and in-degrees forced to 1; the
    verdicts show it never holds.  indegree_at_most_one restricts to
    edges between non-square nodes, where the bound is unconditional.
    """

    b_f: int
    b_g: int
    irreducible: bool
    witness: tuple[int, ...]
    node_count: int
    square_node_count: int
    all_nodes_nonsquare: bool
    indegree_at_most_one: bool


def _nonsquare_pairs(p: int) -> Iterator[GeneratorSet]:
    """{x^2 - b_f, x^2 - b_g} for non-squares b_f < b_g of F_p, p = 3 (mod 4)."""
    field = _checked_prime_field(p, residue=3, modulus=4)
    nonsquares = [b for b in range(p) if not field.is_square(b)]
    return (
        GeneratorSet(field, [MonicQuadratic(0, b_f), MonicQuadratic(0, b_g)])
        for b_f, b_g in itertools.combinations(nonsquares, 2)
    )


def nonsquare_pair_records(p: int) -> list[NonSquarePairRecord]:
    """Verdict and whole-closure statistics for each of _nonsquare_pairs(p)."""
    records = []
    for s in _nonsquare_pairs(p):
        graph = reachable_subgraph(s)
        verdict = verdict_from_graph(graph)
        squares = graph.square_nodes()
        records.append(
            NonSquarePairRecord(
                b_f=s.gens[0].b,
                b_g=s.gens[1].b,
                irreducible=verdict.irreducible,
                witness=verdict.witness or (),
                node_count=len(graph.nodes),
                square_node_count=len(squares),
                all_nodes_nonsquare=not squares,
                indegree_at_most_one=max_indegree_from_nonsquares(graph) <= 1,
            )
        )
    return records


def verify_prop_p3mod4(p: int) -> bool:
    """True iff every shift-free pair of distinct non-square b values
    over F_p has a reducible composition (p = 3 (mod 4)).
    """
    return not any(
        check_semigroup_irreducible(s).irreducible for s in _nonsquare_pairs(p)
    )


def census_tsv(rows: list[CensusRow]) -> str:
    """Tab-separated census with a fixed header; verdicts rendered as
    irreducible/reducible.
    """
    lines = ["q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size"]
    for r in rows:
        verdict = "irreducible" if r.irreducible else "reducible"
        lines.append(
            f"{r.q}\t{r.first[0]}\t{r.first[1]}\t{r.second[0]}\t{r.second[1]}"
            f"\t{verdict}\t{r.witness_len}\t{r.reach_size}"
        )
    return "\n".join(lines) + "\n"


def census_json(rows: list[CensusRow]) -> list[dict]:
    """Census rows as JSON-ready dicts, same order and fields as the TSV."""
    return [
        {
            "q": r.q,
            "a1": r.first[0],
            "b1": r.first[1],
            "a2": r.second[0],
            "b2": r.second[1],
            "verdict": "irreducible" if r.irreducible else "reducible",
            "witness_len": r.witness_len,
            "reach_size": r.reach_size,
        }
        for r in rows
    ]
