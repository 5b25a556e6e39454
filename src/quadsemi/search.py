"""Sweeps over generator sets: a census of all pairs of monic quadratics
over a field, the a / a+1 family of irreducible pairs, and exhaustive
verification of the two shift-free non-existence facts at small primes:

  * p = 7 (mod 8): a single generator x^2 - b never yields an
    all-irreducible semigroup, whatever b.
  * p = 3 (mod 4): no pair x^2 - b_f, x^2 - b_g with b_f, b_g distinct
    non-squares yields an all-irreducible semigroup.

The census walks one closure per unordered translation class of pairs
(a pair and its swap share a walk), on image tables built on first use,
and reads each pair's row from its class's walk; it never builds a
generator set or a graph, and the CLI writes its rows as they come.
The verify_* functions need only a yes or no per shift-free set, so
each set is decided by a walk over bare integers, one growing list
without BFS levels, that returns at its first square node.  Both start
from the singletons: the closure of {x^2 - b} is the one orbit of -b,
so the orbits of all non-square b advance together, a round at a time,
and only the few still open after the rounds get an exact walk.  A
pair whose singleton reaches a square does too, so only pairs of two
stuck singletons get a walk of their own.  The
records and the family walk through the criterion module:
single_generator_records and example_family stop at each set's first
square, and nonsquare_pair_records reads its statistics off the whole
closure.  A census over a field with q^2 > 2^20 is refused, and so is
one of more than 2^20 pairs without a limit; the verify functions and
the records refuse p > 2^20.
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .criterion import (
    REASON_GENERATOR,
    check_semigroup_irreducible,
    max_indegree_from_nonsquares,
    reachable_subgraph,
    verdict_from_graph,
)
from .field import _TABLE_LIMIT, Field, make_field
from .quadratic import GeneratorSet, MonicQuadratic

CENSUS_FILTERS = ("all", "irreducible-generators-only", "no-linear-term")


class CensusRow(NamedTuple):
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


# Bounds checked before a census decides any pair: the swept quadratics
# (q^2 before any filter or limit applies, checked before anything is
# enumerated) and, without a limit, the number of pairs decided.
_CENSUS_MAX_QUADRATICS = 1 << 20
_CENSUS_MAX_PAIRS = 1 << 20
# What the census caches hold at once, so that a long limited census
# over a large field stays small: image-table entries (q per table, a
# list slot and often an int object each), and class-walk nodes (4 bytes
# each when kept; a walk that is not kept counts too, so that quads
# starts over as well).  Every full census within the pair budget walks
# each unordered class once: F_37 walks 666,745 nodes, and F_53 under
# irreducible-generators-only 2,801,092 (1.33M and 5.3M, the most, with
# one walk per ordered class key).
_CENSUS_MAX_TABLE_ENTRIES = 1 << 20
_CENSUS_MAX_WALK_NODES = 6 << 20


def _census_quadratics(field: Field, census_filter: str) -> Sequence[int]:
    """Codes a*q + b of the quadratics passing the filter, in (a, b) order."""
    q = field.q
    if census_filter == "all":
        return range(q * q)
    if census_filter == "no-linear-term":
        return range(q)
    nonsquares = [b for b in range(q) if not field.is_square(b)]
    return [a * q + b for a in range(q) for b in nonsquares]


def _walk_class(
    tf: Sequence[int], tg: Sequence[int], sf: int, sg: int
) -> tuple[array, tuple[int, ...]]:
    """The closure of the two maps with image tables tf and tg from the
    seeds sf and sg: its nodes level by level, each level in discovery
    order, and the end of each level in that order.  A seed is a node
    only if some walk re-enters it; expanding it again then finds
    nothing new.
    """
    found: set[int] = set()
    nodes: list[int] = []
    ends: list[int] = []
    level = [sf, sg]
    while level:
        sources, level = level, []
        for u in sources:
            v = tf[u]
            if v not in found:
                found.add(v)
                level.append(v)
            v = tg[u]
            if v not in found:
                found.add(v)
                level.append(v)
        nodes += level
        ends.append(len(nodes))
    return array("i", nodes), tuple(ends)


class _CensusMemo:
    """The caches of one census, each filled on first use.

    quads maps a quadratic code a*q + b to ((a, b), a, a + b, whether b
    is a square), so that its rows share one (a, b) tuple; tables maps a
    code to its image table over F_q; squares holds, at each shift c
    read so far, the table of whether v + c is a square (at most q
    tables of q bytes); walks maps a class key to (nodes, ends, swapped)
    for the walks asked to be kept: the _walk_class result of the class
    member with a_f = 0, stored under the key (swapped false) and under
    its swap (swapped true).  A new table that would take the tables
    past _CENSUS_MAX_TABLE_ENTRIES entries starts them over, and a new
    walk, kept or not, that would take the walks made past
    _CENSUS_MAX_WALK_NODES nodes starts walks and quads over.
    """

    __slots__ = ("field", "quads", "tables", "squares", "walks", "walk_nodes")

    def __init__(self, field: Field):
        self.field = field
        self.quads: dict[int, tuple] = {}
        self.tables: dict[int, list[int]] = {}
        self.squares: list[bytes | None] = [None] * field.q
        self.walks: dict[int, tuple[array, tuple[int, ...], bool]] = {}
        self.walk_nodes = 0

    def quad(self, code: int) -> tuple:
        field = self.field
        a, b = divmod(code, field.q)
        quad = self.quads[code] = ((a, b), a, field.add(a, b), field._square_t[b])
        return quad

    def table(self, a: int, b: int) -> list[int]:
        field = self.field
        q = field.q
        code = a * q + b
        table = self.tables.get(code)
        if table is None:
            if (len(self.tables) + 1) * q > _CENSUS_MAX_TABLE_ENTRIES:
                self.tables.clear()
            table = self.tables[code] = list(map(field._square_map(a, b), range(q)))
        return table

    def shifted_squares(self, c: int) -> bytes:
        field = self.field
        square, add = field._square_t, field.add
        table = self.squares[c] = bytes([square[add(v, c)] for v in range(field.q)])
        return table

    def walk(
        self, key: int, sf: int, sg: int, d: int, keep: bool
    ) -> tuple[array, tuple[int, ...], bool]:
        """Walk the class of key: f = (0, sf) and g = (d, sg - d).  The
        swap (sg, sf, -d) names the same closure moved by -d, so a kept
        walk is stored under both keys.
        """
        field = self.field
        q = field.q
        bg = field.sub(sg, d)
        nodes, ends = _walk_class(
            self.table(0, sf), self.table(d, bg), field.neg(sf), field.neg(bg)
        )
        if self.walk_nodes + len(nodes) > _CENSUS_MAX_WALK_NODES:
            self.quads.clear()
            self.walks.clear()
            self.walk_nodes = 0
        self.walk_nodes += len(nodes)
        walk = (nodes, ends, False)
        if keep:
            self.walks[key] = walk
            self.walks[(sg * q + sf) * q + field.neg(d)] = (nodes, ends, True)
        return walk


def _census_rows(
    field: Field,
    pairs: Iterable[tuple[int, int]],
    pool: Sequence[int] = (),
    last: tuple[int, int] | None = None,
) -> Iterator[CensusRow]:
    """The census row of each pair (f, g) of quadratic codes a*q + b,
    read from one walk per unordered translation class.

    Conjugating by u -> u + c takes (x - a)^2 - b to (x - a - c)^2 -
    (b - c), and the seeds and every BFS level of a pair's closure to
    their translates.  So the closure of (f, g), up to translation,
    depends only on the class key (a_f + b_f, a_g + b_g, a_g - a_f): it
    is the closure of the class member with a_f = 0, moved by a_f.  The
    levels, as sets, do not depend on the order of f and g, so the swap
    (a_g + b_g, a_f + b_f, a_f - a_g) names the same closure moved by
    a_f - a_g: a pair read under a swapped key is that walk moved by a_g.

    Each row equals what verdict_from_graph(reachable_subgraph(...))
    gives for GeneratorSet(field, [f, g]): reach_size counts the whole
    closure, and witness_len is 1 for a square b, otherwise the level of
    the first square node plus one.  That is the length of witness_word's
    word, a shortest walk to that node plus an innermost letter.  Needs
    the field's squareness table (q <= 2^20).

    The pairs come in runs of equal a_f, in increasing (f, g) order, up
    to last, the last pair (none: no walk is kept), each pair drawn from
    pool, a sorted sequence of codes.  Within one run a class has at
    most two pairs, one read under each of its keys.  So a walk is kept
    while a later run may read it (a_f below last's), and in last's run
    only until the other pair of its class there, if that pair is still
    to come.
    """
    q = field.q
    memo = _CensusMemo(field)
    quads, walks, squares = memo.quads, memo.walks, memo.squares
    last_run = last[0] // q if last else -1
    sub = field.sub

    def in_pool(code: int) -> bool:
        i = bisect.bisect_left(pool, code)
        return i < len(pool) and pool[i] == code

    def read_later(cf: int, cg: int, af: int, sf: int, sg: int, d: int) -> bool:
        # whether the run's other pair of the class of (cf, cg), read
        # under the swapped key, is in the pool and after (cf, cg), up
        # to last: ((a_f, s_g - a_f), (a_f - d, s_f - a_f + d))
        other = (af * q + sub(sg, af), sub(af, d) * q + field.add(sub(sf, af), d))
        return (
            (cf, cg) < other <= last
            and other[0] < other[1]
            and in_pool(other[0])
            and in_pool(other[1])
        )

    cf_run = af = None
    new_row = tuple.__new__  # CensusRow(...) would run a Python-level __new__
    for cf, cg in pairs:
        if cf != cf_run:  # a run of equal f
            cf_run, run = cf, af
            f, af, sf, square_bf = quads.get(cf) or memo.quad(cf)
            if af != run:
                minus = [sub(a, af) for a in range(q)]  # a - a_f
        g, ag, sg, square_bg = quads.get(cg) or memo.quad(cg)
        d = minus[ag]
        key = (sf * q + sg) * q + d
        walk = walks.get(key)
        if walk is None:
            keep = af < last_run or af == last_run and read_later(cf, cg, af, sf, sg, d)
            walk = memo.walk(key, sf, sg, d, keep)
        elif af == last_run and not read_later(cf, cg, af, sf, sg, d):
            del walks[key], walks[(sg * q + sf) * q + field.neg(d)]
        nodes, ends, swapped = walk
        if square_bf or square_bg:
            witness_len = 1
        else:
            witness_len = 0
            c = ag if swapped else af
            moved_square = squares[c] or memo.shifted_squares(c)
            for i, v in enumerate(nodes):
                if moved_square[v]:
                    witness_len = bisect.bisect_right(ends, i) + 2
                    break
        yield new_row(CensusRow, (q, f, g, witness_len == 0, witness_len, len(nodes)))


def _check_census_order(p: int, e: int) -> None:
    """Refuse a census over F_{p^e} with q^2 > 2^20, whatever its limit.

    Cheap before the field is built: p^e is multiplied out only until it
    passes the bound.
    """
    q = 1
    for _ in range(e if p > 1 else 0):  # make_field refuses p <= 1
        q *= p
        if q * q > _CENSUS_MAX_QUADRATICS:
            name = f"F_{p}" if e == 1 else f"F_{p}^{e}"
            raise ValueError(
                f"a census over {name} sweeps q^2 > {_CENSUS_MAX_QUADRATICS} quadratics"
            )


def _census(field: Field, census_filter: str, limit: int | None) -> Iterator[CensusRow]:
    """census_pairs's rows, one at a time; the arguments are checked,
    and refused, before it returns.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if census_filter not in CENSUS_FILTERS:
        raise ValueError(
            f"unknown filter {census_filter!r}; expected one of {CENSUS_FILTERS}"
        )
    _check_census_order(field.p, field.e)
    quads = _census_quadratics(field, census_filter)
    pairs = len(quads) * (len(quads) - 1) // 2
    if limit is None and pairs > _CENSUS_MAX_PAIRS:
        raise ValueError(
            f"a census of {pairs} pairs is more than "
            f"{_CENSUS_MAX_PAIRS}; set --limit to decide only the first pairs"
        )
    decided = pairs if limit is None else min(limit, pairs)
    # the pool indices of the last decided pair
    first, left = 0, decided
    while left > len(quads) - 1 - first:
        left -= len(quads) - 1 - first
        first += 1
    last = (quads[first], quads[first + left]) if decided else None
    rows = itertools.islice(itertools.combinations(quads, 2), decided)
    return _census_rows(field, rows, quads, last)


def census_pairs(
    field: Field, census_filter: str = "all", limit: int | None = None
) -> list[CensusRow]:
    """One row per unordered pair of distinct quadratics passing the
    filter, in lexicographic (a1, b1) < (a2, b2) order; limit keeps the
    first rows of that order (none for 0; a negative limit is refused).

    A field with q^2 > 2^20 is refused whatever the limit, and so is a
    census of more than 2^20 pairs without a limit.
    """
    return list(_census(field, census_filter, limit))


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
    # above the table limit each squareness test is a pow, and a sweep
    # makes O(p) walks of up to p nodes each
    if p > _TABLE_LIMIT:
        raise ValueError(f"p = {p} is above the verify bound 2^20 = {_TABLE_LIMIT}")
    if p % modulus != residue:
        raise ValueError(
            f"requires a prime p = {residue} (mod {modulus}); "
            f"got p = {p} = {p % modulus} (mod {modulus})"
        )
    return make_field(p)  # raises if p is not an odd prime


def _reaches_square(
    shifts: Sequence[int], p: int, is_square: Callable[[int], bool]
) -> bool:
    """Whether a walk of positive length from the seeds {-b} under the
    maps u -> u^2 - b over F_p, one per b in shifts, reaches a square.

    The verdict of check_semigroup_irreducible for the shift-free set
    {x^2 - b : b in shifts} with non-square b is the negation of this,
    reached without a generator set, a graph or a witness.  A yes or no
    needs no BFS levels, so the walk runs over one list that grows while
    it is iterated: each newly found element, a re-entered seed
    included, is tested once, and seeds are expanded only at the start.
    """
    seeds = {-b % p for b in shifts}
    sources = list(seeds)
    found: set[int] = set()
    for u in sources:  # grows while it is walked
        uu = u * u
        for b in shifts:
            v = (uu - b) % p
            if v not in found:
                if is_square(v):
                    return True
                found.add(v)
                if v not in seeds:
                    sources.append(v)
    return False


class SingleGeneratorRecord(NamedTuple):
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
                b_is_square=verdict.reason == REASON_GENERATOR,
                irreducible=verdict.irreducible,
                witness=verdict.witness or (),
            )
        )
    return records


# The batched pass of _stuck_shifts, each value chosen by measurement: b
# is taken in blocks of _STUCK_BLOCK values, so that the pass holds
# O(block) ints and not O(p), and a block's orbits advance for at most
# _STUCK_ROUNDS rounds, or until _STUCK_FEW or fewer are open.
_STUCK_BLOCK = 4096
_STUCK_ROUNDS = 32
_STUCK_FEW = 2


def _stuck_shifts(p: int, is_square: Callable[[int], bool]) -> list[int]:
    """The non-squares b of F_p, in increasing order, for which the walk
    of _reaches_square from the singleton {x^2 - b} finds no square.

    With one map that walk is the orbit -b, f(-b), f^2(-b), ... of
    f = u -> u^2 - b: it tests f^k(-b) for k = 1, 2, ... in turn until a
    value repeats, so b reaches a square iff some f^k(-b), k >= 1, is
    one.  The orbits of a block's non-square b advance in lockstep, one
    step a round, and a b leaves as soon as its new value is a square,
    a square its walk would find too.  The b still open when few are
    left or the rounds run out go to _reaches_square in increasing
    order; it also detects the cycle that a stuck orbit closes.
    """
    stuck: list[int] = []
    for start in range(0, p, _STUCK_BLOCK):
        stop = min(start + _STUCK_BLOCK, p)
        shifts = [b for b in range(start, stop) if not is_square(b)]
        values = shifts  # (-b)^2 = b^2, so b stands for the seed -b
        for _ in range(_STUCK_ROUNDS):
            if len(shifts) <= _STUCK_FEW:
                break
            values = [(u * u - b) % p for u, b in zip(values, shifts)]
            still_open = [not square for square in map(is_square, values)]
            shifts = list(itertools.compress(shifts, still_open))
            values = list(itertools.compress(values, still_open))
        stuck += [b for b in shifts if not _reaches_square((b,), p, is_square)]
    return stuck


def verify_lemma_p7mod8(p: int) -> bool:
    """True iff every singleton {x^2 - b} over F_p has a reducible
    composition (p = 7 (mod 8)): a square b splits at degree 2, and no
    non-square b is stuck, that is, its orbit from -b reaches a square.
    The orbits advance together in _stuck_shifts, and only the few left
    open get a walk of their own.
    """
    field = _checked_prime_field(p, residue=7, modulus=8)
    return not _stuck_shifts(p, field._square_t.__getitem__)


class NonSquarePairRecord(NamedTuple):
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


def nonsquare_pair_records(p: int) -> list[NonSquarePairRecord]:
    """Verdict and whole-closure statistics for {x^2 - b_f, x^2 - b_g}
    over each pair b_f < b_g of non-squares, for p = 3 (mod 4).
    """
    field = _checked_prime_field(p, residue=3, modulus=4)
    nonsquares = [b for b in range(p) if not field.is_square(b)]
    records = []
    for b_f, b_g in itertools.combinations(nonsquares, 2):
        graph = reachable_subgraph(
            GeneratorSet(field, [MonicQuadratic(0, b_f), MonicQuadratic(0, b_g)])
        )
        verdict = verdict_from_graph(graph)
        squares = graph.square_nodes()
        records.append(
            NonSquarePairRecord(
                b_f=b_f,
                b_g=b_g,
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
    over F_p has a reducible composition (p = 3 (mod 4)), that is, the
    walk of _reaches_square finds a square for each pair.

    Every walk of the singleton {x^2 - b_f} from -b_f is also a walk of
    the pair from the same seed, so a pair reaches a square whenever
    one of its singletons does.  So the (p - 1)/2 singleton orbits are
    stepped together in _stuck_shifts, which walks only the few left
    open, and then only pairs of two stuck singletons are walked: C(k, 2)
    pair walks for k stuck shifts, in place of about p^2/8.
    """
    field = _checked_prime_field(p, residue=3, modulus=4)
    is_square = field._square_t.__getitem__  # p <= 2^20: the field has the table
    stuck = _stuck_shifts(p, is_square)
    return all(
        _reaches_square(pair, p, is_square) for pair in itertools.combinations(stuck, 2)
    )


# The census columns, in output order, for both formats.
_CENSUS_COLUMNS = ("q", "a1", "b1", "a2", "b2", "verdict", "witness_len", "reach_size")


def _census_values(r: CensusRow) -> tuple:
    """A row's values in _CENSUS_COLUMNS order."""
    verdict = "irreducible" if r.irreducible else "reducible"
    return (r.q, *r.first, *r.second, verdict, r.witness_len, r.reach_size)


def _census_tsv_lines(rows: Iterable[CensusRow]) -> Iterator[str]:
    """The tab-separated census, a line at a time: a fixed header, then
    one line per row with its verdict as irreducible or reducible.
    """
    yield "\t".join(_CENSUS_COLUMNS) + "\n"
    yield from map("%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n".__mod__, map(_census_values, rows))


def census_json(rows: list[CensusRow]) -> list[dict]:
    """Census rows as JSON-ready dicts, same order and fields as the TSV."""
    return [dict(zip(_CENSUS_COLUMNS, _census_values(r))) for r in rows]
