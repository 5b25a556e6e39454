"""Sweeps: the pair census, the a / a+1 family, and the two exhaustive
small-prime verifications with their per-case records.
"""

import functools
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from quadsemi import search
from quadsemi.criterion import (
    check_semigroup_irreducible,
    reachable_subgraph,
    verdict_from_graph,
)
from quadsemi.field import make_field
from quadsemi.quadratic import GeneratorSet, MonicQuadratic
from quadsemi.search import (
    CENSUS_FILTERS,
    _census_quadratics,
    _census_rows,
    _census_tsv_lines,
    _checked_prime_field,
    _reaches_square,
    _stuck_shifts,
    census_json,
    census_pairs,
    example_family,
    nonsquare_pair_records,
    single_generator_records,
    verify_lemma_p7mod8,
    verify_prop_p3mod4,
)

# a values with a and a+1 both non-squares, frozen from an independent
# enumeration of the squares of each field
FAMILY_BY_Q = {
    5: [2],
    13: [5, 6, 7],
    17: [5, 6, 10, 11],
    29: [2, 10, 11, 14, 17, 18, 26],
}


# -- census --

def test_census_row_count_and_order():
    rows = census_pairs(make_field(3))
    assert len(rows) == 36  # C(9, 2) unordered pairs of distinct quadratics
    for row in rows:
        assert row.first < row.second
    assert [r.first + r.second for r in rows] == sorted(
        r.first + r.second for r in rows
    )


def test_census_limit_truncates_canonical_order():
    full = census_pairs(make_field(5))
    limited = census_pairs(make_field(5), limit=10)
    assert limited == full[:10]


def test_census_limit_zero_gives_no_rows():
    assert census_pairs(make_field(5), limit=0) == []
    header = "q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size\n"
    assert "".join(_census_tsv_lines([])) == header


@pytest.mark.parametrize("limit", [-1, -2])
def test_census_rejects_negative_limit(limit):
    with pytest.raises(ValueError, match="limit"):
        census_pairs(make_field(5), limit=limit)


def test_census_rejects_unknown_filter():
    with pytest.raises(ValueError):
        census_pairs(make_field(5), "everything")
    assert CENSUS_FILTERS == ("all", "irreducible-generators-only", "no-linear-term")


def test_census_contains_known_irreducible_pair():
    rows = census_pairs(make_field(13))
    match = [r for r in rows if r.first == (5, 8) and r.second == (6, 8)]
    assert len(match) == 1
    assert match[0].irreducible
    assert match[0].witness_len == 0
    assert match[0].reach_size == 2


def test_census_contains_shifted_f7_pair():
    rows = census_pairs(make_field(7))
    match = [r for r in rows if r.first == (1, 5) and r.second == (4, 5)]
    assert len(match) == 1
    assert match[0].irreducible
    assert match[0].reach_size == 2


def test_census_no_linear_term_nonsquare_rows_all_reducible():
    field = make_field(7)
    rows = census_pairs(field, "no-linear-term")
    assert all(r.first[0] == 0 and r.second[0] == 0 for r in rows)
    nonsquare_rows = [
        r
        for r in rows
        if not field.is_square(r.first[1]) and not field.is_square(r.second[1])
    ]
    assert len(nonsquare_rows) == 3  # pairs from the non-squares {3, 5, 6}
    assert all(not r.irreducible for r in nonsquare_rows)


def test_census_irreducible_generators_only_filter():
    field = make_field(7)
    rows = census_pairs(field, "irreducible-generators-only")
    assert len(rows) == 21 * 20 // 2  # 3 non-square b values x 7 shifts
    for r in rows:
        assert not field.is_square(r.first[1])
        assert not field.is_square(r.second[1])


@pytest.mark.parametrize("census_filter", CENSUS_FILTERS)
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_census_rows_reproducible_through_criterion(p, e, census_filter):
    field = make_field(p, e)
    for row in census_pairs(field, census_filter):
        s = GeneratorSet(
            field,
            [MonicQuadratic(*row.first), MonicQuadratic(*row.second)],
        )
        verdict = check_semigroup_irreducible(s)
        assert verdict.irreducible == row.irreducible
        assert len(reachable_subgraph(s).nodes) == row.reach_size
        witness_len = len(verdict.witness) if verdict.witness else 0
        assert witness_len == row.witness_len


def reference_row(field, f, g):
    """(irreducible, witness_len, reach_size) of one pair of quadratic
    codes a*q + b, read from the whole-closure walk.
    """
    s = GeneratorSet(
        field, [MonicQuadratic(*divmod(f, field.q)), MonicQuadratic(*divmod(g, field.q))]
    )
    graph = reachable_subgraph(s)
    verdict = verdict_from_graph(graph)
    return verdict.irreducible, len(verdict.witness or ()), len(graph.nodes)


CENSUS_SAMPLE_FIELDS = [
    (p, 1) for p in range(17, 62, 2) if all(p % d for d in range(3, p, 2))
] + [(5, 2), (3, 3), (7, 2)]
cached_field = functools.lru_cache(maxsize=None)(make_field)


@st.composite
def census_pool_pairs(draw):
    """A field, and two distinct quadratics from one of its census pools."""
    field = cached_field(*draw(st.sampled_from(CENSUS_SAMPLE_FIELDS)))
    quads = _census_quadratics(field, draw(st.sampled_from(CENSUS_FILTERS)))
    i = draw(st.integers(0, len(quads) - 2))
    later = range(i + 1, len(quads))
    if draw(st.booleans()):  # half the pairs share b, hence one seed
        b = quads[i] % field.q
        later = [j for j in later if quads[j] % field.q == b] or later
    return field, quads[i], quads[draw(st.sampled_from(later))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(census_pool_pairs())
def test_census_kernel_matches_walk_sampled(drawn):
    field, f, g = drawn
    (row,) = _census_rows(field, [(f, g)])
    assert (row.first, row.second) == (divmod(f, field.q), divmod(g, field.q))
    assert (row.irreducible, row.witness_len, row.reach_size) == reference_row(
        field, f, g
    )


def test_census_kernel_cache_start_over(monkeypatch):
    # room for three tables only: the kernel rebuilds them all the time
    field = make_field(7)
    full = census_pairs(field)
    monkeypatch.setattr(search, "_CENSUS_MAX_TABLE_ENTRIES", 3 * field.q)
    assert census_pairs(field) == full


def counted_class_walks(monkeypatch):
    """The seeds of every _walk_class call, in call order."""
    walks = []
    walk_class = search._walk_class

    def counted(tf, tg, sf, sg):
        walks.append((sf, sg))
        return walk_class(tf, tg, sf, sg)

    monkeypatch.setattr(search, "_walk_class", counted)
    return walks


def class_keys(field, pairs):
    """The distinct unordered translation classes over pairs of quadratic
    codes a*q + b.  A pair's (a_f + b_f, a_g + b_g, a_g - a_f) and its
    swap (a_g + b_g, a_f + b_f, a_f - a_g) name one closure up to
    translation; the smaller of the two stands for both.
    """
    keys = set()
    for f, g in pairs:
        (af, bf), (ag, bg) = divmod(f, field.q), divmod(g, field.q)
        sf, sg, d = field.add(af, bf), field.add(ag, bg), field.sub(ag, af)
        keys.add(min((sf, sg, d), (sg, sf, field.neg(d))))
    return keys


@pytest.mark.parametrize("p,e,classes", [(11, 1, 660), (3, 2, 360)])
def test_census_walks_once_per_translation_class(monkeypatch, p, e, classes):
    # a work count in place of a timing gate: one walk per unordered
    # class (F_11: 660 for 7,260 pairs), not one per pair or per key
    field = make_field(p, e)
    walks = counted_class_walks(monkeypatch)
    for census_filter in CENSUS_FILTERS:
        pairs = list(itertools.combinations(_census_quadratics(field, census_filter), 2))
        keys = class_keys(field, pairs)
        if census_filter == "all":
            assert len(keys) == classes
        walks.clear()
        assert len(census_pairs(field, census_filter)) == len(pairs)
        assert len(walks) == len(keys), census_filter


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from([(5, 1), (7, 1), (11, 1), (3, 2)]),
    st.sampled_from(CENSUS_FILTERS),
    st.data(),
)
def test_limited_census_walks_each_class_once(field_spec, census_filter, data):
    # a census cut anywhere gives the full census's first rows and walks
    # each unordered class of its pairs once: no walk is let go in the
    # last run while a later pair still reads it.  At the end it keeps
    # only the walks of earlier runs that the last run did not read.
    field = cached_field(*field_spec)
    full = census_pairs(field, census_filter)
    limit = data.draw(st.integers(0, len(full)))
    with pytest.MonkeyPatch.context() as mp:
        memos, held = recorded_memos(mp)
        assert census_pairs(field, census_filter, limit) == full[:limit]
    pool = _census_quadratics(field, census_filter)
    pairs = list(itertools.islice(itertools.combinations(pool, 2), limit))
    assert len(held) == len(class_keys(field, pairs))
    last_run = pairs[-1][0] // field.q if pairs else None
    earlier = class_keys(field, [p for p in pairs if p[0] // field.q != last_run])
    in_last = class_keys(field, [p for p in pairs if p[0] // field.q == last_run])
    assert len(kept_walks(memos[0])) == len(earlier - in_last)


def recorded_memos(monkeypatch):
    """Every census memo made, and what its caches hold at each class
    walk: (image-table entries, stored walk nodes).
    """
    memos, held = [], []

    class Recorded(search._CensusMemo):
        __slots__ = ()

        def __init__(self, field):
            super().__init__(field)
            memos.append(self)

    walk_class = search._walk_class

    def checked(tf, tg, sf, sg):
        held.append(holding(memos[-1]))
        return walk_class(tf, tg, sf, sg)

    monkeypatch.setattr(search, "_CensusMemo", Recorded)
    monkeypatch.setattr(search, "_walk_class", checked)
    return memos, held


def kept_walks(memo):
    """The node arrays of the walks a census memo keeps, each once,
    though it is stored under a class key and under its swap.
    """
    return {id(nodes): nodes for nodes, _, _ in memo.walks.values()}.values()


def holding(memo):
    """(image-table entries, stored walk nodes) a census memo holds."""
    tables = sum(map(len, memo.tables.values()))
    return tables, sum(map(len, kept_walks(memo)))


@pytest.mark.parametrize("p,e", [(7, 1), (3, 2)])
def test_census_cache_eviction_keeps_rows_within_budget(monkeypatch, p, e):
    # room for three tables and two walks or more: tables and walks
    # both start over many times, and no row may change
    field = make_field(p, e)
    full = census_pairs(field)
    classes = len(class_keys(field, itertools.combinations(range(field.q**2), 2)))
    monkeypatch.setattr(search, "_CENSUS_MAX_TABLE_ENTRIES", 3 * field.q)
    monkeypatch.setattr(search, "_CENSUS_MAX_WALK_NODES", 2 * field.q)
    memos, held = recorded_memos(monkeypatch)
    assert census_pairs(field) == full
    (memo,) = memos
    held.append(holding(memo))
    assert max(tables for tables, _ in held) <= 3 * field.q
    assert max(nodes for _, nodes in held) <= 2 * field.q
    assert len(held) - 1 > classes  # evicted walks were walked again
    for i in (0, 1):  # each cache started over at least once
        assert any(b[i] < a[i] for a, b in zip(held, held[1:]))


def test_census_keeps_no_walk_that_no_later_pair_reads(monkeypatch):
    # one run of equal a_f, where each unordered class names one pair: the
    # shift-free census over F_31, and the first 2,000 pairs over F_101,
    # all with a_f = 0; no class walk is kept, and the rows still equal
    # the whole-closure reference
    memos, held = recorded_memos(monkeypatch)
    field = make_field(31)
    rows = census_pairs(field, "no-linear-term")
    assert len(rows) == 31 * 30 // 2 and len(held) == len(rows)
    census_pairs(make_field(101), limit=2000)
    assert len(memos) == 2 and len(held) == len(rows) + 2000
    assert [nodes for _, nodes in held] == [0] * len(held)
    assert not any(memo.walks for memo in memos)
    for r in rows:
        f, g = r.first[0] * 31 + r.first[1], r.second[0] * 31 + r.second[1]
        assert (r.irreducible, r.witness_len, r.reach_size) == reference_row(field, f, g)


def test_census_keeps_walks_for_later_runs(monkeypatch):
    # the first 2,000 pairs over F_11 reach a_f = 1.  The 1,265 pairs
    # with a_f = 0 meet all 660 classes, and each walk is kept for the
    # later run.  In the run of the last pair a walk is let go at its
    # last read there, so the walks left are those no pair with a_f = 1
    # read.
    memos, _ = recorded_memos(monkeypatch)
    field = make_field(11)
    rows = census_pairs(field, limit=2000)
    assert rows[-1].first[0] == 1 > rows[0].first[0]
    assert sum(r.first[0] == 0 for r in rows) == 1265
    codes = [(r.first[0] * 11 + r.first[1], r.second[0] * 11 + r.second[1]) for r in rows]
    first_run, last_run = class_keys(field, codes[:1265]), class_keys(field, codes[1265:])
    assert len(first_run) == 660 and last_run < first_run
    assert len(kept_walks(memos[0])) == len(first_run - last_run)
    assert census_pairs(field)[:2000] == rows
    # at the edge of the first run: within it each walk is kept only
    # for its swapped pair, so its last pair leaves nothing; one pair
    # more keeps the whole run but the one class that pair reads
    for limit, kept in ((1265, 0), (1266, 659)):
        memos.clear()
        census_pairs(field, limit=limit)
        assert len(kept_walks(memos[0])) == kept, limit


TRANSLATION_FIELDS = [
    (p, 1) for p in range(3, 60, 2) if all(p % d for d in range(3, p, 2))
] + [(3, 2), (5, 2), (3, 3)]


def bfs_depths(graph):
    """node -> BFS depth, read through parent: 1 from a seed, else one
    more than the depth of the node that discovered it.
    """
    seeds = set(graph.seeds)
    depth = {}
    for v in graph.nodes:  # discovery order: a predecessor comes first
        u, _ = graph.parent[v]
        depth[v] = 1 if u in seeds else depth[u] + 1
    return depth


@st.composite
def translated_sets(draw):
    """A field, one to three generators (a, b) and a shift c."""
    field = cached_field(*draw(st.sampled_from(TRANSLATION_FIELDS)))
    element = st.integers(0, field.q - 1)
    gens = draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    return field, gens, draw(element)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(translated_sets())
def test_closure_translation_equivariant(drawn):
    # u -> u + c takes (x - a)^2 - b to (x - a - c)^2 - (b - c), and the
    # closure to its translate, level by level; sets, not order, since
    # the seeds may sort differently once moved
    field, gens, c = drawn
    graph = reachable_subgraph(GeneratorSet(field, [MonicQuadratic(a, b) for a, b in gens]))
    moved = reachable_subgraph(
        GeneratorSet(field, [MonicQuadratic(field.add(a, c), field.sub(b, c)) for a, b in gens])
    )
    assert set(moved.seeds) == {field.add(s, c) for s in graph.seeds}
    assert bfs_depths(moved) == {field.add(v, c): k for v, k in bfs_depths(graph).items()}


@st.composite
def generator_pairs(draw):
    """A field and two distinct generators (a, b)."""
    field = cached_field(*draw(st.sampled_from(TRANSLATION_FIELDS)))
    element = st.integers(0, field.q - 1)
    f = draw(st.tuples(element, element))
    g = draw(st.tuples(element, element).filter(lambda g: g != f))
    return field, f, g


@settings(derandomize=True, max_examples=200, deadline=None)
@given(generator_pairs())
def test_closure_levels_do_not_depend_on_generator_order(drawn):
    # the census reads a pair and its swap from one walk: [f, g] and
    # [g, f] have the same seeds and the same nodes at each BFS depth
    field, f, g = drawn
    graph = reachable_subgraph(GeneratorSet(field, [MonicQuadratic(*f), MonicQuadratic(*g)]))
    swapped = reachable_subgraph(GeneratorSet(field, [MonicQuadratic(*g), MonicQuadratic(*f)]))
    assert swapped.seeds == graph.seeds
    assert bfs_depths(swapped) == bfs_depths(graph)


@pytest.mark.parametrize("p,e", [(1021, 1), (31, 2)])
def test_census_limit_near_the_q_bound_is_fast(p, e):
    # q^2 close to 2^20: a few rows build only the tables they read
    field = make_field(p, e)
    start = time.perf_counter()
    rows = census_pairs(field, limit=5)
    assert time.perf_counter() - start < 1.0
    assert [r.first + r.second for r in rows] == [(0, 0, 0, b) for b in range(1, 6)]
    for r in rows:
        f, g = r.first[0] * field.q + r.first[1], r.second[0] * field.q + r.second[1]
        assert (r.irreducible, r.witness_len, r.reach_size) == reference_row(field, f, g)


@pytest.mark.parametrize("p,e", [(1031, 1), (3, 7)])
def test_census_refuses_more_than_2_20_quadratics(p, e):
    field = make_field(p, e)
    for limit in (None, 0, 1):
        with pytest.raises(ValueError, match=r"q\^2"):
            census_pairs(field, limit=limit)


def test_census_pair_budget_without_limit(monkeypatch):
    # 41^2 quadratics make 1,412,040 pairs; 59 * 29 non-square ones 1,462,905
    with pytest.raises(ValueError, match="--limit"):
        census_pairs(make_field(41))
    with pytest.raises(ValueError, match="--limit"):
        census_pairs(make_field(59), "irreducible-generators-only")
    assert len(census_pairs(make_field(41), limit=3)) == 3
    # the budget is inclusive: F_3 has exactly 36 pairs
    monkeypatch.setattr(search, "_CENSUS_MAX_PAIRS", 36)
    assert len(census_pairs(make_field(3))) == 36
    monkeypatch.setattr(search, "_CENSUS_MAX_PAIRS", 35)
    with pytest.raises(ValueError, match="--limit"):
        census_pairs(make_field(3))


def test_census_tsv_golden():
    rows = census_pairs(make_field(3), limit=4)
    assert "".join(_census_tsv_lines(rows)) == (
        "q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size\n"
        "3\t0\t0\t0\t1\treducible\t1\t3\n"
        "3\t0\t0\t0\t2\treducible\t1\t3\n"
        "3\t0\t0\t1\t0\treducible\t1\t2\n"
        "3\t0\t0\t1\t1\treducible\t1\t3\n"
    )


def test_census_json_matches_tsv_fields():
    rows = census_pairs(make_field(3), limit=2)
    assert census_json(rows) == [
        {
            "q": 3,
            "a1": 0,
            "b1": 0,
            "a2": 0,
            "b2": 1,
            "verdict": "reducible",
            "witness_len": 1,
            "reach_size": 3,
        },
        {
            "q": 3,
            "a1": 0,
            "b1": 0,
            "a2": 0,
            "b2": 2,
            "verdict": "reducible",
            "witness_len": 1,
            "reach_size": 3,
        },
    ]


# -- the a / a+1 family --

@pytest.mark.parametrize("q", sorted(FAMILY_BY_Q))
def test_example_family_frozen_members(q):
    field = make_field(q)
    assert example_family(field) == FAMILY_BY_Q[q]


@pytest.mark.parametrize("q", sorted(FAMILY_BY_Q))
def test_example_family_members_qualify(q):
    field = make_field(q)
    for a in example_family(field):
        assert not field.is_square(a)
        assert not field.is_square(field.add(a, 1))
        assert not field.is_square(field.neg(a))
        pair = GeneratorSet(
            field,
            [
                MonicQuadratic(a, field.neg(a)),
                MonicQuadratic(field.add(a, 1), field.neg(a)),
            ],
        )
        assert check_semigroup_irreducible(pair).irreducible


def test_example_family_wrong_residue_class():
    with pytest.raises(ValueError, match=r"\(mod 4\)"):
        example_family(make_field(7))


def test_example_family_works_over_extension_field():
    # 9 = 1 (mod 4); every family member must still verify
    family = example_family(make_field(3, 2))
    assert family == [4, 7]


# -- single-generator verification (p = 7 mod 8) --

def test_verify_single_generator_small_primes():
    assert verify_lemma_p7mod8(7) is True
    assert verify_lemma_p7mod8(23) is True


def test_single_generator_records_f7():
    records = single_generator_records(7)
    assert [r.b for r in records] == list(range(7))
    assert all(not r.irreducible for r in records)
    by_b = {r.b: r for r in records}
    for b in (0, 1, 2, 4):  # squares: the generator itself splits
        assert by_b[b].b_is_square
        assert by_b[b].witness == (0,)
    assert by_b[3].witness == (0, 0, 0, 0)
    assert by_b[5].witness == (0, 0, 0, 0)  # chain 2 -> 6 -> 3 -> 4
    assert by_b[6].witness == (0, 0)


def test_verify_single_generator_wrong_residue():
    with pytest.raises(ValueError, match=r"\(mod 8\)"):
        verify_lemma_p7mod8(13)
    with pytest.raises(ValueError, match=r"\(mod 8\)"):
        verify_lemma_p7mod8(17)


def test_verify_single_generator_rejects_composite():
    # 15 = 7 (mod 8) but is not prime
    with pytest.raises(ValueError):
        verify_lemma_p7mod8(15)


# -- non-square pair verification (p = 3 mod 4) --

def test_verify_nonsquare_pairs_small_primes():
    assert verify_prop_p3mod4(7) is True
    assert verify_prop_p3mod4(11) is True


def test_nonsquare_pair_records_f7():
    records = nonsquare_pair_records(7)
    assert [(r.b_f, r.b_g) for r in records] == [(3, 5), (3, 6), (5, 6)]
    for r in records:
        assert not r.irreducible
        assert len(r.witness) == 2
        assert r.node_count == 5
        assert r.square_node_count == 2
        assert not r.all_nodes_nonsquare
        assert r.indegree_at_most_one
        if r.all_nodes_nonsquare:  # vacuous: the verdicts rule it out
            assert 1 <= r.node_count <= 3


def test_nonsquare_pair_records_cover_all_pairs():
    for p in (11, 19):
        field = make_field(p)
        nonsquares = [b for b in range(p) if not field.is_square(b)]
        records = nonsquare_pair_records(p)
        assert len(records) == len(nonsquares) * (len(nonsquares) - 1) // 2
        assert all(not r.all_nodes_nonsquare for r in records)
        assert all(r.square_node_count >= 1 for r in records)
        assert all(r.witness for r in records)


def test_verify_nonsquare_pairs_wrong_residue():
    with pytest.raises(ValueError, match=r"\(mod 4\)"):
        verify_prop_p3mod4(13)
    with pytest.raises(ValueError):
        verify_prop_p3mod4(15)  # right residue, not prime


def test_verify_and_records_refuse_p_above_the_bound_before_building_it(monkeypatch):
    # 1048583, the first prime above 2^20, is 3 (mod 4) and 7 (mod 8)
    def unbuilt(p, e=1, modulus=None):
        raise AssertionError("the field was built")

    with monkeypatch.context() as mp:
        mp.setattr(search, "make_field", unbuilt)
        for sweep in (
            verify_lemma_p7mod8,
            verify_prop_p3mod4,
            single_generator_records,
            nonsquare_pair_records,
        ):
            with pytest.raises(ValueError, match=r"2\^20 = 1048576"):
                sweep(1048583)
    # the primes just under the bound of each residue class pass the check
    assert _checked_prime_field(1048571, 3, 4).p == 1048571
    assert _checked_prime_field(1048559, 7, 8).p == 1048559


# -- the verdict-only walk behind both verifications --

def test_reaches_square_matches_criterion():
    # every shift-free singleton and pair with non-square b, at every
    # prime 5 <= p < 110, against the decision of the criterion module
    outcomes = set()
    for p in range(5, 110):
        if any(p % d == 0 for d in range(2, p)):
            continue
        field = make_field(p)
        nonsquares = [b for b in range(p) if not field.is_square(b)]
        shift_sets = [(b,) for b in nonsquares]
        shift_sets += itertools.combinations(nonsquares, 2)
        for shifts in shift_sets:
            verdict = check_semigroup_irreducible(
                GeneratorSet(field, [MonicQuadratic(0, b) for b in shifts])
            )
            got = _reaches_square(shifts, p, field.is_square)
            assert got is (not verdict.irreducible), (p, shifts)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_reaches_square_tests_each_closure_node_once():
    # with no square anywhere the walk tests every node of the whole
    # closure exactly once, a seed that some walk re-enters included;
    # the verdicts alone do not show a skipped seed, because on every
    # non-square set tried a walk that re-enters a seed also reaches
    # another square
    reentered = 0
    for p in (5, 7, 11, 13, 19, 23):
        field = make_field(p)
        shift_sets = [(b,) for b in range(p)]
        shift_sets += itertools.combinations(range(p), 2)
        for shifts in shift_sets:
            tested = []

            def never_square(v):
                assert 0 <= v < p
                tested.append(v)
                return False

            assert _reaches_square(shifts, p, never_square) is False
            graph = reachable_subgraph(
                GeneratorSet(field, [MonicQuadratic(0, b) for b in shifts])
            )
            assert sorted(tested) == sorted(graph.nodes), (p, shifts)
            reentered += bool(set(graph.seeds) & set(graph.nodes))
    assert reentered


def test_reaches_square_false_on_irreducible_singletons():
    # {x^2 - 2} over F_5 and {x^2 - 5} over F_13: no square is reachable
    for p, b in ((5, 2), (13, 5)):
        field = make_field(p)
        assert check_semigroup_irreducible(
            GeneratorSet(field, [MonicQuadratic(0, b)])
        ).irreducible
        assert _reaches_square((b,), p, field.is_square) is False


# -- the singleton-first rule behind both verifications --

PRIMES_5_TO_200 = [p for p in range(5, 200, 2) if all(p % d for d in range(3, p, 2))]


def all_pairs_reach(p, is_square):
    """The brute-force form: a walk of its own for every pair of
    non-squares.
    """
    nonsquares = [b for b in range(p) if not is_square(b)]
    return all(
        _reaches_square(pair, p, is_square)
        for pair in itertools.combinations(nonsquares, 2)
    )


def stuck_pairs_reach(p, is_square):
    """The singleton-first form: walks only for pairs of stuck shifts."""
    stuck = _stuck_shifts(p, is_square)
    return all(
        _reaches_square(pair, p, is_square)
        for pair in itertools.combinations(stuck, 2)
    )


def all_singletons_reach(p, is_square):
    """The lemma's brute-force form, one walk per non-square b."""
    return all(is_square(b) or _reaches_square((b,), p, is_square) for b in range(p))


def test_singleton_first_matches_all_pairs_at_small_primes():
    # every prime 5 <= p < 200 of either residue mod 4, on its squares
    lemma_outcomes, most_stuck = set(), 0
    for p in PRIMES_5_TO_200:
        is_square = make_field(p).is_square
        stuck = _stuck_shifts(p, is_square)
        walked = [b for b in range(p) if not is_square(b)]
        assert stuck == [b for b in walked if not _reaches_square((b,), p, is_square)]
        assert stuck_pairs_reach(p, is_square) is all_pairs_reach(p, is_square), p
        if p % 4 == 3:
            assert verify_prop_p3mod4(p) is all_pairs_reach(p, is_square)
        if p % 8 == 7:
            assert verify_lemma_p7mod8(p) is all_singletons_reach(p, is_square)
        lemma_outcomes.add(not stuck)
        most_stuck = max(most_stuck, len(stuck))
    assert lemma_outcomes == {True, False}
    assert most_stuck >= 2  # some prime walks pairs of stuck shifts


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 31])
def test_singleton_first_with_no_squares(p):
    # nothing is square: every shift is stuck and every pair walks its
    # whole closure without finding a square
    def never_square(v):
        return False

    assert _stuck_shifts(p, never_square) == list(range(p))
    assert stuck_pairs_reach(p, never_square) is False
    assert all_pairs_reach(p, never_square) is False


def test_singleton_first_matches_all_pairs_on_drawn_squares():
    # any subset of F_p may stand for the squares: the rule rests only on
    # the walks of a pair containing those of its singletons
    outcomes = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.sampled_from(PRIMES_5_TO_200[:12]).flatmap(
            lambda p: st.tuples(st.just(p), st.frozensets(st.integers(0, p - 1)))
        )
    )
    def check(drawn):
        p, squares = drawn
        is_square = squares.__contains__
        got = stuck_pairs_reach(p, is_square)
        assert got is all_pairs_reach(p, is_square)
        assert (not _stuck_shifts(p, is_square)) is all_singletons_reach(p, is_square)
        outcomes.add(got)

    check()
    assert outcomes == {True, False}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(PRIMES_5_TO_200).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(0, p - 1),
            st.integers(0, p - 1),
            st.frozensets(st.integers(0, p - 1)),
        )
    )
)
def test_reaches_square_monotone_under_added_shift(drawn):
    # the walks from -b under x^2 - b are walks of the pair {b, c} too
    p, b, c, squares = drawn
    if _reaches_square((b,), p, squares.__contains__):
        assert _reaches_square((b, c), p, squares.__contains__)


def counted_walks(monkeypatch):
    """The shift tuple of every _reaches_square call, in call order."""
    walks = []
    reaches_square = search._reaches_square

    def counted(shifts, p, is_square):
        walks.append(tuple(shifts))
        return reaches_square(shifts, p, is_square)

    monkeypatch.setattr(search, "_reaches_square", counted)
    return walks


@pytest.mark.parametrize("p,k", [(10007, 0), (10243, 5)])
def test_verify_prop_walk_count(monkeypatch, p, k):
    # a work count in place of a timing gate: one walk per non-square
    # singleton, then one per pair of the k stuck shifts and no other
    field = make_field(p)
    nonsquares = [b for b in range(p) if not field.is_square(b)]
    stuck = _stuck_shifts(p, field.is_square)
    assert len(stuck) == k
    walks = counted_walks(monkeypatch)
    assert verify_prop_p3mod4(p) is True
    assert len(walks) == (p - 1) // 2 + k * (k - 1) // 2
    assert walks == [(b,) for b in nonsquares] + list(itertools.combinations(stuck, 2))


def test_verify_lemma_walk_count(monkeypatch):
    field = make_field(1031)
    walks = counted_walks(monkeypatch)
    assert verify_lemma_p7mod8(1031) is True
    assert walks == [(b,) for b in range(1031) if not field.is_square(b)]


def test_shifted_pairs_escape_the_nonsquare_obstruction():
    # the all-pairs census over F_7 keeps at least one irreducible pair,
    # so the shift-free restriction in the verification is sharp
    rows = census_pairs(make_field(7))
    assert any(r.irreducible for r in rows)
    shift_free = census_pairs(make_field(7), "no-linear-term")
    field = make_field(7)
    both_irreducible = [
        r
        for r in shift_free
        if not field.is_square(r.first[1]) and not field.is_square(r.second[1])
    ]
    assert all(not r.irreducible for r in both_irreducible)
