"""The graph-based decision procedure: distinguished set, reachable
subgraph, verdicts, the word chain test, witness extraction, and DOT
export, pinned against hand-checked values over F_7 and F_13.
"""

import collections
import functools
import itertools
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from quadsemi import criterion
from quadsemi.criterion import (
    REASON_GENERATOR,
    REASON_REACHABLE,
    check_semigroup_irreducible,
    distinguished_set,
    export_dot,
    max_indegree_from_nonsquares,
    reachable_subgraph,
    verdict_from_graph,
    witness_word,
    word_irreducible,
)
from quadsemi.field import Field, make_field
from quadsemi.quadratic import GeneratorSet, MonicQuadratic, evaluate

F7 = make_field(7)
F13 = make_field(13)


def gset(field, *pairs):
    return GeneratorSet(field, [MonicQuadratic(a, b) for a, b in pairs])


# The three sets used throughout: an all-irreducible pair over F_13, an
# all-irreducible pair over F_7 that needs the linear shifts, and a
# reducible shift-free pair over F_7.
PAIR13 = gset(F13, (5, 8), (6, 8))
PAIR7_SHIFTED = gset(F7, (1, 5), (4, 5))
PAIR7_REDUCIBLE = gset(F7, (0, 3), (0, 5))

PRIMES_BELOW_200 = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]
cached_field = functools.lru_cache(maxsize=None)(make_field)


def targets(g):
    """The image of each map evaluation, in walk order."""
    return [v for _u, _i, v in g.iter_edges()]


def chain_lengths(g):
    """Length of each node's parent chain back to a seed."""
    lengths = {}
    for v in g.nodes:
        u, n = g.parent[v][0], 1
        while u not in g.seeds:
            u, n = g.parent[u][0], n + 1
        lengths[v] = n
    return lengths


def test_distinguished_set_examples():
    assert distinguished_set(PAIR7_SHIFTED) == (2,)  # -5 mod 7
    assert distinguished_set(PAIR13) == (5,)  # -8 mod 13
    assert distinguished_set(gset(F7, (3, 0))) == (0,)
    assert distinguished_set(PAIR7_REDUCIBLE) == (2, 4)  # sorted


def test_reachable_subgraph_shifted_pair():
    g = reachable_subgraph(PAIR7_SHIFTED)
    assert g.seeds == (2,)
    assert tuple(g.nodes) == (3, 6)
    assert tuple(g.iter_edges()) == (
        (2, 0, 3),
        (2, 1, 6),
        (3, 0, 6),
        (3, 1, 3),
        (6, 0, 6),
        (6, 1, 6),
    )
    assert chain_lengths(g) == {3: 1, 6: 1}
    assert g.parent == {3: (2, 0), 6: (2, 1)}
    assert g.first_square is None


def test_reachable_subgraph_swap_pair():
    # f loops at 5 and 6; g swaps them; the seed 5 is re-entered so it
    # is a node as well
    g = reachable_subgraph(PAIR13)
    assert g.seeds == (5,)
    assert tuple(g.nodes) == (5, 6)
    assert tuple(g.iter_edges()) == ((5, 0, 5), (5, 1, 6), (6, 0, 6), (6, 1, 5))
    assert chain_lengths(g) == {5: 1, 6: 1}


def test_reachable_subgraph_single_generator_chain():
    # x^2 - 5 over F_7: 2 -> 6 -> 3 -> 4 with 4 a fixed point
    g = reachable_subgraph(gset(F7, (0, 5)))
    assert g.seeds == (2,)
    assert tuple(g.nodes) == (6, 3, 4)
    assert chain_lengths(g) == {6: 1, 3: 2, 4: 3}
    assert g.parent == {6: (2, 0), 3: (6, 0), 4: (3, 0)}
    assert g.first_square == (3, 0, 4)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_reachable_subgraph_closure_and_membership(p, e):
    # every node is an image of a seed or node; applying any generator
    # to any node lands on a node
    field = make_field(p, e)
    quads = [MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)]
    for pair in itertools.combinations(quads[:: max(1, field.q // 3)], 2):
        s = GeneratorSet(field, list(pair))
        g = reachable_subgraph(s)
        nodes = frozenset(g.nodes)
        sources = set(g.seeds) | nodes
        edges = tuple(g.iter_edges())
        images = set()
        for u, i, v in edges:
            assert u in sources
            assert v in nodes
            images.add(v)
        assert images == nodes
        # each source carries exactly one edge per generator
        assert len(edges) == len(sources) * len(s)


def test_dist_is_minimal_walk_length():
    # brute force all walks from the seeds and compare their minimal
    # lengths with the parent chains
    for s in (PAIR13, PAIR7_SHIFTED, PAIR7_REDUCIBLE, gset(F7, (0, 5))):
        g = reachable_subgraph(s)
        field = s.field
        frontier = set(g.seeds)
        depth = 0
        best: dict[int, int] = {}
        while len(best) < len(g.nodes) and depth <= field.q:
            depth += 1
            frontier = {
                field.sub(field.mul(field.sub(u, q.a), field.sub(u, q.a)), q.b)
                for u in frontier
                for q in s.gens
            }
            for v in frontier:
                best.setdefault(v, depth)
        assert chain_lengths(g) == best


def test_word_irreducible_examples():
    assert word_irreducible(PAIR13, [0, 0])
    assert not word_irreducible(gset(F7, (0, 4)), [0])  # b = 4 = 2^2
    # chain for x^2 - 5 repeated: 5(ns), f(2)=6(ns), f(6)=3(ns), f(3)=4 square
    single = gset(F7, (0, 5))
    assert word_irreducible(single, [0])
    assert word_irreducible(single, [0, 0])
    assert word_irreducible(single, [0, 0, 0])
    assert not word_irreducible(single, [0, 0, 0, 0])


def test_word_irreducible_rejects_bad_words():
    with pytest.raises(ValueError):
        word_irreducible(PAIR13, [])
    with pytest.raises(ValueError):
        word_irreducible(PAIR13, [2])


def test_verdict_irreducible_cases():
    for s in (PAIR13, PAIR7_SHIFTED):
        v = check_semigroup_irreducible(s)
        assert v.irreducible
        assert v.reason is None
        assert v.witness is None


def test_verdict_square_seed_is_not_tested_at_length_zero():
    # the seed 2 is a square mod 7 yet the verdict stays irreducible
    # because no walk of positive length re-enters it
    assert F7.is_square(2)
    v = check_semigroup_irreducible(PAIR7_SHIFTED)
    assert v.irreducible
    assert 2 not in frozenset(v.graph.nodes)


def test_verdict_square_b_reports_generator():
    v = check_semigroup_irreducible(gset(F7, (0, 4), (0, 5)))
    assert not v.irreducible
    assert v.reason == REASON_GENERATOR
    assert v.witness == (0,)


def test_each_b_is_tested_once(monkeypatch):
    # over F_{1031^2} (digit kernel, no squareness table) every F_p element
    # is a square, so b = 8 decides; the verdict and the witness read the
    # walk's one Euler power instead of each running their own
    s = gset(make_field(1031, 2), (5, 8))
    tested = []
    euler = Field.euler_is_square
    monkeypatch.setattr(
        Field, "euler_is_square", lambda f, x: tested.append(x) or euler(f, x)
    )
    v = check_semigroup_irreducible(s)
    assert (v.reason, v.witness, v.graph.square_b) == (REASON_GENERATOR, (0,), 0)
    assert tested == [8]


def test_verdict_reachable_square_with_witness():
    v = check_semigroup_irreducible(PAIR7_REDUCIBLE)
    assert not v.irreducible
    assert v.reason == REASON_REACHABLE
    assert v.witness == (0, 1)
    assert not word_irreducible(PAIR7_REDUCIBLE, v.witness)


def test_witness_word_examples():
    v = check_semigroup_irreducible(PAIR7_REDUCIBLE)
    assert witness_word(v.graph) == (0, 1)
    single = gset(F7, (0, 5))
    assert witness_word(reachable_subgraph(single)) == (0, 0, 0, 0)
    square_b = gset(F7, (0, 4))
    assert witness_word(reachable_subgraph(square_b)) == (0,)


def test_witness_word_raises_on_irreducible_set():
    with pytest.raises(ValueError):
        witness_word(reachable_subgraph(PAIR13))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_witness_prefixes_all_irreducible_exhaustive(p, e):
    # witness soundness and prefix minimality over every pair of
    # shift-free generators (a = 0 keeps this sweep small)
    field = make_field(p, e)
    quads = [MonicQuadratic(0, b) for b in range(field.q)]
    for pair in itertools.combinations(quads, 2):
        s = GeneratorSet(field, list(pair))
        v = check_semigroup_irreducible(s)
        if v.irreducible:
            continue
        assert not word_irreducible(s, v.witness)
        for cut in range(1, len(v.witness)):
            assert word_irreducible(s, v.witness[:cut])


@st.composite
def shifted_sets(draw):
    """1-3 generators with a != 0 and b a non-square, over a prime field
    below 200 or over F_9, F_25, F_27 (each half the time): every
    witness then comes from a walk, not from a square b.
    """
    primes = st.sampled_from(PRIMES_BELOW_200).map(lambda p: (p, 1))
    field = cached_field(*draw(primes | st.sampled_from([(3, 2), (5, 2), (3, 3)])))
    nonsquares = [b for b in range(field.q) if not field.is_square(b)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(1, field.q - 1))
        gens.append(MonicQuadratic(a, draw(st.sampled_from(nonsquares))))
    return GeneratorSet(field, gens)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shifted_sets())
def test_witness_prefix_minimal_sampled(s):
    # witness_word returns the walk's word uncut: it must be reducible
    # and every proper outer prefix irreducible
    v = check_semigroup_irreducible(s)
    if v.irreducible:
        return
    assert not word_irreducible(s, v.witness)
    for k in range(1, len(v.witness)):
        assert word_irreducible(s, v.witness[:k])


def test_reach_graph_repr_leaves_out_parent_and_targets():
    g = reachable_subgraph(PAIR7_SHIFTED)
    assert repr(g) == (
        f"ReachGraph(generators={PAIR7_SHIFTED!r}, seeds=(2,), nodes=(3, 6), "
        "first_square=None)"
    )
    # the a/a+1 family pair over F_100003: 45,663 nodes, 91,326 targets
    big = reachable_subgraph(gset(make_field(100003), (5, 8), (6, 8)))
    assert len(big.nodes) > 40000 and len(targets(big)) == 2 * len(big.nodes)
    assert len(repr(big)) < len(repr(big.nodes)) + 200


# -- edges derived from the walk, not stored --


def test_expanded_counts_the_derived_targets():
    # whole closure: every source expanded under every generator
    g = reachable_subgraph(PAIR13)
    assert g.expanded == len(targets(g)) == len(list(g.sources())) * 2
    assert len(tuple(g.iter_edges())) == g.expanded
    # early exit at a square: the last image is the first square node
    g = check_semigroup_irreducible(PAIR7_REDUCIBLE).graph
    assert g.first_square is not None
    assert g.expanded == len(targets(g)) < len(list(g.sources())) * 2
    assert tuple(g.iter_edges())[-1] == g.first_square
    # a square b: the walk never starts
    g = check_semigroup_irreducible(gset(F7, (0, 3), (0, 2))).graph
    assert g.expanded == 0 and targets(g) == [] and tuple(g.iter_edges()) == ()


def traced_peak(call, *args):
    """call(*args) and its tracemalloc peak in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def walk_peak_per_node(s):
    """The walk's tracemalloc peak in bytes per node, and the node count."""
    g, peak = traced_peak(reachable_subgraph, s)
    return peak / len(g.nodes), len(g.nodes)


def test_closure_memory_per_node():
    # the a/a+1 family pair over F_100003 (45,663 nodes).  The peak is
    # the 4q bytes of predecessors, about 8.8 B per node here, plus one
    # array of the nodes at 4 B each and its growth slack: 12.9 B
    per_node, nodes = walk_peak_per_node(gset(make_field(100003), (5, 8), (6, 8)))
    assert nodes == 45663
    assert per_node < 15


def test_closure_memory_per_node_dict_store(monkeypatch):
    # the same walk on the dict that fields above 2^20 keep: 124 B
    monkeypatch.setattr(criterion, "_TABLE_LIMIT", 0)
    per_node, nodes = walk_peak_per_node(gset(make_field(100003), (5, 8), (6, 8)))
    assert nodes == 45663
    assert per_node < 140


def test_decision_walk_stays_small_on_a_large_field():
    # a reducible pair over F_1048573 whose decision stops at its third
    # node; an array of q predecessors alone would take 4 MB
    s = gset(make_field(1048573), (0, 2), (7, 2))
    v, peak = traced_peak(check_semigroup_irreducible, s)
    assert v.witness == (1, 0, 0) and len(v.graph.nodes) == 3
    assert type(v.graph.parent._store) is dict
    assert peak < 1 << 20


def test_records_are_tuples():
    v = check_semigroup_irreducible(PAIR7_REDUCIBLE)
    assert v[:3] == (False, REASON_REACHABLE, (0, 1))
    assert MonicQuadratic(0, 3) == (0, 3)
    with pytest.raises(AttributeError):
        v.witness = (0,)


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
def test_criterion_monotone_under_subsets(p, e):
    # an all-irreducible pair keeps both of its singletons irreducible
    field = make_field(p, e)
    quads = [MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)]
    for pair in itertools.combinations(quads, 2):
        s = GeneratorSet(field, list(pair))
        if check_semigroup_irreducible(s).irreducible:
            for q in pair:
                sub = GeneratorSet(field, [q])
                assert check_semigroup_irreducible(sub).irreducible


@st.composite
def sets_and_subsets(draw):
    """A set S of 1-4 generators over a prime or extension field, half of
    their b drawn from the non-squares, and a nonempty subset T of S.
    """
    primes = st.sampled_from(PRIMES_BELOW_200).map(lambda p: (p, 1))
    extensions = st.sampled_from([(3, 2), (5, 2), (3, 3), (7, 2)])
    field = cached_field(*draw(primes | extensions))
    element = st.integers(0, field.q - 1)
    nonsquares = [b for b in range(field.q) if not field.is_square(b)]
    b_values = element | st.sampled_from(nonsquares)
    gens = draw(st.lists(st.tuples(element, b_values), min_size=1, max_size=4))
    keep = draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    subset = [g for g, k in zip(gens, keep) if k] or gens[:1]
    return GeneratorSet(field, gens), GeneratorSet(field, subset)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sets_and_subsets())
def test_criterion_monotone_under_subsets_sampled(drawn):
    # a composition of T's generators is one of S's: if T is reducible,
    # so is S
    s, t = drawn
    if not check_semigroup_irreducible(t).irreducible:
        assert not check_semigroup_irreducible(s).irreducible


def test_indegree_bound_on_all_nonsquare_graphs():
    # over p = 3 (mod 4) with shift-free generators, a graph whose nodes
    # are all non-squares has at most one incoming edge per generator at
    # every node (sources u and -u collide and one of them is a square)
    checked = 0
    for p in (3, 7, 11, 19, 23, 31):
        field = make_field(p)
        singles = [GeneratorSet(field, [MonicQuadratic(0, b)]) for b in range(p)]
        pairs = [
            GeneratorSet(field, [MonicQuadratic(0, bf), MonicQuadratic(0, bg)])
            for bf, bg in itertools.combinations(range(p), 2)
        ]
        for s in singles + pairs:
            g = reachable_subgraph(s)
            if any(field.is_square(v) for v in g.nodes):
                continue
            assert max_indegree_from_nonsquares(g) <= 1
            checked += 1
    # at some primes (3, 11, ...) a few singletons qualify; the sweep
    # must exercise the bound at least once overall
    assert checked > 0


def test_export_dot_golden_layout():
    dot = export_dot(reachable_subgraph(PAIR7_SHIFTED))
    assert dot == (
        "digraph reach {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        '  "2" [shape=doublecircle];\n'
        '  "3";\n'
        '  "6";\n'
        '  "2" -> "3" [label="f"];\n'
        '  "2" -> "6" [label="g"];\n'
        '  "3" -> "6" [label="f"];\n'
        '  "3" -> "3" [label="g"];\n'
        '  "6" -> "6" [label="f"];\n'
        '  "6" -> "6" [label="g"];\n'
        "}\n"
    )


def test_export_dot_marks_square_nodes():
    dot = export_dot(reachable_subgraph(PAIR7_REDUCIBLE))
    assert '"1" [style=filled, fillcolor=lightgrey];' in dot
    assert dot.count("doublecircle") == 2  # both seeds 2 and 4


def test_export_dot_deterministic():
    a = export_dot(reachable_subgraph(PAIR7_REDUCIBLE))
    b = export_dot(reachable_subgraph(gset(F7, (0, 3), (0, 5))))
    assert a == b


def test_input_order_breaks_ties_in_witness():
    # swapping the generators swaps the roles in the witness
    swapped = gset(F7, (0, 5), (0, 3))
    v = check_semigroup_irreducible(swapped)
    assert not v.irreducible
    assert not word_irreducible(swapped, v.witness)
    assert v.witness == (1, 0)  # same word with relabeled indices


# -- early exit against the whole closure --


def assert_early_exit_matches_closure(s):
    early = check_semigroup_irreducible(s)
    full = verdict_from_graph(reachable_subgraph(s))
    assert (early.irreducible, early.reason, early.witness) == (
        full.irreducible,
        full.reason,
        full.witness,
    )
    # the explored graph is a prefix of the whole closure's BFS; the
    # decision keeps its nodes in a tuple, the closure in an array up to
    # the table limit
    g, h = early.graph, full.graph
    assert g.seeds == h.seeds
    square = (i for i, f in enumerate(s.gens) if s.field.euler_is_square(f.b))
    assert g.square_b == h.square_b == next(square, None)
    assert tuple(h.nodes[: len(g.nodes)]) == tuple(g.nodes)
    assert targets(h)[: len(targets(g))] == targets(g)
    assert all(g.parent[v] == h.parent[v] for v in g.nodes)
    if early.reason == REASON_GENERATOR:
        assert tuple(g.nodes) == () and targets(g) == []
    elif early.reason == REASON_REACHABLE:
        # the walk ends on the edge that discovered the first square
        assert g.first_square == h.first_square
        assert g.nodes[-1] == targets(g)[-1] == g.first_square[2]
    else:
        assert (tuple(g.nodes), targets(g), g.first_square) == (
            tuple(h.nodes),
            targets(h),
            None,
        )


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_early_exit_matches_closure_exhaustive(p, e):
    # every set of one or two generators over F_3, F_5, F_7 and F_9
    field = make_field(p, e)
    quads = [MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)]
    for size in (1, 2):
        for gens in itertools.combinations(quads, size):
            assert_early_exit_matches_closure(GeneratorSet(field, gens))


@st.composite
def generator_sets(draw):
    field = cached_field(
        draw(st.sampled_from(PRIMES_BELOW_200)), draw(st.sampled_from([1, 2]))
    )
    element = st.integers(0, field.q - 1)
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    return GeneratorSet(field, [MonicQuadratic(a, b) for a, b in pairs])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(generator_sets())
def test_early_exit_matches_closure_sampled(s):
    assert_early_exit_matches_closure(s)


# -- the walk's map kernel against plain evaluation --


def reference_closure(s):
    """The whole closure by a plain BFS on quadratic.evaluate:
    (nodes, parent, targets, first_square).
    """
    field = s.field
    seeds = distinguished_set(s)
    sources, parent, targets, first_square = list(seeds), {}, [], None
    for u in sources:  # grows while it is walked
        for i, g in enumerate(s.gens):
            v = evaluate(field, g, u)
            targets.append(v)
            if v not in parent:
                parent[v] = (u, i)
                if v not in seeds:
                    sources.append(v)
                if first_square is None and field.is_square(v):
                    first_square = (u, i, v)
    return tuple(parent), parent, targets, first_square


def assert_walk_matches_reference(s):
    g = reachable_subgraph(s)
    assert (tuple(g.nodes), g.parent, targets(g), g.first_square) == reference_closure(s)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_walk_matches_reference_exhaustive(p, e):
    # every set of one or two generators over F_3, F_5, F_7 and F_9
    field = make_field(p, e)
    quads = [MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)]
    for size in (1, 2):
        for gens in itertools.combinations(quads, size):
            assert_walk_matches_reference(GeneratorSet(field, gens))


def test_parent_tie_takes_the_lowest_generator():
    # x^2 and (x - 4)^2 over F_7 both take the node 2 to 4: the walk
    # stores only the predecessor 2, and parent names generator 0, the
    # first the walk tried
    s = gset(F7, (0, 0), (4, 0))
    g = reachable_subgraph(s)
    assert evaluate(F7, s.gens[0], 2) == evaluate(F7, s.gens[1], 2) == 4
    assert {v: u for v, (u, _) in g.parent.items()} == {0: 0, 2: 0, 4: 2}
    assert g.parent[4] == (2, 0)
    assert tuple(g.parent) == tuple(g.nodes)
    assert len(g.parent) == len(g.nodes)
    assert 1 not in g.parent
    with pytest.raises(KeyError):
        g.parent[1]
    assert (tuple(g.nodes), g.parent, targets(g), g.first_square) == reference_closure(s)


@pytest.mark.parametrize("p,e", [(10007, 1), (3, 7)])
def test_walk_matches_reference_sampled(p, e):
    field = make_field(p, e)
    rng = random.Random(p**e)
    for _ in range(12):
        n = rng.randint(1, 3)
        pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(n)]
        assert_walk_matches_reference(gset(field, *pairs))


# -- the array store (q <= 2^20) against the dict store --


def walk_record(s, stop):
    """The walk's store type and everything its readers see."""
    g = reachable_subgraph(s, _stop_at_square=stop)
    try:
        witness = witness_word(g)
    except ValueError:
        witness = None
    seen = (tuple(g.nodes), dict(g.parent), g.first_square, g.expanded, witness)
    return type(g.parent._store), seen


@st.composite
def any_sets(draw):
    """1-3 generators with any a and b, over a prime field below 200 or
    over F_9, F_25, F_27.
    """
    primes = st.sampled_from(PRIMES_BELOW_200).map(lambda p: (p, 1))
    field = cached_field(*draw(primes | st.sampled_from([(3, 2), (5, 2), (3, 3)])))
    element = st.integers(0, field.q - 1)
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    return GeneratorSet(field, [MonicQuadratic(a, b) for a, b in pairs])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(any_sets())
def test_array_walk_equals_dict_walk(s):
    # the whole closure, then the early exit, which keeps the dict at every q
    for stop, table_store in ((False, array), (True, dict)):
        store, seen = walk_record(s, stop)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criterion, "_TABLE_LIMIT", 0)  # every field takes the dict
            dict_store, dict_seen = walk_record(s, stop)
        assert (store, dict_store) == (table_store, dict)
        assert seen == dict_seen


@settings(derandomize=True, max_examples=100, deadline=None)
@given(any_sets())
def test_dot_and_indegree_match_a_set_of_the_nodes(s):
    # both read node membership without building a set of every node
    for g in (reachable_subgraph(s), check_semigroup_irreducible(s).graph):
        field, nodes = g.field, set(g.nodes)
        counts = collections.Counter(
            (i, v)
            for u, i, v in g.iter_edges()
            if u in nodes and v in nodes and not field.is_square(u)
        )
        assert max_indegree_from_nonsquares(g) == max(counts.values(), default=0)
        shaded = re.findall(r'^  "(\d+)" \[.*style=filled', export_dot(g), re.M)
        squares = [v for v in g.sources() if v in nodes and field.is_square(v)]
        assert shaded == [str(v) for v in squares]


@pytest.mark.parametrize("limit", [None, 0], ids=["array", "dict"])
def test_parent_view_refuses_what_is_not_a_node(monkeypatch, limit):
    if limit is not None:
        monkeypatch.setattr(criterion, "_TABLE_LIMIT", limit)
    # x^2 - 1 over F_7: 6 -> 0 -> 6, so an array store holds a
    # predecessor at index -1 (element 6) and at index -7 (element 0)
    g = reachable_subgraph(gset(F7, (0, 1)))
    assert tuple(g.nodes) == (0, 6)
    assert g.parent == {0: (6, 0), 6: (0, 0)}
    calls = []

    def counting_evaluate(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(criterion, "evaluate", counting_evaluate)
    assert list(g.parent) == [0, 6] and len(g.parent) == 2
    assert 0 in g.parent and 6 in g.parent
    for key in (-1, -7, 7, 1, 2.0, 6.0, "6", None):
        assert key not in g.parent
        with pytest.raises(KeyError):
            g.parent[key]
    # in, len, iteration and a refused key read only the store
    assert calls == []
    assert g.parent[0] == (6, 0) and calls
