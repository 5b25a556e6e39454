"""Acceptance gate: eight exact, zero-tolerance criteria.

Each test prints one `[criterion N] PASS`/`FAIL` line (visible with
pytest -s) before asserting, so a red run still reports every criterion
it reached.  All arithmetic is exact; nothing here is approximate.

  1. The known all-irreducible pair over F_13 checks out; depth-4 crosscheck
     agrees on all 30 words.
  2. The a / a+1 family reproduces the two-node loop/swap graph for
     every qualifying a over q in {5, 13, 17, 29}.
  3. The shifted F_7 pair reproduces the three-node, six-edge graph and
     stays all-irreducible despite its square seed.
  4. Single shift-free generators never survive over p = 7 (mod 8),
     p in {7, 23, 31, 47, 71}; witnesses fail the dense test too.
  5. Shift-free pairs of distinct non-squares never survive over
     p = 3 (mod 4), p in {7, 11, 19, 23, 31}.
  6. Criterion <=> oracle: exhaustive |S| <= 2 over q in {3, 5, 7, 9}
     plus 500 sampled pairs over q in {11, 13}; depth-3 crosscheck has
     no mismatches and the graph verdict matches exhaustive word
     enumeration up to length |reach| + 1.
  7. Every witness produced in suites 4-6 is prefix-minimal.
  8. Counting sanity: (q^2 - q)/2 irreducible monic quadratics and
     (q - 1)/2 non-zero squares for q in {3, 5, 7, 9, 11, 13}.
"""

import itertools
import random

from quadsemi.criterion import (
    check_semigroup_irreducible,
    distinguished_set,
    reachable_subgraph,
    word_irreducible,
)
from quadsemi.field import make_field
from quadsemi.oracle import crosscheck
from quadsemi.polys import rabin_irreducible
from quadsemi.quadratic import GeneratorSet, MonicQuadratic, compose_word
from quadsemi.search import (
    example_family,
    nonsquare_pair_records,
    single_generator_records,
    verify_lemma_p7mod8,
    verify_prop_p3mod4,
)

SAMPLE_SEED = 20250825
EXHAUSTIVE_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2))
SAMPLED_PRIMES = (11, 13)
SINGLE_GEN_PRIMES = (7, 23, 31, 47, 71)
PAIR_PRIMES = (7, 11, 19, 23, 31)


def _report(n: int, ok: bool) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}")


def _all_quadratics(field):
    return [
        MonicQuadratic(a, b) for a in range(field.q) for b in range(field.q)
    ]


def _exhaustive_sets(field):
    quads = _all_quadratics(field)
    for f in quads:
        yield GeneratorSet(field, [f])
    for f, g in itertools.combinations(quads, 2):
        yield GeneratorSet(field, [f, g])


def _sampled_pair_sets(field, count):
    pairs = list(itertools.combinations(_all_quadratics(field), 2))
    rng = random.Random(SAMPLE_SEED)
    return [GeneratorSet(field, list(p)) for p in rng.sample(pairs, count)]


def _suite6_sets():
    for p, e in EXHAUSTIVE_FIELDS:
        field = make_field(p, e)
        yield from _exhaustive_sets(field)
    for p in SAMPLED_PRIMES:
        yield from _sampled_pair_sets(make_field(p), 500)


def test_criterion_1_known_irreducible_pair():
    field = make_field(13)
    s = GeneratorSet(field, [MonicQuadratic(5, 8), MonicQuadratic(6, 8)])
    verdict = check_semigroup_irreducible(s)
    report = crosscheck(s, 4)
    ok = (
        verdict.irreducible
        and report.words == 30
        and report.mismatches == ()
        and sum(report.irreducible_per_length.values()) == 30
    )
    _report(1, ok)
    assert verdict.irreducible
    assert report.words == 30
    assert report.mismatches == ()
    assert sum(report.irreducible_per_length.values()) == 30


def test_criterion_2_two_node_family_graphs():
    failures = []
    for q in (5, 13, 17, 29):
        field = make_field(q)
        members = example_family(field)
        if not members:
            failures.append((q, "empty family"))
        for a in members:
            a1 = field.add(a, 1)
            s = GeneratorSet(
                field,
                [MonicQuadratic(a, field.neg(a)), MonicQuadratic(a1, field.neg(a))],
            )
            graph = reachable_subgraph(s)
            expected_edges = (
                (a, 0, a),
                (a, 1, a1),
                (a1, 0, a1),
                (a1, 1, a),
            )
            if not (
                graph.seeds == (a,)
                and set(graph.nodes) == {a, a1}
                and tuple(graph.iter_edges()) == expected_edges
                and check_semigroup_irreducible(s).irreducible
            ):
                failures.append((q, a))
    _report(2, not failures)
    assert not failures


def test_criterion_3_three_node_graph_with_square_seed():
    field = make_field(7)
    s = GeneratorSet(field, [MonicQuadratic(1, 5), MonicQuadratic(4, 5)])
    graph = reachable_subgraph(s)
    verdict = check_semigroup_irreducible(s)
    ok = (
        distinguished_set(s) == (2,)
        and set(graph.nodes) == {3, 6}
        and tuple(graph.iter_edges())
        == ((2, 0, 3), (2, 1, 6), (3, 0, 6), (3, 1, 3), (6, 0, 6), (6, 1, 6))
        and verdict.irreducible
        and field.is_square(2)
    )
    _report(3, ok)
    assert ok


def test_criterion_4_single_generators_p7mod8():
    failures = []
    for p in SINGLE_GEN_PRIMES:
        if not verify_lemma_p7mod8(p):
            failures.append((p, "verification returned false"))
            continue
        field = make_field(p)
        for record in single_generator_records(p):
            if record.b_is_square:
                continue
            s = GeneratorSet(field, [MonicQuadratic(0, record.b)])
            if word_irreducible(s, record.witness):
                failures.append((p, record.b, "witness passes the chain test"))
            if len(record.witness) <= 4 and rabin_irreducible(
                field, compose_word(s, record.witness)
            ):
                failures.append((p, record.b, "witness passes the dense test"))
    _report(4, not failures)
    assert not failures


def test_criterion_5_nonsquare_pairs_p3mod4():
    failures = []
    for p in PAIR_PRIMES:
        if not verify_prop_p3mod4(p):
            failures.append((p, "verification returned false"))
            continue
        for record in nonsquare_pair_records(p):
            if record.irreducible or not record.witness:
                failures.append((p, record.b_f, record.b_g))
    _report(5, not failures)
    assert not failures


def test_criterion_6_criterion_equals_oracle():
    mismatch_sets = []
    equivalence_failures = []
    for s in _suite6_sets():
        report = crosscheck(s, 3)
        if report.mismatches:
            mismatch_sets.append((s, report.mismatches))
        verdict = check_semigroup_irreducible(s)
        bound = len(verdict.graph.nodes) + 1
        if verdict.irreducible:
            for length in range(1, bound + 1):
                for w in itertools.product(range(len(s)), repeat=length):
                    if not word_irreducible(s, w):
                        equivalence_failures.append((s, w))
        else:
            if len(verdict.witness) > bound or word_irreducible(s, verdict.witness):
                equivalence_failures.append((s, verdict.witness))
    ok = not mismatch_sets and not equivalence_failures
    _report(6, ok)
    assert not mismatch_sets
    assert not equivalence_failures


def test_criterion_7_witness_prefix_minimality():
    failures = []

    def check_witness(s, witness):
        for cut in range(1, len(witness)):
            if not word_irreducible(s, witness[:cut]):
                failures.append((s, witness, cut))

    for p in SINGLE_GEN_PRIMES:
        field = make_field(p)
        for record in single_generator_records(p):
            s = GeneratorSet(field, [MonicQuadratic(0, record.b)])
            check_witness(s, record.witness)
    for p in PAIR_PRIMES:
        field = make_field(p)
        for record in nonsquare_pair_records(p):
            s = GeneratorSet(
                field,
                [MonicQuadratic(0, record.b_f), MonicQuadratic(0, record.b_g)],
            )
            check_witness(s, record.witness)
    for s in _suite6_sets():
        verdict = check_semigroup_irreducible(s)
        if not verdict.irreducible:
            check_witness(s, verdict.witness)
    _report(7, not failures)
    assert not failures


def test_criterion_8_counting_sanity():
    failures = []
    for p, e in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        field = make_field(p, e)
        q = field.q
        irreducible = sum(
            rabin_irreducible(field, [c0, c1, 1])
            for c0 in range(q)
            for c1 in range(q)
        )
        nonzero_squares = {field.mul(x, x) for x in range(q)} - {0}
        if irreducible != (q**2 - q) // 2:
            failures.append((q, "quadratics", irreducible))
        if len(nonzero_squares) != (q - 1) // 2:
            failures.append((q, "squares", len(nonzero_squares)))
    _report(8, not failures)
    assert not failures
