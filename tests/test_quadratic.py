"""Canonical shifted form of monic quadratics, generator sets, and word
composition.
"""

import pytest

from quadsemi.field import make_field
from quadsemi.polys import rabin_irreducible
from quadsemi.quadratic import (
    GeneratorSet,
    MonicQuadratic,
    check_word,
    compose_word,
    evaluate,
    expand,
    from_coeffs,
)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2)]


def horner(field, f, x):
    """Value at x of a little-endian coefficient list f."""
    acc = 0
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_from_coeffs_expand_round_trip(p, e):
    f = make_field(p, e)
    for c1 in range(f.q):
        for c0 in range(f.q):
            quad = from_coeffs(f, c1, c0)
            assert expand(f, quad) == (c1, c0)
    for a in range(f.q):
        for b in range(f.q):
            quad = MonicQuadratic(a, b)
            assert from_coeffs(f, *expand(f, quad)) == quad


def test_from_coeffs_hand_values():
    f7 = make_field(7)
    # x^2 - 3  ->  a = 0, b = 3
    assert from_coeffs(f7, 0, 4) == MonicQuadratic(0, 3)
    # x^2 + 5x + 3 = (x - 1)^2 - 5 over F_7
    assert from_coeffs(f7, 5, 3) == MonicQuadratic(1, 5)
    # x^2 + 6x + 4 = (x - 4)^2 - 5 over F_7
    assert from_coeffs(f7, 6, 4) == MonicQuadratic(4, 5)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_evaluate_matches_dense_evaluation(p, e):
    f = make_field(p, e)
    for a in range(f.q):
        for b in range(f.q):
            quad = MonicQuadratic(a, b)
            c1, c0 = expand(f, quad)
            dense = [c0, c1, 1]
            for x in range(f.q):
                assert evaluate(f, quad, x) == horner(f, dense, x)


@pytest.mark.parametrize("p,e", SMALL_FIELDS + [(11, 1)])
def test_quadratic_irreducibility_matches_dense_test(p, e):
    f = make_field(p, e)
    for a in range(f.q):
        for b in range(f.q):
            quad = MonicQuadratic(a, b)
            c1, c0 = expand(f, quad)
            assert (not f.is_square(quad.b)) == rabin_irreducible(f, [c0, c1, 1])


def test_generator_set_rejects_empty():
    f = make_field(7)
    with pytest.raises(ValueError):
        GeneratorSet(f, [])


def test_generator_set_rejects_out_of_range():
    f = make_field(7)
    with pytest.raises(ValueError):
        GeneratorSet(f, [MonicQuadratic(7, 0)])
    with pytest.raises(ValueError):
        GeneratorSet(f, [MonicQuadratic(0, -1)])


def test_generator_set_deduplicates_keeping_order():
    f = make_field(7)
    s = GeneratorSet(
        f,
        [
            MonicQuadratic(0, 3),
            MonicQuadratic(0, 5),
            MonicQuadratic(0, 3),
            MonicQuadratic(1, 5),
        ],
    )
    assert s.gens == (
        MonicQuadratic(0, 3),
        MonicQuadratic(0, 5),
        MonicQuadratic(1, 5),
    )
    assert len(s) == 3


def test_generator_set_keeps_same_b_distinct_a():
    f = make_field(7)
    s = GeneratorSet(f, [MonicQuadratic(1, 5), MonicQuadratic(4, 5)])
    assert len(s) == 2


def test_generator_names():
    f = make_field(7)
    s = GeneratorSet(f, [MonicQuadratic(0, b) for b in range(5)])
    assert [s.name(i) for i in range(5)] == ["f", "g", "h", "f3", "f4"]


def test_check_word_validation():
    f = make_field(7)
    s = GeneratorSet(f, [MonicQuadratic(0, 3), MonicQuadratic(0, 5)])
    assert check_word(s, [0, 1, 0]) == (0, 1, 0)
    with pytest.raises(ValueError):
        check_word(s, [])
    with pytest.raises(ValueError):
        check_word(s, [2])
    with pytest.raises(ValueError):
        check_word(s, [-1])


def test_compose_word_single_letter_is_expansion():
    f = make_field(13)
    s = GeneratorSet(f, [MonicQuadratic(5, 8), MonicQuadratic(6, 8)])
    c1, c0 = expand(f, s.gens[0])
    assert compose_word(s, [0]) == [c0, c1, 1]


def test_compose_word_self_composition_f13():
    # ((x - 5)^2 + 5) composed with itself over F_13, expanded by hand:
    # ((x-5)^2 + 5 - 5)^2 + 5 = (x-5)^4 + 5 = x^4 + 6x^3 + 7x^2 + 7x + 6.
    f = make_field(13)
    s = GeneratorSet(f, [MonicQuadratic(5, 8), MonicQuadratic(6, 8)])
    assert compose_word(s, [0, 0]) == [6, 7, 7, 6, 1]


def test_compose_word_outermost_first():
    # word [0, 1] must be f(g(x)), not g(f(x))
    f = make_field(7)
    s = GeneratorSet(f, [MonicQuadratic(0, 3), MonicQuadratic(0, 5)])
    fg = compose_word(s, [0, 1])  # (x^2 - 5)^2 - 3 = x^4 + 4x^2 + 1
    gf = compose_word(s, [1, 0])  # (x^2 - 3)^2 - 5 = x^4 + x^2 + 4
    assert fg == [1, 0, 4, 0, 1]
    assert gf == [4, 0, 1, 0, 1]


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
def test_compose_word_agrees_with_pointwise_composition(p, e):
    # the dense composition evaluated at x equals the nested evaluation
    f = make_field(p, e)
    quads = [MonicQuadratic(a, b) for a in range(f.q) for b in range(f.q)]
    s = GeneratorSet(f, quads[: 3])
    words = [[0], [1, 2], [2, 0, 1], [0, 0, 1, 2]]
    for w in words:
        dense = compose_word(s, w)
        assert len(dense) == 2 ** len(w) + 1 and dense[-1] == 1
        for x in range(f.q):
            nested = x
            for idx in reversed(w):
                nested = evaluate(f, s.gens[idx], nested)
            assert horner(f, dense, x) == nested


def test_monic_quadratic_ordering_is_lexicographic():
    assert MonicQuadratic(0, 5) < MonicQuadratic(1, 0)
    assert MonicQuadratic(1, 2) < MonicQuadratic(1, 3)
