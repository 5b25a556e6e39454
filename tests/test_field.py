"""Field layer: construction guards, arithmetic laws, squareness
testing, and the digit kernel against the table kernel, exhaustively at
desk scale.
"""

import itertools
import random

import pytest

import quadsemi.field
from quadsemi.field import (
    _TABLE_LIMIT,
    Field,
    _DigitField,
    _find_modulus,
    _TableField,
    _value_of,
    is_prime,
    make_field,
)
from quadsemi.quadratic import GeneratorSet, MonicQuadratic, evaluate
from quadsemi.search import _CensusMemo

# Squares (including 0) in small prime fields, frozen from direct
# enumeration of x^2 over each field.
SQUARES_MOD_5 = {0, 1, 4}
SQUARES_MOD_7 = {0, 1, 2, 4}
SQUARES_MOD_13 = {0, 1, 3, 4, 9, 10, 12}

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)]


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger_values():
    assert is_prime(71)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(7919 * 7927)
    # psi_12, the least strong pseudoprime to the first 12 prime bases
    assert not is_prime(399165290221 * 798330580441)


def test_make_field_rejects_even_characteristic():
    with pytest.raises(ValueError):
        make_field(2)


def test_make_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        make_field(9)
    with pytest.raises(ValueError):
        make_field(15)
    # psi_13, the least strong pseudoprime to the first 13 prime bases
    # (Sorenson and Webster, 2017), is where the primality test stops
    # being exact
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        make_field(3317044064679887385961981)


def test_make_field_rejects_bad_extension_degree():
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, -1)


def test_prime_field_basic_shape():
    f = make_field(7)
    assert (f.p, f.e, f.q) == (7, 1, 7)


def test_extension_field_shape_and_modulus():
    f9 = make_field(3, 2)
    assert (f9.p, f9.e, f9.q) == (3, 2, 9)
    assert f9.modulus == (1, 0, 1)
    f25 = make_field(5, 2)
    assert f25.modulus == (1, 1, 1)


def smallest_irreducible_by_trial_division(p, e):
    """The first monic degree-e polynomial over F_p, by coefficient tuple
    from the constant term up, that no monic polynomial of degree
    1..e/2 divides; integer long division only.
    """

    def divides(g, f):
        r = list(f)
        for k in range(len(f) - len(g), -1, -1):
            c = r[k + len(g) - 1]
            for j, gj in enumerate(g):
                r[k + j] = (r[k + j] - c * gj) % p
        return not any(r)

    for tail in itertools.product(range(p), repeat=e):
        f = list(tail) + [1]
        if not any(
            divides(list(g) + [1], f)
            for d in range(1, e // 2 + 1)
            for g in itertools.product(range(p), repeat=d)
        ):
            return tuple(f)


@pytest.mark.parametrize(
    "p,e",
    [(3, e) for e in range(2, 7)] + [(5, e) for e in range(2, 5)] + [(7, 2), (7, 3), (11, 2)],
)
def test_default_modulus_is_smallest_irreducible(p, e, monkeypatch):
    # the candidates x divides are never tested, and the choice (so the
    # element encoding) is the brute-force one
    tested = []
    rabin = quadsemi.field.rabin_irreducible

    def spy(field, f):
        tested.append(f[0])
        return rabin(field, f)

    monkeypatch.setattr(quadsemi.field, "rabin_irreducible", spy)
    expected = smallest_irreducible_by_trial_division(p, e)
    assert _find_modulus(make_field(p), e) == expected
    assert tested and 0 not in tested
    monkeypatch.undo()
    assert make_field(p, e).modulus == expected


def test_supplied_modulus_accepted():
    f = make_field(3, 2, [2, 2, 1])
    assert f.modulus == (2, 2, 1)
    assert f.q == 9


def test_prime_field_stores_trivial_modulus():
    f = make_field(7, 1, [3, 1])
    assert f.modulus == (0, 1)
    assert f == make_field(7)
    assert hash(f) == hash(make_field(7))
    # digit vectors of an extension field live over its prime field, and
    # a prime field has none
    assert f._base is None
    assert make_field(7, 2)._base == f
    gens = [MonicQuadratic(1, 3)]
    assert GeneratorSet(f, gens) == GeneratorSet(make_field(7), gens)
    assert hash(GeneratorSet(f, gens)) == hash(GeneratorSet(make_field(7), gens))


def test_supplied_modulus_rejected_when_reducible():
    with pytest.raises(ValueError):
        make_field(3, 2, [0, 0, 1])  # x^2 factors as x * x


def test_supplied_modulus_rejected_when_not_monic_or_wrong_degree():
    with pytest.raises(ValueError, match=r"must be monic of degree 2 \(length 3, leading 1\)"):
        make_field(3, 2, [1, 1, 2])
    with pytest.raises(ValueError, match=r"must be monic of degree 2 \(length 3, leading 1\)"):
        make_field(3, 2, [1, 1])
    for modulus in ([1, 2], [3, 1, 1]):
        with pytest.raises(ValueError, match="for a prime field must be monic of degree 1"):
            make_field(7, 1, modulus)
    with pytest.raises(ValueError, match=r"coefficients must lie in \[0, 3\)"):
        make_field(3, 2, [4, 0, 1])


def test_digits_round_trip():
    f = make_field(3, 2)
    for v in range(f.q):
        assert _value_of(f._vector(v), f.p) == v
    assert f._vector(5) == [2, 1]  # 5 = 2 + 1*3


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, e):
    f = make_field(p, e)
    els = list(range(f.q))
    for x in els:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        assert f.sub(x, x) == 0
        for y in els:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            assert f.sub(x, y) == f.add(x, f.neg(y))
    # associativity and distributivity on a full triple sweep for the
    # smallest fields, sampled diagonally for the rest
    if f.q <= 9:
        triples = [(x, y, z) for x in els for y in els for z in els]
    else:
        triples = [(x, y, (x * y + 1) % f.q) for x in els for y in els]
    for x, y, z in triples:
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_inverse_and_pow(p, e):
    f = make_field(p, e)
    for x in range(1, f.q):
        inv = f.inv(x)
        assert f.mul(x, inv) == 1
        assert f.pow(x, f.q - 1) == 1  # multiplicative group order
        assert f.pow(x, 0) == 1
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_extension_multiplication_against_hand_values():
    # F_9 with modulus x^2 + 1: writing elements c0 + c1*t with t^2 = -1,
    # (1 + t)^2 = 2t -> encoded 6, and t * t = -1 = 2.
    f = make_field(3, 2)
    t = _value_of((0, 1), f.p)
    one_plus_t = _value_of((1, 1), f.p)
    assert f.mul(t, t) == 2
    assert f.mul(one_plus_t, one_plus_t) == _value_of((0, 2), f.p)


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_is_square_matches_exhaustive_squaring(p, e):
    f = make_field(p, e)
    squares = {f.mul(x, x) for x in range(f.q)}
    for v in range(f.q):
        assert f.is_square(v) == (v in squares)


def test_frozen_square_sets():
    assert {v for v in range(5) if make_field(5).is_square(v)} == SQUARES_MOD_5
    assert {v for v in range(7) if make_field(7).is_square(v)} == SQUARES_MOD_7
    assert {v for v in range(13) if make_field(13).is_square(v)} == SQUARES_MOD_13


@pytest.mark.parametrize("p,e", SMALL_FIELDS + [(11, 1), (13, 1)])
def test_nonzero_square_count(p, e):
    f = make_field(p, e)
    nonzero_squares = {f.mul(x, x) for x in range(f.q)} - {0}
    assert len(nonzero_squares) == (f.q - 1) // 2


@pytest.mark.parametrize("p,e", SMALL_FIELDS)
def test_euler_criterion_agrees_with_table(p, e):
    f = make_field(p, e)
    for v in range(f.q):
        assert f.euler_is_square(v) == f.is_square(v)


def test_zero_counts_as_square():
    for p, e in SMALL_FIELDS:
        assert make_field(p, e).is_square(0)


def test_field_equality_and_hash():
    assert make_field(7) == make_field(7)
    assert make_field(7) != make_field(5)
    assert make_field(3, 2) == make_field(3, 2)
    assert hash(make_field(7)) == hash(make_field(7))


def test_large_prime_field_skips_square_table():
    # above the table cutoff squareness falls back to the exponent test
    f = make_field(2**20 + 7)
    assert f.is_square(0) and f.is_square(1) and f.is_square(4)
    assert f.is_square(f.mul(12345, 12345))
    nonsquare = next(v for v in range(2, f.q) if not f.is_square(v))
    # a non-square times a nonzero square stays a non-square
    assert not f.is_square(f.mul(nonsquare, f.mul(12345, 12345)))


# -- the digit kernel against the table kernel --


def digit_kernel(p, e, modulus=None):
    """F_{p^e} on the digit kernel, which make_field otherwise picks only
    above _TABLE_LIMIT."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadsemi.field, "_TABLE_LIMIT", 0)
        return make_field(p, e, modulus)


def assert_digit_kernel_matches_table_kernel(p, e, modulus, pairs, singles):
    d, t = digit_kernel(p, e, modulus), make_field(p, e, modulus)
    assert (type(d), type(t)) == (_DigitField, _TableField) and d == t
    assert d._square_t is None  # so is_square below is Euler's criterion
    for x, y in pairs:
        assert d.add(x, y) == t.add(x, y), (x, y)
        assert d.sub(x, y) == t.sub(x, y), (x, y)
        assert d.mul(x, y) == t.mul(x, y), (x, y)
    for x in singles:
        assert d.neg(x) == t.neg(x)
        for n in (0, 1, 2, 3, t.q - 2, t.q, 12345):
            assert d.pow(x, n) == t.pow(x, n), (x, n)
        assert d.is_square(x) == t.is_square(x)
        if x:
            assert d.inv(x) == t.inv(x)
            assert d.pow(x, -3) == t.pow(x, -3)


# Every extension field with q <= 125, plus three supplied moduli whose
# root x is not primitive (neither is the root of the default modulus
# x^2 + 1 of F_9): F_25 under x^2 + 2, where x has order 8, F_27 under
# x^3 + x^2 + 2 (order 13) and F_81 under x^4 + 2x^3 + x + 1 (order 20).
# There the primitive element g is not x, so the rows of the matrix of
# multiplication by g that builds the tables are not plain shifts.
SUPPLIED_ROOT_ORDER = {(5, 2): 8, (3, 3): 13, (3, 4): 20}


@pytest.mark.parametrize(
    "p,e,modulus",
    [(3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (3, 4, None),
     (11, 2, None), (5, 3, None), (5, 2, [2, 0, 1]), (3, 3, [2, 0, 1, 1]),
     (3, 4, [1, 1, 0, 2, 1])],
)
def test_kernel_matches_digit_reference_exhaustive(p, e, modulus):
    if modulus is not None:
        # the root x is encoded as p
        f = digit_kernel(p, e, modulus)
        order = min(k for k in range(1, f.q) if f.pow(p, k) == 1)
        assert order == SUPPLIED_ROOT_ORDER[p, e]
    els = range(p**e)
    assert_digit_kernel_matches_table_kernel(
        p, e, modulus, [(x, y) for x in els for y in els], els
    )


@pytest.mark.parametrize("p,e", [(23, 2), (3, 7), (5, 5)])
def test_kernel_matches_digit_reference_sampled(p, e):
    q = p**e
    rng = random.Random(q)
    draw = lambda: rng.choice((0, 1, q - 1, rng.randrange(q)))  # noqa: E731
    assert_digit_kernel_matches_table_kernel(
        p, e, None, [(draw(), draw()) for _ in range(3000)], [draw() for _ in range(300)]
    )


def test_field_above_table_limit_takes_digit_path():
    f = make_field(1031, 2)
    assert f.q > _TABLE_LIMIT
    assert type(f) is _DigitField and f._square_t is None
    # no table kernel to compare with at this size: the field laws
    rng = random.Random(1031)
    els = [rng.randrange(1, f.q) for _ in range(40)]
    for x, y in zip(els[:20], els[20:]):
        z = f.add(x, y)
        assert f.sub(z, y) == x and f.add(f.neg(x), z) == y
        assert f.mul(x, z) == f.add(f.mul(x, x), f.mul(x, y))
        assert f.mul(x, f.inv(x)) == 1 and f.pow(x, f.q - 1) == 1
        assert f.mul(f.mul(x, y), f.inv(y)) == x
        assert f.is_square(f.mul(x, x)) and f.is_square(x) == f.is_square(f.pow(x, 3))


def reference_square_map(field, a, b, u):
    """(u - a)^2 - b composed from the kernel's own sub and mul."""
    t = field.sub(u, a)
    return field.sub(field.mul(t, t), b)


# The fields of test_kernel_matches_digit_reference_exhaustive, and F_3
# to F_13.
SQUARE_MAP_FIELDS = [(p, 1, None) for p in (3, 5, 7, 11, 13)] + [
    (3, 2, None), (5, 2, None), (3, 3, None), (7, 2, None), (3, 4, None),
    (11, 2, None), (5, 3, None), (5, 2, [2, 0, 1]), (3, 3, [2, 0, 1, 1]),
    (3, 4, [1, 1, 0, 2, 1]),
]


@pytest.mark.parametrize("p,e,modulus", SQUARE_MAP_FIELDS)
def test_square_map_matches_sub_and_mul_on_every_element(p, e, modulus):
    # every kernel's map, on every u, for every a and b over fields up to
    # q = 25 and for a and b among 0, 1, q - 1 and two drawn values above;
    # the table kernel's also equals the digit kernel's
    field = make_field(p, e, modulus)
    kernels = [field] if e == 1 else [field, digit_kernel(p, e, modulus)]
    q = field.q
    rng = random.Random(q)
    values = range(q) if q <= 25 else sorted({0, 1, q - 1, rng.randrange(q), rng.randrange(q)})
    for a, b in itertools.product(values, repeat=2):
        images = []
        for kernel in kernels:
            square_map = kernel._square_map(a, b)
            image = [square_map(u) for u in range(q)]
            assert image == [reference_square_map(kernel, a, b, u) for u in range(q)], (a, b)
            images.append(image)
        assert images[1:] == images[:-1], (a, b)
        assert images[0] == [evaluate(field, MonicQuadratic(a, b), u) for u in range(q)]


@pytest.mark.parametrize("p,e,modulus", SQUARE_MAP_FIELDS)
def test_square_table_matches_square_map_on_every_element(p, e, modulus):
    # the census's image tables, built once per quadratic from the
    # kernel's one map, for a and b among 0, 1, q - 1 and two drawn values
    field = make_field(p, e, modulus)
    kernels = [field] if e == 1 else [field, digit_kernel(p, e, modulus)]
    q = field.q
    rng = random.Random(q)
    values = sorted({0, 1, q - 1, rng.randrange(q), rng.randrange(q)})
    for kernel in kernels:
        memo = _CensusMemo(kernel)
        for a, b in itertools.product(values, repeat=2):
            table = memo.table(a, b)
            assert table == [reference_square_map(kernel, a, b, u) for u in range(q)], (a, b)
            assert memo.table(a, b) is table
