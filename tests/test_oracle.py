"""Dense polynomial arithmetic, the Frobenius-based irreducibility test,
and the word-by-word crosscheck against the fast chain test.

The irreducibility test is itself validated here against a test-local
trial-division factorizer that shares no code with the package's
polynomial layer.
"""

import gc
import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quadsemi.field import make_field
from quadsemi.oracle import CrosscheckReport, crosscheck
from quadsemi.polys import (
    _frobenius_map,
    _matrix_step,
    degree,
    normalize,
    poly_add,
    poly_gcd,
    poly_mul,
    poly_pow_mod,
    poly_rem,
    poly_sub,
    rabin_irreducible,
)
from quadsemi.quadratic import GeneratorSet, MonicQuadratic

F5 = make_field(5)
F7 = make_field(7)
F13 = make_field(13)


# -- test-local factorizer: only Field element ops, no polys.py helpers --

def naive_rem(field, f, g):
    """Remainder of f by a monic g, long division written out."""
    r = list(f)
    dg = len(g) - 1
    for k in range(len(r) - len(g), -1, -1):
        c = r[k + dg]
        if c:
            for j in range(dg + 1):
                r[k + j] = field.sub(r[k + j], field.mul(c, g[j]))
    while r and r[-1] == 0:
        r.pop()
    return r


def naive_irreducible(field, f):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    n = len(f) - 1
    assert n >= 1 and f[-1] == 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(field.q), repeat=d):
            if not naive_rem(field, f, list(tail) + [1]):
                return False
    return True


# -- dense arithmetic --

def test_normalize_and_degree():
    assert normalize([0, 0, 0]) == []
    assert normalize([3, 1, 0]) == [3, 1]
    assert degree([]) == -1
    assert degree([4]) == 0
    assert degree([0, 0, 1]) == 2


def test_pinned_arithmetic_examples():
    # (x - 2)(x + 2) = x^2 + 3 over F_7
    assert poly_mul(F7, [5, 1], [2, 1]) == [3, 0, 1]
    # x^4 reduced by x^2 - 5: substitute x^2 = 5 twice -> 25 = 4
    assert poly_rem(F7, [0, 0, 0, 0, 1], [2, 0, 1]) == [4]
    # gcd(x^2 - 4, x - 2) = x - 2, returned monic
    assert poly_gcd(F7, [3, 0, 1], [5, 1]) == [5, 1]


def horner(field, f, x):
    """Value at x of a little-endian coefficient list f."""
    acc = 0
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_ring_laws_exhaustive_low_degree(p, e):
    field = make_field(p, e)
    polys = [list(c) for d in range(3) for c in itertools.product(range(field.q), repeat=d + 1)]
    polys = [normalize(c) for c in polys]
    sample = polys[:: 7] if field.q > 3 else polys
    for f in sample:
        for g in sample:
            assert poly_add(field, f, g) == poly_add(field, g, f)
            assert poly_mul(field, f, g) == poly_mul(field, g, f)
            for x in range(field.q):
                assert horner(field, poly_mul(field, f, g), x) == field.mul(
                    horner(field, f, x), horner(field, g, x)
                )


def monic(field, g):
    lead_inv = field.inv(g[-1])
    return [field.mul(lead_inv, c) for c in g]


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_rem_matches_naive_rem(p, e):
    # a non-monic divisor and its monic associate leave the same remainder
    field = make_field(p, e)
    rng = random.Random(4121)
    for _ in range(120):
        df = rng.randrange(0, 7)
        dg = rng.randrange(1, 4)
        f = [rng.randrange(field.q) for _ in range(df)] + [1]
        g = [rng.randrange(field.q) for _ in range(dg)] + [
            rng.randrange(1, field.q)
        ]
        rem = poly_rem(field, f, g)
        assert degree(rem) < degree(g)
        assert rem == naive_rem(field, f, monic(field, g))


def test_rem_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_rem(F7, [1, 1], [])


def test_pow_mod_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative exponent"):
        poly_pow_mod(F7, [0, 1], -1, [2, 0, 1])


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_gcd_divides_and_is_monic(p, e):
    field = make_field(p, e)
    rng = random.Random(977)
    for _ in range(60):
        f = [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))] + [1]
        g = [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))] + [1]
        d = poly_gcd(field, f, g)
        assert d[-1] == 1
        assert poly_rem(field, f, d) == []
        assert poly_rem(field, g, d) == []
        # gcd of f with f * g is an associate multiple check
        assert poly_gcd(field, f, poly_mul(field, f, g)) == poly_gcd(
            field, f, f
        )


# -- Frobenius powers --

def frobenius_power(field, k, f):
    """x**(q**k) mod f for a monic f, as k steps of the Frobenius matrix
    from x mod f.
    """
    cur = poly_rem(field, [0, 1], f)
    if k:
        frobenius = _frobenius_map(field, poly_pow_mod(field, cur, field.q, f), f)
        for _ in range(k):
            cur = frobenius(cur)
    return cur


def test_frobenius_k0_is_x_mod_f():
    assert frobenius_power(F7, 0, [2, 0, 1]) == [0, 1]
    assert frobenius_power(F7, 0, [4, 1]) == [3]  # x mod (x + 4) = -4 = 3


def test_frobenius_single_step_hand_value():
    # x^7 = x * (x^2)^3 = 125 x = 6x modulo x^2 - 5 over F_7
    assert frobenius_power(F7, 1, [2, 0, 1]) == [0, 6]


def test_frobenius_full_cycle_fixes_x_on_irreducible_moduli():
    cases = [
        (F7, [2, 0, 1]),  # x^2 - 5
        (F7, [1, 0, 1, 1]),  # x^3 + x^2 + 1
        (F13, [6, 7, 7, 6, 1]),
    ]
    for field, f in cases:
        assert rabin_irreducible(field, f)
        assert frobenius_power(field, len(f) - 1, f) == [0, 1]


# -- irreducibility test --

def test_rabin_pinned_examples():
    assert rabin_irreducible(F7, [2, 0, 1])  # x^2 - 5
    assert not rabin_irreducible(F7, [3, 0, 1])  # x^2 - 4 = (x-2)(x+2)
    assert rabin_irreducible(F13, [6, 7, 7, 6, 1])  # (x - 5)^4 + 5


def test_rabin_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rabin_irreducible(F7, [])
    with pytest.raises(ValueError):
        rabin_irreducible(F7, [5])
    with pytest.raises(ValueError):
        rabin_irreducible(F7, [1, 2])  # not monic


def test_rabin_degree_one_always_irreducible():
    for c in range(7):
        assert rabin_irreducible(F7, [c, 1])


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1)])
def test_rabin_matches_trial_division_exhaustively(p, e):
    field = make_field(p, e)
    for n in (2, 3, 4):
        for tail in itertools.product(range(field.q), repeat=n):
            f = list(tail) + [1]
            assert rabin_irreducible(field, f) == naive_irreducible(field, f)


def test_rabin_matches_trial_division_exhaustively_over_f9():
    # the extension-field path of the Frobenius matrix product
    field = make_field(3, 2)
    for n in (2, 3):
        for tail in itertools.product(range(field.q), repeat=n):
            f = list(tail) + [1]
            assert rabin_irreducible(field, f) == naive_irreducible(field, f)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_rabin_matches_trial_division_sampled(p, e):
    field = make_field(p, e)
    rng = random.Random(60913 + field.q)
    for _ in range(15):
        n = rng.choice([5, 6])
        f = [rng.randrange(field.q) for _ in range(n)] + [1]
        assert rabin_irreducible(field, f) == naive_irreducible(field, f)


# Rootless reducible polynomials whose factors all divide x^(q^k) - x for
# a gcd point k = n/r.  Those whose factor degrees all divide n pass the
# final check x^(q^n) = x, so only the gcd at k rejects them; the
# products of quadratics are caught only at k = n/3 and n/5, not at n/2.
ROOTLESS_PRODUCTS = [
    (3, ([1, 0, 1], [2, 1, 1], [2, 2, 1])),  # three quadratics
    (5, ([1, 1, 1], [1, 4, 1], [2, 0, 1])),
    (5, ([1, 1, 1], [1, 4, 1], [2, 0, 1], [2, 1, 1], [3, 0, 1])),  # five
    (3, ([1, 0, 2, 1], [1, 1, 2, 1])),  # cubic * cubic
    (5, ([1, 0, 1, 1], [1, 0, 2, 1])),
    (3, ([1, 0, 1], [1, 0, 1, 1, 1])),  # quadratic * quartic
    (5, ([2, 0, 1], [1, 0, 1, 1, 1])),
    (3, ([1, 0, 2, 1], [1, 1, 2, 1], [1, 2, 0, 1])),  # three cubics
    (5, ([1, 0, 1, 1], [1, 0, 2, 1], [1, 1, 0, 1])),
    (3, ([1, 0, 0, 0, 2, 1], [1, 0, 0, 2, 1, 1])),  # quintic * quintic
    (5, ([1, 0, 0, 0, 4, 1], [1, 0, 0, 2, 0, 1])),
]


@pytest.mark.parametrize("p,factors", ROOTLESS_PRODUCTS)
def test_rabin_rejects_rootless_products_at_gcd_points(p, factors):
    field = make_field(p)
    f = [1]
    for g in factors:
        assert naive_irreducible(field, g)
        f = poly_mul(field, f, g)
    assert len(set(map(tuple, factors))) == len(factors)
    assert all(horner(field, f, x) for x in range(field.q))
    assert not rabin_irreducible(field, f)


@pytest.mark.parametrize(
    "p,f",
    [
        (3, [1, 0, 0, 0, 1, 1, 1]),
        (5, [1, 0, 0, 0, 1, 1, 1]),
        (3, [1, 0, 0, 0, 0, 0, 2, 1, 0, 1]),
        (5, [1, 0, 0, 0, 0, 0, 0, 2, 3, 1]),
    ],
)
def test_rabin_accepts_irreducible_degrees_6_and_9(p, f):
    field = make_field(p)
    assert naive_irreducible(field, f)
    assert rabin_irreducible(field, f)


# -- the Frobenius matrix against one square-and-multiply per step --

def reference_rabin(field, f):
    """Rabin's test with a fresh x -> x^q power mod f at every step."""
    n = len(f) - 1
    gcd_points = {
        n // r for r in range(2, n + 1)
        if n % r == 0 and all(r % d for d in range(2, r))
    }
    x = [0, 1]
    cur = poly_rem(field, x, f)
    for k in range(1, n + 1):
        cur = poly_pow_mod(field, cur, field.q, f)
        if k in gcd_points:
            if degree(poly_gcd(field, poly_sub(field, cur, x), f)) != 0:
                return False
    return not poly_rem(field, poly_sub(field, cur, x), f)


M61 = 2**61 - 1
P81 = 1208925819614629174706189  # the first prime above 2^80


@pytest.mark.parametrize(
    "p,e",
    [(3, 1), (5, 1), (13, 1), (17, 1), (101, 1), (3, 2), (5, 2), (3, 3), (M61, 1), (P81, 1)],
)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_frobenius_matrix_matches_square_and_multiply(p, e, data):
    # Over the small primes, degrees up to 40 sum long rows of packed
    # products.  The two wide primes pack slots of more than 64 bits at
    # any degree.  The reference pays a square-and-multiply with exponent
    # q per step, which keeps them and the extension fields shorter.
    field = make_field(p, e)
    max_n = 16 if e > 1 else 40 if p < 1000 else 8
    n = data.draw(st.integers(1, max_n))
    f = data.draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n)) + [1]
    assert rabin_irreducible(field, f) == reference_rabin(field, f)
    cur = poly_rem(field, [0, 1], f)
    for k in range(n + 1):
        assert frobenius_power(field, k, f) == cur
        cur = poly_pow_mod(field, cur, field.q, f)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("p", [3, 13, P81])
def test_matrix_step_worst_case_does_not_carry(p, n):
    # every entry and input coefficient p - 1 fills each packed slot with
    # n products (p - 1)**2, the most its width must hold; shorter inputs
    # leave the missing terms zero
    field = make_field(p)
    rows = [[p - 1] * n for _ in range(n)]
    step = _matrix_step(field, rows)
    for u in ([p - 1] * n, [p - 1] * (n // 2 + 1), [p - 1]):
        plain = [sum(a * row[j] for a, row in zip(u, rows)) % p for j in range(n)]
        assert step(u) == normalize(plain)


# (p, n) whose packed build takes slots of 1, 2, 4 and 8 bytes, then one
# wider than 8 bytes, which unpacks by shifts: n**2 (p - 1)**3 + p has 8,
# 15, 25, 49 and 74 bits
BUILD_SLOTS = [(3, 5), (5, 16), (13, 128), (4099, 64), (1000003, 128)]


@pytest.mark.parametrize("p,n", BUILD_SLOTS)
def test_frobenius_build_worst_case_does_not_carry(p, n):
    # every coefficient of -f mod p is p - 1.  The first xq has every
    # coefficient p - 1 too; the second makes every top slot the packed
    # build reads p - 1, since x**(n+1) = 1 mod f, so that each shifted
    # row adds the most, (p - 1)**2, to its slots.  The step must agree
    # with an unpacked sum over the rows xq**i mod f.
    field = make_field(p)
    f = [1] * (n + 1)
    for xq in ([p - 1] * n, [p - 1] + [(k - n) % p for k in range(1, n)]):
        rows = [[1]]
        for _ in range(n - 1):
            rows.append(poly_rem(field, poly_mul(field, rows[-1], xq), f))
        step = _frobenius_map(field, xq, f)
        for u in ([p - 1] * n, xq, [0, 1]):
            plain = [0] * n
            for a, row in zip(u, rows):
                for j, c in enumerate(row):
                    plain[j] += a * c
            assert step(u) == normalize([c % p for c in plain])


def gauss_count(q, n):
    """Monic irreducibles of degree n over F_q: (1/n) sum mu(d) q**(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
            if all(d % (r * r) for r in primes):
                total += (-1) ** len(primes) * q ** (n // d)
    return total // n


@pytest.mark.parametrize("p,e,max_n", [(3, 1, 6), (5, 1, 4), (7, 1, 4), (13, 1, 3), (3, 2, 3)])
def test_rabin_irreducible_counts_match_gauss(p, e, max_n):
    field = make_field(p, e)
    for n in range(1, max_n + 1):
        found = sum(
            rabin_irreducible(field, list(tail) + [1])
            for tail in itertools.product(range(field.q), repeat=n)
        )
        assert found == gauss_count(field.q, n)


@pytest.mark.parametrize("n", [64, 128])
def test_frobenius_steps_at_degrees_64_and_128(n):
    # the degrees of the deepest crosscheck words over F_13, where the
    # packed build takes 4-byte slots
    rng = random.Random(n)
    f = [rng.randrange(13) for _ in range(n)] + [1]
    cur = poly_rem(F13, [0, 1], f)
    frobenius = _frobenius_map(F13, poly_pow_mod(F13, cur, 13, f), f)
    for _ in range(3):
        nxt = poly_pow_mod(F13, cur, 13, f)
        assert frobenius(cur) == nxt
        cur = nxt


@pytest.mark.parametrize("p,e", [(3, 1), (13, 1), (P81, 1), (3, 2), (5, 2)])
def test_rabin_and_frobenius_on_degree_one(p, e):
    # every linear f is irreducible, and x**(q**k) = -c modulo x + c;
    # c = 0 makes x**q mod f, the one row of the matrix of
    # multiplication by x**q, zero
    field = make_field(p, e)
    for c in (0, 1, field.q - 1):
        f = [c, 1]
        assert rabin_irreducible(field, f)
        for k in range(3):
            assert frobenius_power(field, k, f) == normalize([field.neg(c)])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_irreducible_quadratic_count(p, e):
    field = make_field(p, e)
    found = sum(
        rabin_irreducible(field, [c0, c1, 1])
        for c0 in range(field.q)
        for c1 in range(field.q)
    )
    assert found == (field.q**2 - field.q) // 2


def test_product_of_irreducibles_is_reducible():
    f = [2, 0, 1]  # x^2 - 5 over F_7
    assert not rabin_irreducible(F7, poly_mul(F7, f, f))
    assert not rabin_irreducible(F7, poly_mul(F7, f, [1, 1]))


# -- crosscheck --

def pair(field, *quads):
    return GeneratorSet(field, [MonicQuadratic(a, b) for a, b in quads])


def test_crosscheck_known_irreducible_pair_depth_4():
    rep = crosscheck(pair(F13, (5, 8), (6, 8)), 4)
    assert rep.words == 30
    assert rep.mismatches == ()
    assert rep.irreducible_per_length == {1: 2, 2: 4, 3: 8, 4: 16}
    assert rep.reducible_per_length == {1: 0, 2: 0, 3: 0, 4: 0}


def test_crosscheck_reducible_pair_depth_2():
    rep = crosscheck(pair(F7, (0, 3), (0, 5)), 2)
    assert rep.words == 6
    assert rep.mismatches == ()
    assert rep.irreducible_per_length == {1: 2, 2: 2}
    assert rep.reducible_per_length == {1: 0, 2: 2}


def test_crosscheck_depth_1_equals_generator_irreducibility():
    for field in (F5, F7):
        quads = [
            MonicQuadratic(a, b)
            for a in range(field.q)
            for b in range(field.q)
        ]
        for f, g in itertools.combinations(quads[:: 3], 2):
            s = GeneratorSet(field, [f, g])
            rep = crosscheck(s, 1)
            assert rep.mismatches == ()
            expected = sum(not field.is_square(q.b) for q in (f, g))
            assert rep.irreducible_per_length == {1: expected}


def test_crosscheck_keeps_no_reference_to_its_field():
    # nothing outlives the call, so a dropped field and its tables can be
    # freed; the set is used by no other test, so a memo of the dense test
    # would miss here and keep the field as part of its key
    field = make_field(3, 3)
    s = pair(field, (7, 5), (20, 11))
    before = sys.getrefcount(field)
    crosscheck(s, 3)
    gc.collect()
    assert sys.getrefcount(field) == before


def test_crosscheck_rejects_bad_depth():
    with pytest.raises(ValueError):
        crosscheck(pair(F7, (0, 3)), 0)


def test_crosscheck_report_json_shape():
    rep = crosscheck(pair(F7, (0, 3), (0, 5)), 2)
    payload = rep.to_json()
    assert set(payload) == {
        "depth",
        "words",
        "mismatches",
        "irreducible_per_length",
    }
    assert payload["depth"] == 2
    assert payload["words"] == 6
    assert payload["mismatches"] == []
    assert payload["irreducible_per_length"] == {"1": 2, "2": 2}
    assert rep.ok()
