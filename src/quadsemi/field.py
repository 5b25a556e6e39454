"""Exact arithmetic in F_q for odd prime powers q = p^e.

Field elements are encoded as plain integers in [0, q).  For e > 1 the
integer is read as e base-p digits, little-endian: digit i is the
coefficient of the i-th power of the residue class of x modulo the
defining polynomial.  For e = 1 the encoding is the usual integer
residue.  All operations are pure functions of the encoded values, so a
Field instance can be shared freely between threads or worker processes.

Each field has one arithmetic kernel, picked by make_field: integer
residues for a prime field; up to q = 2^20, O(q) tables of a primitive
element g (antilogarithms, logarithms and Zech logarithms log(1 + g^d)),
so an operation is one or two lookups; above that, the dense layer of
``polys`` over F_p on digit vectors, modulo the defining polynomial.
The table kernel extends the digit kernel, whose powers find g.  The
tests check the digit kernel against the table kernel.  Each kernel
has one generator map u -> (u - a)^2 - b, the callable
``_square_map(a, b)``.  Every map evaluation goes through it, the
census's image tables included, except in the closure walk and its
replay over a prime field, which inline it.

Fields of even characteristic are rejected: the quadratic-residue
machinery this package is built around needs 2 to be invertible.
"""

from __future__ import annotations

import itertools

from .polys import (
    _matrix_step,
    _prime_factors,
    poly_add,
    poly_mul,
    poly_pow_mod,
    poly_rem,
    poly_sub,
    rabin_irreducible,
)

# Up to this order a field keeps a squareness table and an extension field
# takes the table kernel; above it, Euler's criterion and the digit kernel.
_TABLE_LIMIT = 1 << 20

# The first 13 primes: Miller-Rabin to these bases is exact below
# psi_13 (Sorenson and Webster, 2017); make_field refuses p from there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below _MR_EXACT_BELOW (3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _value_of(digits, p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


class Field:
    """Immutable arithmetic context for F_q, q = p^e with p an odd prime,
    and the prime kernel; extension fields are private subclasses.

    Construct through :func:`make_field`, which validates the inputs and
    selects the defining polynomial.  ``modulus`` is stored little-endian
    with length e + 1 and leading coefficient 1; for prime fields it is
    the trivial (0, 1), i.e. the polynomial x.  ``_base`` is None for a
    prime field, else F_p, the coefficient field of the digit vectors.
    """

    __slots__ = ("p", "e", "q", "modulus", "_base", "_square_t")

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], base: Field | None = None):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._base = base
        self._square_t = bytes(self._tables()) if self.q <= _TABLE_LIMIT else None

    def _tables(self) -> bytearray:
        # a kernel's O(q) tables; returns the squareness table (0 a square)
        p = self.p
        sq = bytearray(p)
        for x in range((p + 1) // 2):
            sq[x * x % p] = 1
        return sq

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        return (x - y) % self.p

    def neg(self, x: int) -> int:
        return -x % self.p

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, self.q - 2)

    def pow(self, x: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(x), -n)
        return self._pow(x, n)

    def _pow(self, x: int, n: int) -> int:
        return pow(x, n, self.p)

    def _square_map(self, a: int, b: int):
        """The generator map u -> (u - a)^2 - b, as a callable."""
        p = self.p
        return lambda u: ((u - a) * (u - a) - b) % p

    def is_square(self, x: int) -> bool:
        """Quadratic-residue test; 0 counts as a square (0 = 0^2)."""
        if self._square_t is not None:
            return bool(self._square_t[x])
        return self.euler_is_square(x)

    def euler_is_square(self, x: int) -> bool:
        """Euler's criterion computed directly, bypassing any table."""
        if x == 0:
            return True
        return self.pow(x, (self.q - 1) // 2) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"Field(p={self.p})"
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


class _DigitField(Field):
    """The digit kernel, above _TABLE_LIMIT: each operation is the dense
    layer's over F_p on digit vectors, modulo the defining polynomial."""

    __slots__ = ()

    def _vector(self, x: int) -> list[int]:
        # the e base-p digits of x, little-endian
        p, out = self.p, []
        for _ in range(self.e):
            x, r = divmod(x, p)
            out.append(r)
        return out

    def add(self, x: int, y: int) -> int:
        return _value_of(poly_add(self._base, self._vector(x), self._vector(y)), self.p)

    def sub(self, x: int, y: int) -> int:
        return _value_of(poly_sub(self._base, self._vector(x), self._vector(y)), self.p)

    def neg(self, x: int) -> int:
        return _value_of(poly_sub(self._base, [], self._vector(x)), self.p)

    def mul(self, x: int, y: int) -> int:
        product = poly_mul(self._base, self._vector(x), self._vector(y))
        return _value_of(poly_rem(self._base, product, self.modulus), self.p)

    def _pow(self, x: int, n: int) -> int:
        return _value_of(poly_pow_mod(self._base, self._vector(x), n, self.modulus), self.p)

    def _square_map(self, a: int, b: int):
        sub, mul = self.sub, self.mul

        def square_map(u: int) -> int:
            t = sub(u, a)
            return sub(mul(t, t), b)

        return square_map


class _TableField(_DigitField):
    """The table kernel, up to _TABLE_LIMIT: exp[k] = g^k for the smallest-
    encoded primitive g (constants lie in F_p and never are), twice over
    so that a sum of two logarithms needs no reduction; log[0] = -1;
    zech[d] = log(1 + g^d), which is -1 exactly when g^d = -1."""

    __slots__ = ("_exp", "_log", "_zech")

    def _tables(self) -> bytearray:
        # the digit kernel's powers find g; row j of the matrix of
        # multiplication by g is x^j g mod modulus
        p, n, base = self.p, self.q - 1, self._base
        tests = [n // r for r in _prime_factors(n)]
        power = super()._pow
        g = next(g for g in range(p, n + 1) if all(power(g, t) != 1 for t in tests))
        times_g = _matrix_step(
            base, [poly_rem(base, [0] * j + self._vector(g), self.modulus) for j in range(self.e)]
        )
        # the three tables share one int object per value, which cuts
        # their memory by about a quarter near the table limit
        pool = list(range(n + 1))
        powers, cur = [1], [1]
        for _ in range(n - 1):
            cur = times_g(cur)
            powers.append(pool[_value_of(cur, p)])
        log = [0] * (n + 1)
        for k, v in enumerate(powers):
            log[v] = pool[k]
        log[0] = -1
        self._exp = powers + powers
        self._log = log
        # 1 + v only changes the lowest digit of v
        self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in powers]
        sq = bytearray(n + 1)
        sq[0] = 1
        for v in powers[::2]:
            sq[v] = 1
        return sq

    def add(self, x: int, y: int) -> int:
        if not x or not y:
            return x or y
        log = self._log
        lx = log[x]
        # x + y = g^lx (1 + g^(ly - lx)); a negative index into zech
        # reads it modulo q - 1
        z = self._zech[log[y] - lx]
        return self._exp[lx + z] if z >= 0 else 0

    def sub(self, x: int, y: int) -> int:
        if not y:
            return x
        if not x:
            return self.neg(y)
        log, n = self._log, self.q - 1
        lx = log[x]
        # x - y = g^lx (1 + g^(ly + n/2 - lx)), as -1 = g^(n/2)
        z = self._zech[(log[y] + n // 2 - lx) % n]
        return self._exp[lx + z] if z >= 0 else 0

    def neg(self, x: int) -> int:  # -1 = g^((q - 1) / 2)
        return self._exp[self._log[x] + (self.q - 1) // 2] if x else 0

    def mul(self, x: int, y: int) -> int:
        return self._exp[self._log[x] + self._log[y]] if x and y else 0

    def _pow(self, x: int, n: int) -> int:
        if not x:
            return 0 if n else 1
        return self._exp[self._log[x] * n % (self.q - 1)]

    def _square_map(self, a: int, b: int):
        # two adds of the held -a and -b; t^2 is one lookup, as exp is
        # stored twice over
        add, exp, log = self.add, self._exp, self._log
        minus_a, minus_b = self.neg(a), self.neg(b)

        def square_map(u: int) -> int:
            t = add(u, minus_a)
            return add(exp[2 * log[t]], minus_b) if t else minus_b

        return square_map


def _find_modulus(prime_field: Field, e: int) -> tuple[int, ...]:
    # smallest monic irreducible of degree e, candidates ordered by the
    # coefficient tuple (constant term first); those with constant term
    # 0 come first in that order and are skipped, since x divides them
    p = prime_field.p
    for tail in itertools.product(range(1, p), *[range(p)] * (e - 1)):
        cand = list(tail) + [1]
        if rabin_irreducible(prime_field, cand):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found; unreachable for prime p")


def make_field(p: int, e: int = 1, modulus=None) -> Field:
    """Build the field F_{p^e} for an odd prime p.

    When e > 1 and no modulus is supplied, the lexicographically smallest
    monic irreducible polynomial of degree e over F_p is chosen (ordered
    by coefficient tuple from the constant term up), so repeated runs and
    independent processes agree on the element encoding.  A supplied
    modulus must be monic of degree e and is verified irreducible.
    """
    if p == 2:
        raise ValueError("even characteristic unsupported")
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"p must be below {_MR_EXACT_BELOW}, where the primality test is exact")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")

    if e == 1:
        if modulus is not None:
            mod = tuple(int(c) for c in modulus)
            if len(mod) != 2 or mod[-1] != 1:
                raise ValueError("modulus for a prime field must be monic of degree 1")
        # every monic linear modulus gives the same residue arithmetic
        return Field(p, 1, (0, 1))

    prime_field = Field(p, 1, (0, 1))
    if modulus is None:
        mod = _find_modulus(prime_field, e)
    else:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {e} (length {e + 1}, leading 1)")
        if any(not 0 <= c < p for c in mod):
            raise ValueError(f"modulus coefficients must lie in [0, {p})")
        if not rabin_irreducible(prime_field, list(mod)):
            raise ValueError("supplied modulus is reducible over F_p")
    return (_TableField if p**e <= _TABLE_LIMIT else _DigitField)(p, e, mod, prime_field)
