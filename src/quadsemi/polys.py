"""Dense univariate polynomial arithmetic over a Field.

A polynomial is a little-endian list of encoded field elements with no
trailing zeros; [] is the zero polynomial and degree([]) is -1.  The
functions here are the ground-truth layer of the package: schoolbook
multiplication, Euclidean division, gcd, modular powers, and the
deterministic Rabin irreducibility test.  ``poly_rem`` is the one
long-division routine: every caller needs only the remainder, and a
non-monic divisor is first scaled to monic, which leaves the remainder
unchanged.  Rabin's test needs x**(q**k) mod f for k up to n = deg f.
The q-th power map is F_q-linear on F_q[x]/(f), so after one
square-and-multiply for x**q the test builds the n x n Frobenius matrix
(Berlekamp's Q-matrix, row i = x**(q*i) mod f), and every later q-th
power is one matrix-vector product.  Its rows past x**q are products
with the matrix of multiplication by x**q mod f, whose rows are shifts
of x**q reduced one division step at a time.  Speed matters for the
exhaustive sweeps, so multiplication, reduction and the matrix product
carry a fast path for prime fields (plain integer residues): there a
matrix row is packed into one integer, a slot per coefficient, and a
matrix-vector product is one sum of integer products.  The generic
path works for any Field through its arithmetic, which is table-driven
up to q = 2^20.
"""

from __future__ import annotations

from operator import lshift, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .field import Field


def normalize(coeffs) -> list[int]:
    """Strip trailing zeros, returning a canonical coefficient list."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(f) -> int:
    return len(f) - 1


def poly_add(field: Field, a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = field.add(out[i], c)
    return normalize(out)


def poly_sub(field: Field, a, b) -> list[int]:
    return poly_add(field, a, [field.neg(c) for c in b])


def poly_mul(field: Field, a, b) -> list[int]:
    if not a or not b:
        return []
    if field.e == 1:
        p = field.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return [c % p for c in out]
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _monic(field: Field, f) -> list[int]:
    """f divided by its leading coefficient; zero stays zero."""
    if not f or f[-1] == 1:
        return f
    lead_inv, mul = field.inv(f[-1]), field.mul
    return [mul(lead_inv, c) for c in f]


def poly_rem(field: Field, a, b) -> list[int]:
    """Remainder of a by a nonzero polynomial b."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    db = len(b) - 1
    if len(a) - 1 < db:
        return normalize(a)
    if b[-1] != 1:
        b = _monic(field, b)
    r = list(a)
    if field.e == 1:
        # the tight inner loop of the whole package
        p = field.p
        for k in range(len(r) - db - 1, -1, -1):
            c = r[k + db] % p
            if c:
                for j in range(db):
                    r[k + j] = (r[k + j] - c * b[j]) % p
        return normalize(r[:db])
    sub, mul = field.sub, field.mul
    for k in range(len(r) - db - 1, -1, -1):
        c = r[k + db]
        if c:
            for j in range(db):
                r[k + j] = sub(r[k + j], mul(c, b[j]))
    return normalize(r[:db])


def poly_gcd(field: Field, a, b) -> list[int]:
    """Monic greatest common divisor."""
    a = normalize(a)
    b = normalize(b)
    while b:
        a, b = b, poly_rem(field, a, b)
    return _monic(field, a)


def poly_pow_mod(field: Field, base, n: int, modulus) -> list[int]:
    """base**n reduced modulo a nonzero polynomial, n >= 0."""
    if n < 0:
        raise ValueError("negative exponent")
    result = poly_rem(field, [1], modulus)
    acc = poly_rem(field, base, modulus)
    while n:
        if n & 1:
            result = poly_rem(field, poly_mul(field, result, acc), modulus)
        n >>= 1
        if n:
            acc = poly_rem(field, poly_mul(field, acc, acc), modulus)
    return result


def _matrix_step(field: Field, rows):
    """The linear map u -> sum of u[i] * rows[i] on polynomials of degree
    < n, for n = len(rows) reduced rows of degree < n.

    Over a prime field each row is packed into one integer with a slot of
    w bits per coefficient (Kronecker substitution), w wide enough that a
    sum of n products of residues, each at most (p - 1)**2, never carries
    into the next slot.  A product is then one C-level sum of n integer
    products, and each coefficient is one shift, mask and reduction.
    """
    n = len(rows)
    if field.e == 1:
        p = field.p
        w = (n * (p - 1) ** 2).bit_length()
        mask = (1 << w) - 1
        shifts = range(0, n * w, w)
        packed = [sum(map(lshift, row, shifts)) for row in rows]

        def step(u):
            # map() stops at the end of u, whose missing terms are zero
            acc = sum(map(mul, u, packed))
            return normalize([(acc >> s & mask) % p for s in shifts])

        return step
    add, fmul = field.add, field.mul

    def step(u):
        out = [0] * n
        for a, row in zip(u, rows):
            if a:
                for j, c in enumerate(row):
                    if c:
                        out[j] = add(out[j], fmul(a, c))
        return normalize(out)

    return step


def _frobenius_map(field: Field, xq, f):
    """The step u -> u**q mod f on reduced polynomials u, as a product
    with the Frobenius matrix (rows x**(q*i) mod f), given xq = x**q mod f.

    Rows 0 and 1 are 1 and xq.  Each later row is the one before times
    xq mod f: one product with the matrix of multiplication by xq, whose
    row j is x**j * xq mod f, that is row j - 1 shifted up and reduced
    by one division step.
    """
    n = len(f) - 1
    shifted = [xq]
    for _ in range(n - 1):
        shifted.append(poly_rem(field, [0] + shifted[-1], f))
    times_xq = _matrix_step(field, shifted)
    rows = [[1], xq]
    for _ in range(n - 2):
        rows.append(times_xq(rows[-1]))
    return _matrix_step(field, rows[:n])  # a linear f has the one row 1


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def rabin_irreducible(field: Field, f) -> bool:
    """Deterministic irreducibility test for a monic f of degree >= 1.

    f is irreducible over F_q iff x**(q**n) = x (mod f) and, for every
    prime r dividing n = deg f, gcd(x**(q**(n/r)) - x, f) = 1.  Only
    x**q mod f is a square-and-multiply power; the later q-th powers
    are steps of the Frobenius matrix (Berlekamp's Q-matrix), whose rows
    x**(q*i) mod f cost n - 2 products with the matrix of multiplication
    by x**q mod f once.  A failed gcd aborts early, and one at the first
    power aborts before either matrix is built.
    """
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("rabin_irreducible requires a monic polynomial of degree >= 1")
    n = len(f) - 1
    gcd_points = {n // r for r in _prime_factors(n)}
    x = [0, 1]

    def gcd_fails(cur) -> bool:
        return degree(poly_gcd(field, poly_sub(field, cur, x), f)) != 0

    cur = poly_pow_mod(field, poly_rem(field, x, f), field.q, f)
    if 1 in gcd_points and gcd_fails(cur):
        return False
    frobenius = _frobenius_map(field, cur, f)
    for k in range(2, n + 1):
        cur = frobenius(cur)
        if k in gcd_points and gcd_fails(cur):
            return False
    return not poly_rem(field, poly_sub(field, cur, x), f)
