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
matrix-vector product is one sum of integer products.  A slot is wide
enough for the largest sum it can hold, n (p - 1)**2 for n reduced
rows, and from seven slots up it is rounded up to whole bytes, so that
packing and unpacking go through an array.  The rows of the matrix of
multiplication by x**q are themselves built packed and left unreduced,
so a product with them takes slots for n**2 (p - 1)**3 + p; the
Frobenius rows are reduced as they are unpacked, so that the n - 1
later steps keep the narrow slots.  The generic path works for any
Field through its arithmetic, which is table-driven up to q = 2^20.
"""

from __future__ import annotations

import sys
from array import array
from operator import lshift, mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .field import Field

# The array code of each unsigned byte width, for byte-aligned slots: the
# little-endian bytes of a packed int match an array's own byte order only
# on a little-endian machine, and elsewhere every slot is shifted.
_SLOT_CODES = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


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
    """base**n reduced modulo a nonzero polynomial, n >= 0.

    Square-and-multiply from the top bit down, so that every multiplication
    is by the reduced base: for base x it is a shift and one division step.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if not n:
        return poly_rem(field, [1], modulus)
    result = base = poly_rem(field, base, modulus)
    for bit in bin(n)[3:]:
        result = poly_rem(field, poly_mul(field, result, result), modulus)
        if bit == "1":
            result = poly_rem(field, poly_mul(field, result, base), modulus)
    return result


def _slots(p: int, n: int, bound: int):
    """Kronecker packing of n coefficients into one integer, in slots wide
    enough for sums of up to bound: the slot width w, pack(row) -> int,
    and unpack(int) -> its n slots mod p.

    From seven slots up, a slot is rounded up to 1, 2, 4 or 8 bytes where
    that suffices, and packing goes through an array and its bytes.  With
    fewer slots, or wider ones, coefficients are shifted in and out one at
    a time: below seven slots that costs less than building the array,
    which matters where a small matrix is stepped many times, as in the
    table kernel's build.
    """
    w = bound.bit_length()
    size = 1 << ((w - 1) >> 3).bit_length()  # bytes of an aligned slot
    code = _SLOT_CODES.get(size) if n >= 7 else None
    if code:
        n_bytes = n * size

        def pack(row):
            return int.from_bytes(array(code, row).tobytes(), "little")

        def unpack(acc):
            return [c % p for c in array(code, acc.to_bytes(n_bytes, "little"))]

        return 8 * size, pack, unpack
    mask = (1 << w) - 1
    shifts = range(0, n * w, w)

    def pack(row):
        return sum(map(lshift, row, shifts))

    def unpack(acc):
        return [(acc >> s & mask) % p for s in shifts]

    return w, pack, unpack


def _matrix_step(field: Field, rows):
    """The linear map u -> sum of u[i] * rows[i] on polynomials of degree
    < n, for n = len(rows) reduced rows of degree < n.

    Over a prime field each row is packed into one integer with a slot
    per coefficient (Kronecker substitution), wide enough that a sum of n
    products of residues, each at most (p - 1)**2, never carries into the
    next slot.  A product is then one C-level sum of n integer products,
    unpacked and reduced by _slots.
    """
    n = len(rows)
    if field.e == 1:
        p = field.p
        _, pack, unpack = _slots(p, n, n * (p - 1) ** 2)
        packed = list(map(pack, rows))

        def step(u):
            # map() stops at the end of u, whose missing terms are zero
            return normalize(unpack(sum(map(mul, u, packed))))

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

    Over F_p that matrix is built packed, one slot per coefficient: row
    j is row j - 1 shifted up one slot, its top slot c dropped and
    (c mod p) times the packed -f mod p added.  The slots stay
    unreduced.  Each row adds at most (p - 1)**2 to a slot, so a slot of
    a row holds at most n (p - 1)**2, and a slot of a product of a
    reduced row with the matrix at most n**2 (p - 1)**3 + p, the bound
    the build's slots are sized for.  Each Frobenius row is reduced mod
    p as it is unpacked: the Frobenius matrix is stepped up to n - 1
    times per test, and reduced rows keep its slots at the narrow
    n (p - 1)**2 of _matrix_step.
    """
    n = len(f) - 1
    if field.e == 1:
        p = field.p
        w, pack, unpack = _slots(p, n, n * n * (p - 1) ** 3 + p)
        top = (n - 1) * w
        low = (1 << top) - 1
        row, neg_f = pack(xq), pack([-c % p for c in f[:n]])
        shifted = [row]
        for _ in range(n - 1):
            row = ((row & low) << w) + (row >> top) % p * neg_f
            shifted.append(row)

        def times_xq(u):
            return unpack(sum(map(mul, u, shifted)))

    else:
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
