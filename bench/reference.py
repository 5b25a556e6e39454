"""Reference arithmetic and decision procedure, written without quadsemi.

The benchmark builds its inputs and checks the program's outputs with
this module only, so a wrong answer from the code under test cannot be
confirmed by the same code.  Elements of F_{p^e} use the package's
encoding: the base-p digits of the integer, least significant first, are
the coordinates in the power basis of the defining polynomial, which is
the lexicographically smallest monic irreducible of degree e (compared
by coefficient tuple from the constant term up).
"""

from __future__ import annotations

import itertools


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_rem(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by the monic g over F_p (little-endian lists)."""
    r = list(f)
    dg = len(g) - 1
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k] % p
        if c:
            for j in range(dg + 1):
                r[k - dg + j] = (r[k - dg + j] - c * g[j]) % p
    return [c % p for c in r[:dg]]


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p, by trial division
    with every monic polynomial of degree 1..e//2.
    """
    divisors = [
        list(tail) + [1]
        for d in range(1, e // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    ]
    for tail in itertools.product(range(p), repeat=e):
        cand = list(tail) + [1]
        if all(any(_poly_rem(cand, g, p)) for g in divisors):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {e} over F_{p}")


class RefField:
    """F_{p^e} over plain integers and digit lists."""

    def __init__(self, p: int, e: int = 1):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = smallest_irreducible(p, e) if e > 1 else (0, 1)
        self._squares: set[int] | None = None

    def digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.e):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def encode(self, digits) -> int:
        value = 0
        for d in reversed(list(digits)):
            value = value * self.p + d % self.p
        return value

    def add(self, x: int, y: int) -> int:
        if self.e == 1:
            return (x + y) % self.p
        return self.encode(a + b for a, b in zip(self.digits(x), self.digits(y)))

    def neg(self, x: int) -> int:
        if self.e == 1:
            return -x % self.p
        return self.encode(-d for d in self.digits(x))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        p = self.p
        if self.e == 1:
            return x * y % p
        xd, yd = self.digits(x), self.digits(y)
        prod = [0] * (2 * self.e - 1)
        for i, a in enumerate(xd):
            for j, b in enumerate(yd):
                prod[i + j] += a * b
        return self.encode(_poly_rem(prod, list(self.modulus), p))

    def is_square(self, x: int) -> bool:
        """Euler's criterion over prime fields; the set of all x*x
        otherwise (0 counts as a square).
        """
        if self.e == 1:
            return x == 0 or pow(x, (self.p - 1) // 2, self.p) == 1
        if self._squares is None:
            self._squares = {self.mul(v, v) for v in range(self.q)}
        return x in self._squares

    def apply(self, gen: tuple[int, int], x: int) -> int:
        """(x - a)^2 - b."""
        a, b = gen
        if self.e == 1:
            return ((x - a) * (x - a) - b) % self.p
        t = self.sub(x, a)
        return self.sub(self.mul(t, t), b)


def closure(field: RefField, gens, seeds) -> set[int]:
    """Elements reachable from the seeds by walks of positive length."""
    nodes: set[int] = set()
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for g in gens:
            v = field.apply(g, u)
            if v not in nodes:
                nodes.add(v)
                stack.append(v)
    return nodes


def decide(field: RefField, gens):
    """(seeds, reachable nodes, reason); reason is None when every
    composition is irreducible.
    """
    seeds = sorted({field.neg(b) for _, b in gens})
    nodes = closure(field, gens, seeds)
    if any(field.is_square(b) for _, b in gens):
        reason = "generator_reducible"
    elif any(field.is_square(v) for v in nodes):
        reason = "square_reachable"
    else:
        reason = None
    return seeds, nodes, reason


def first_chain_failure(field: RefField, gens, word) -> int | None:
    """Index of the first square in the irreducibility chain of a word
    (outermost letter first), or None when the word is irreducible.

    The chain is b of the outer letter, then for k >= 1 the value of the
    first k letters applied to -b of letter k+1.  The first k chain values
    of a word are the chain of its k-letter outer prefix.
    """
    if field.is_square(gens[word[0]][1]):
        return 0
    for k in range(1, len(word)):
        x = field.neg(gens[word[k]][1])
        for idx in reversed(word[:k]):
            x = field.apply(gens[idx], x)
        if field.is_square(x):
            return k
    return None


def eval_poly(field: RefField, coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc
