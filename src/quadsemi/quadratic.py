"""Monic degree-2 polynomials in canonical shifted form, and words over a
generator set.

Over a field of odd characteristic every monic quadratic has a unique
writing f = (x - a)^2 - b; the pair (a, b) is the canonical form used
throughout the package because the decision procedure reads a and b
directly.  A word is a nonempty tuple of generator indices with index 0
the OUTERMOST factor: the word (i1, ..., im) denotes the composition
f_i1(f_i2(... f_im(x) ...)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .polys import poly_mul

if TYPE_CHECKING:
    from .field import Field

_GEN_LETTERS = "fgh"


class MonicQuadratic(NamedTuple):
    """The polynomial (x - a)^2 - b with a, b encoded field elements."""

    a: int
    b: int


def from_coeffs(field: Field, c1: int, c0: int) -> MonicQuadratic:
    """Canonicalize x^2 + c1*x + c0 into shifted form."""
    a = field.mul(field.neg(c1), field.inv(2 % field.p))
    b = field.sub(field.mul(a, a), c0)
    return MonicQuadratic(a, b)


def expand(field: Field, f: MonicQuadratic) -> tuple[int, int]:
    """Coefficients (c1, c0) of the expanded form x^2 + c1*x + c0."""
    c1 = field.neg(field.add(f.a, f.a))
    c0 = field.sub(field.mul(f.a, f.a), f.b)
    return c1, c0


def evaluate(field: Field, f: MonicQuadratic, x: int) -> int:
    """f(x), by the field kernel's map for f."""
    return field._square_map(f.a, f.b)(x)


class GeneratorSet:
    """A field together with an ordered, duplicate-free list of monic
    quadratics.  Duplicates in the input are dropped silently, keeping
    the first occurrence; distinct generators sharing a b are kept.
    """

    __slots__ = ("field", "gens")

    def __init__(self, field: Field, gens: Iterable[MonicQuadratic]):
        seen = set()
        unique = []
        for g in gens:
            if not isinstance(g, MonicQuadratic):
                g = MonicQuadratic(*g)
            if not (0 <= g.a < field.q and 0 <= g.b < field.q):
                raise ValueError(f"generator {g} out of range for F_{field.q}")
            if g not in seen:
                seen.add(g)
                unique.append(g)
        if not unique:
            raise ValueError("at least one generator is required")
        self.field = field
        self.gens = tuple(unique)

    def __len__(self) -> int:
        return len(self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorSet)
            and self.field == other.field
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.field, self.gens))

    def __repr__(self) -> str:
        return f"GeneratorSet({self.field!r}, {list(self.gens)!r})"

    def name(self, index: int) -> str:
        """Stable display name for a generator: f, g, h, then f3, f4, ..."""
        if index < len(_GEN_LETTERS):
            return _GEN_LETTERS[index]
        return f"f{index}"


def check_word(generators: GeneratorSet, word: Sequence[int]) -> tuple[int, ...]:
    w = tuple(word)
    if not w:
        raise ValueError("word must be nonempty")
    n = len(generators)
    for i in w:
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} out of range (have {n} generators)")
    return w


def compose_word(generators: GeneratorSet, word: Sequence[int]) -> list[int]:
    """Dense little-endian coefficients of the composition named by word.

    Built innermost-out: starting from the expansion of the last letter,
    each preceding letter f = (x - a)^2 - b wraps the current polynomial
    P as (P - a)^2 - b.  The result is monic of degree 2^len(word).
    """
    field = generators.field
    w = check_word(generators, word)
    inner = generators.gens[w[-1]]
    c1, c0 = expand(field, inner)
    poly = [c0, c1, 1]
    for idx in reversed(w[:-1]):
        f = generators.gens[idx]
        poly[0] = field.sub(poly[0], f.a)
        poly = poly_mul(field, poly, poly)
        poly[0] = field.sub(poly[0], f.b)
    return poly
