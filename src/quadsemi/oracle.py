"""Ground truth for the fast irreducibility chain: expand each word into
its dense composition and test it with deterministic Frobenius-based
irreducibility, then compare verdicts word by word.

The chain test in the criterion module never expands a composition; this
module does, so agreement between the two is a real cross-validation
rather than a tautology.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .criterion import word_irreducible
from .polys import rabin_irreducible
from .quadratic import GeneratorSet, compose_word

__all__ = ["CrosscheckReport", "crosscheck"]


class CrosscheckReport(NamedTuple):
    """Word-by-word comparison of the chain test against the dense test.

    words counts every word of length 1..depth over the generator set;
    mismatches lists the words (outermost-first) where the two tests
    disagreed — expected empty; the per-length dicts count verdicts by
    word length, keyed by length.
    """

    depth: int
    words: int
    mismatches: tuple[tuple[int, ...], ...]
    irreducible_per_length: dict[int, int]
    reducible_per_length: dict[int, int]

    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "words": self.words,
            "mismatches": [list(w) for w in self.mismatches],
            "irreducible_per_length": {
                str(n): c for n, c in sorted(self.irreducible_per_length.items())
            },
        }


def crosscheck(generators: GeneratorSet, depth: int) -> CrosscheckReport:
    """Compare the chain test with the dense test on every word of
    length 1..depth, in lexicographic outermost-first order.

    Dense degrees grow as 2^length and the word count as |S|^length, so
    the cost climbs steeply with depth: a pair over F_13 takes about
    0.02 s to depth 5 (62 words, degrees up to 32) and about 0.13 s to
    depth 6 on one CPU of a 2-CPU x86-64 VM.  The per-length tallies
    follow the dense verdict.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    field = generators.field
    n = len(generators)
    mismatches: list[tuple[int, ...]] = []
    irr: dict[int, int] = {}
    red: dict[int, int] = {}
    total = 0
    for length in range(1, depth + 1):
        irr[length] = 0
        red[length] = 0
        for w in itertools.product(range(n), repeat=length):
            total += 1
            dense = rabin_irreducible(field, compose_word(generators, w))
            if dense != word_irreducible(generators, w):
                mismatches.append(w)
            if dense:
                irr[length] += 1
            else:
                red[length] += 1
    return CrosscheckReport(
        depth=depth,
        words=total,
        mismatches=tuple(mismatches),
        irreducible_per_length=irr,
        reducible_per_length=red,
    )
