"""Seeded inputs for the three workloads.

Every workload is a sequence of passes over one fixed list of items.  A
rung names an input class, and the seed picks the concrete field and
generators inside that class, once per run: every pass repeats the same
items, so a rung's fastest pass is a true repeat of one input.  Rungs
are narrow on purpose, so that a seed changes a rung's cost little:
closure size is about 0.705 q for two or more random generators, so a
narrow q range gives a steady cost.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from math import comb

from reference import RefField, is_prime

UNIFORM, NONSQUARE, FAMILY = "uniform", "nonsquare", "family"

SMALL_PRIMES = [(p, 1) for p in range(11, 98) if is_prime(p)]
# Extension fields with q <= 1024 take the table path, larger ones the
# digit-vector path; the table build costs q^2.
TABLE_SMALL = [(3, 2), (5, 2), (3, 3), (7, 2)]
TABLE_81_169 = [(3, 4), (11, 2), (5, 3), (13, 2)]
TABLE_MID = [(7, 3), (19, 2)]
TABLE_LARGE = [(23, 2)]
DIGIT_E2 = [(37, 2), (41, 2), (43, 2), (47, 2)]
DIGIT_E2_LARGE = [(53, 2), (59, 2)]
DIGIT_E3 = [(13, 3), (7, 4)]

# cli rungs: (class, fields, kind, command, generators).  fields is a list
# of (p, e) or a (lo, hi) prime range.  Each of the five classes of the
# field ladder has four rungs, so no class outweighs another.  The
# costliest classes hold the median: small-prime documents cost little
# more than the start of a process, so the median falls on documents whose
# closure costs more than start-up, and the 90th percentile among the
# largest primes (q ~ 2^17 to 2^18).  Family sets over a prime field
# reach few nodes and cost about a start-up, so they stay in the cheaper
# classes.
CLI_RUNGS = [
    ("small-prime", SMALL_PRIMES, UNIFORM, "check", 2),
    ("small-prime", SMALL_PRIMES, NONSQUARE, "witness", 3),
    ("small-prime", SMALL_PRIMES, FAMILY, "dot", 2),
    ("small-prime", SMALL_PRIMES, UNIFORM, "dot", 3),
    ("table", TABLE_SMALL, NONSQUARE, "witness", 2),
    ("table", TABLE_81_169, UNIFORM, "check", 2),
    ("table", TABLE_MID, FAMILY, "dot", 2),
    ("table", TABLE_LARGE, UNIFORM, "check", 2),
    ("digit", DIGIT_E2, FAMILY, "witness", 2),
    ("digit", DIGIT_E3, NONSQUARE, "dot", 2),
    ("digit", [(3, 7)], UNIFORM, "check", 2),
    ("digit", DIGIT_E2_LARGE, UNIFORM, "check", 3),
    ("mid-prime", (10_000, 11_000), UNIFORM, "dot", 2),
    ("mid-prime", (20_000, 21_000), NONSQUARE, "dot", 2),
    ("mid-prime", (40_000, 42_000), NONSQUARE, "check", 2),
    ("mid-prime", (90_000, 94_000), UNIFORM, "witness", 2),
    ("large-prime", (130_000, 134_000), NONSQUARE, "witness", 2),
    ("large-prime", (130_000, 134_000), UNIFORM, "check", 3),
    ("large-prime", (180_000, 184_000), UNIFORM, "witness", 2),
    ("large-prime", (250_000, 256_000), NONSQUARE, "check", 2),
]

# sweep rungs: (function, candidates).  The census fields are fixed: a
# census over q^2 quadratics grows as q^4, so no neighbouring field has a
# comparable cost.  The verify_prop rungs hold the median, so each has one
# prime; the seed picks the verify_lemma primes, among primes of close cost.
SWEEP_RUNGS = [
    ("prop", [47]),
    ("prop", [71]),
    ("prop", [83]),
    ("lemma", [151, 167]),
    ("lemma", [463, 487, 503]),
    ("census", [(11, 1)]),
    ("census", [(3, 2)]),
]

# oracle rungs: (fields, kind, generators, depth).  Dense degree is
# 2^depth: depth 5 only for a prime pair, depth 3 for the larger extension
# fields.  A family set is irreducible, so Rabin runs in full on every word
# and the item's cost does not depend on the seed; other sets end some
# Rabin tests early, by a share that varies with the set.  Family rungs on
# one field each hold the median (the fifth of nine) and the 90th
# percentile (between the two dearest).
ORACLE_RUNGS = [
    ([(17, 1)], NONSQUARE, 2, 4),
    ([(13, 1)], FAMILY, 2, 4),
    ([(17, 1)], FAMILY, 2, 4),
    ([(13, 1)], FAMILY, 2, 4),
    ([(5, 2)], FAMILY, 2, 3),
    ([(13, 1)], NONSQUARE, 3, 4),
    ([(3, 3)], NONSQUARE, 3, 3),
    ([(3, 2)], FAMILY, 2, 4),
    ([(13, 1)], FAMILY, 2, 5),
]


@functools.cache
def ref_field(p: int, e: int = 1) -> RefField:
    return RefField(p, e)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _pick_field(rng: random.Random, fields, kind: str) -> RefField:
    if isinstance(fields, tuple):
        lo, hi = fields
        n = rng.randrange(lo, hi)
        while not (is_prime(n) and (kind != FAMILY or n % 4 == 1)):
            n = n + 1 if n < hi else lo
        return ref_field(n)
    if kind == FAMILY:
        fields = [(p, e) for p, e in fields if p**e % 4 == 1]
    return ref_field(*rng.choice(fields))


def _generators(rng: random.Random, f: RefField, kind: str, n: int):
    if kind == FAMILY:
        # (x-a)^2 + a and (x-(a+1))^2 + a with a and a+1 non-squares:
        # known irreducible when q = 1 (mod 4).
        while True:
            a = rng.randrange(f.q)
            a1 = f.add(a, 1)
            if not f.is_square(a) and not f.is_square(a1):
                return [(a, f.neg(a)), (a1, f.neg(a))]
    gens: list[tuple[int, int]] = []
    while len(gens) < n:
        g = (rng.randrange(f.q), rng.randrange(f.q))
        if kind == NONSQUARE and f.is_square(g[1]):
            continue
        if g not in gens:
            gens.append(g)
    return gens


@dataclass(frozen=True)
class CliDoc:
    rung: str
    command: str
    kind: str
    p: int
    e: int
    gens: tuple[tuple[int, int], ...]
    doc: dict

    @property
    def field(self) -> RefField:
        return ref_field(self.p, self.e)


def _doc(rng: random.Random, f: RefField, gens) -> dict:
    field = {"p": f.p} if f.e == 1 else {"p": f.p, "e": f.e}
    if rng.random() < 0.5:
        encoded = [{"a": a, "b": b} for a, b in gens]
    else:  # x^2 + c1 x + c0 with c1 = -2a, c0 = a^2 - b
        encoded = [
            {"c1": f.neg(f.add(a, a)), "c0": f.sub(f.mul(a, a), b)} for a, b in gens
        ]
    return {"field": field, "generators": encoded}


def cli_pass(seed: int) -> list[CliDoc]:
    rng = _rng(seed, "cli")
    docs = []
    for rung, fields, kind, command, n in CLI_RUNGS:
        f = _pick_field(rng, fields, kind)
        gens = _generators(rng, f, kind, n)
        docs.append(
            CliDoc(rung, command, kind, f.p, f.e, tuple(gens), _doc(rng, f, gens))
        )
    return docs


@dataclass(frozen=True)
class SweepItem:
    function: str  # "prop", "lemma" or "census"
    p: int
    e: int = 1

    @property
    def sets(self) -> int:
        """Generator sets the call decides."""
        if self.function == "prop":
            return comb((self.p - 1) // 2, 2)
        if self.function == "lemma":
            return self.p
        return comb(self.p ** (2 * self.e), 2)


def sweep_pass(seed: int) -> list[SweepItem]:
    rng = _rng(seed, "sweep")
    items = []
    for function, candidates in SWEEP_RUNGS:
        choice = rng.choice(candidates)
        if function == "census":
            items.append(SweepItem(function, *choice))
        else:
            items.append(SweepItem(function, choice))
    return items


@dataclass(frozen=True)
class OracleItem:
    p: int
    e: int
    gens: tuple[tuple[int, int], ...]
    depth: int

    @property
    def words(self) -> int:
        n = len(self.gens)
        return sum(n**k for k in range(1, self.depth + 1))


def oracle_pass(seed: int) -> list[OracleItem]:
    rng = _rng(seed, "oracle")
    items = []
    for fields, kind, n, depth in ORACLE_RUNGS:
        f = _pick_field(rng, fields, kind)
        items.append(OracleItem(f.p, f.e, tuple(_generators(rng, f, kind, n)), depth))
    return items


def sweep_fields() -> list[tuple[int, int]]:
    """Every field a sweep pass can build, for the set-up measurement."""
    out = []
    for function, candidates in SWEEP_RUNGS:
        out += candidates if function == "census" else [(p, 1) for p in candidates]
    return out


def oracle_fields() -> list[tuple[int, int]]:
    return sorted({pe for fields, _, _, _ in ORACLE_RUNGS for pe in fields})
