"""Build the byte-identity corpus of the command-line interface.

    PYTHONPATH=src python3 tests/make_cli_corpus.py > tests/cli_corpus.json

Every case is one invocation of ``quadsemi.cli.main``: an argument list,
the JSON document it reads from stdin (or none), and the SHA-256 of its
stdout, the SHA-256 of its stderr and its exit code.
``tests/test_cli_corpus.py`` replays each case and compares all three.

Run this script ONLY on a commit whose arithmetic is unchanged since the
committed corpus last passed: the digests pin what that commit prints.
A commit that changes the field arithmetic, the walk or the dense oracle
must pass the committed corpus and must never regenerate it, which would
pin whatever the change prints.

The documents are drawn once from a fixed seed and stored in the JSON
file, so a replay does not depend on this script or on the arithmetic
used to draw them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys

from quadsemi.cli import main as cli_main
from quadsemi.field import make_field

SEED = 20161
WORDS_DEPTH = "3"

PRIMES = [7, 11, 13, 17, 31, 101, 211, 1009, 10007, 49999, 99991]
EXTENSIONS = [(3, 2), (5, 2), (3, 3), (3, 4), (23, 2), (3, 7), (5, 5)]
# F_9 with x^2 + x + 2, whose root is primitive, and F_25 with x^2 + 2,
# whose root has order 8: not primitive.
SUPPLIED = [(3, 2, [2, 1, 1]), (5, 2, [2, 0, 1])]
# Extension fields above the table limit (q > 2^20), which work on digit
# vectors.  Only witness and words run over them: check and dot on their
# sets would walk about a million nodes.
DIGIT_FIELDS = [(1031, 2), (3, 13)]
DIGIT_COMMANDS = [["witness"], ["words", "--depth", "2"]]
# Single generators over the primes on either side of the table limit:
# (p, documents, commands).  check and dot run over them because the
# closure of one map is one orbit, a few thousand nodes at most.
LIMIT_PRIMES = [
    (1048583, 2, [["check"], ["dot"]]),  # 2^20 + 7, above the limit
    (1048573, 1, [["check"]]),  # 2^20 - 3, below it
]
CENSUS = [
    ["census", "--p", "7"],
    ["census", "--p", "7", "--format", "json", "--filter", "no-linear-term"],
    ["census", "--p", "3", "--e", "2"],
    ["census", "--p", "3", "--e", "2", "--filter", "irreducible-generators-only"],
    ["census", "--p", "3", "--e", "2", "--format", "json", "--limit", "25"],
    ["census", "--p", "11"],
    ["census", "--p", "11", "--format", "json"],
    ["census", "--p", "5", "--e", "2", "--limit", "500"],
    ["census", "--p", "3", "--e", "3", "--filter", "no-linear-term"],
    ["census", "--p", "5", "--e", "2"],
    ["census", "--p", "13", "--filter", "irreducible-generators-only"],
    ["census", "--p", "1021", "--limit", "40"],
]
VERIFY = [
    ["verify", "--lemma-7mod8", "7"],
    ["verify", "--lemma-7mod8", "23"],
    ["verify", "--lemma-7mod8", "31"],
    ["verify", "--prop-3mod4", "7"],
    ["verify", "--prop-3mod4", "11"],
    ["verify", "--prop-3mod4", "19"],
    ["verify", "--prop-3mod4", "23"],
    ["verify", "--prop-3mod4", "503"],
    ["verify", "--lemma-7mod8", "503"],
    ["verify", "--prop-3mod4", "1019"],
    ["verify", "--prop-3mod4", "10007"],
    ["verify", "--lemma-7mod8", "1031"],
]
DOCUMENT_COMMANDS = [["check"], ["witness"], ["words", "--depth", WORDS_DEPTH], ["dot"]]


def _nonsquare_set(rng, field):
    """One to three generators (x - a)^2 - b, each with b a non-square."""
    q = field.q
    n = rng.randint(1, 3)
    nonsquare = []
    while len(nonsquare) < n:
        a, b = rng.randrange(q), rng.randrange(q)
        if not field.is_square(b):
            nonsquare.append((a, b))
    return nonsquare


def _generator_sets(rng, field):
    """A uniform set, a non-square-b set and, when q = 1 (mod 4), the
    a/a+1 family pair (x - a)^2 + a, (x - a - 1)^2 + a.
    """
    q = field.q
    sets = []
    n = rng.randint(1, 3)
    sets.append([(rng.randrange(q), rng.randrange(q)) for _ in range(n)])
    sets.append(_nonsquare_set(rng, field))
    if q % 4 == 1:
        while True:
            a = rng.randrange(q)
            a1 = field.add(a, 1)
            if not field.is_square(a) and not field.is_square(a1):
                sets.append([(a, field.neg(a)), (a1, field.neg(a))])
                break
    return sets


def _encode(rng, field, gens):
    """Shifted form {a, b} or coefficient form {c1, c0}, one draw per set;
    prime-field coefficients are sometimes given unreduced.
    """
    if rng.random() < 0.5:
        return [{"a": a, "b": b} for a, b in gens]
    out = []
    for a, b in gens:
        c1 = field.neg(field.add(a, a))
        c0 = field.sub(field.mul(a, a), b)
        if field.e == 1 and rng.random() < 0.5:
            c1 -= field.p
            c0 += field.p
        out.append({"c1": c1, "c0": c0})
    return out


def documents():
    """The corpus documents, in a fixed order."""
    rng = random.Random(SEED)
    docs = []
    fields = [({"p": p}, make_field(p)) for p in PRIMES]
    fields += [({"p": p, "e": e}, make_field(p, e)) for p, e in EXTENSIONS]
    fields += [
        ({"p": p, "e": e, "modulus": mod}, make_field(p, e, mod))
        for p, e, mod in SUPPLIED
    ]
    for spec, field in fields:
        for gens in _generator_sets(rng, field):
            docs.append({"field": spec, "generators": _encode(rng, field, gens)})
    # stderr and exit code 2: a dropped duplicate, an out-of-range element,
    # a reducible modulus
    docs.append({"field": {"p": 13}, "generators": [{"a": 1, "b": 5}, {"a": 1, "b": 5}]})
    docs.append({"field": {"p": 3, "e": 2}, "generators": [{"a": 9, "b": 1}]})
    docs.append({"field": {"p": 3, "e": 2, "modulus": [1, 2, 1]}, "generators": [{"a": 0, "b": 1}]})
    return docs


def digit_documents():
    """Two non-square-b documents over each of DIGIT_FIELDS, drawn from
    their own stream so that the documents above stay as they were.
    """
    rng = random.Random(SEED)
    docs = []
    for p, e in DIGIT_FIELDS:
        field = make_field(p, e)
        for _ in range(2):
            gens = _nonsquare_set(rng, field)
            docs.append({"field": {"p": p, "e": e}, "generators": _encode(rng, field, gens)})
    return docs


def limit_documents():
    """(document, commands) pairs: one non-square generator per document
    over each of LIMIT_PRIMES, drawn from their own stream.
    """
    rng = random.Random(SEED)
    out = []
    for p, count, commands in LIMIT_PRIMES:
        field = make_field(p)
        for _ in range(count):
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if not field.is_square(b):
                    break
            doc = {"field": {"p": p}, "generators": _encode(rng, field, [(a, b)])}
            out.append((doc, commands))
    return out


def cases():
    """(argv, document or None) for every invocation of the corpus."""
    out = []
    pairs = [(doc, DOCUMENT_COMMANDS) for doc in documents()]
    pairs += [(doc, DIGIT_COMMANDS) for doc in digit_documents()]
    pairs += limit_documents()
    for doc, commands in pairs:
        for command in commands:
            out.append((command[:1] + ["-"] + command[1:], doc))
    out += [(argv, None) for argv in CENSUS + VERIFY]
    return out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, doc):
    """(stdout SHA-256, stderr SHA-256, exit code) of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(doc) if doc is not None else "")
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        sys.stdin = saved
    return _sha256(stdout.getvalue()), _sha256(stderr.getvalue()), code


def main():
    records = []
    for argv, doc in cases():
        out, err, code = run_case(argv, doc)
        records.append(
            {"argv": argv, "doc": doc, "stdout_sha256": out, "stderr_sha256": err, "exit": code}
        )
    json.dump({"seed": SEED, "cases": records}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
