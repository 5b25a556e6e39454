"""Byte-identical CLI output on the committed corpus.

tests/cli_corpus.json was written by tests/make_cli_corpus.py on a commit
whose arithmetic is known good.  Each case is replayed in process and
must print the same stdout and stderr (by SHA-256) and exit the same way.
"""

import json
from pathlib import Path

from make_cli_corpus import run_case

CORPUS = json.loads((Path(__file__).with_name("cli_corpus.json")).read_text())


def test_corpus_covers_every_command():
    commands = {case["argv"][0] for case in CORPUS["cases"]}
    assert commands == {"check", "witness", "words", "dot", "census", "verify"}
    assert len(CORPUS["cases"]) >= 200


def test_cli_output_matches_corpus():
    mismatches = []
    for case in CORPUS["cases"]:
        expected = (case["stdout_sha256"], case["stderr_sha256"], case["exit"])
        got = run_case(case["argv"], case["doc"])
        if got != expected:
            mismatches.append((case["argv"], case["doc"], got))
    assert mismatches == []
