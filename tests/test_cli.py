"""Command-line surface: JSON input validation, exit codes, and
byte-deterministic output for every command.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import types
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

import quadsemi
from quadsemi import criterion
from quadsemi.cli import _LIST, _print_json, load_generator_set, main
from quadsemi.criterion import export_dot, reachable_subgraph
from quadsemi.field import Field, make_field
from quadsemi.quadratic import MonicQuadratic, expand
from quadsemi.search import CENSUS_FILTERS, census_json, census_pairs

PAIR13 = {
    "field": {"p": 13},
    "generators": [{"a": 5, "b": 8}, {"a": 6, "b": 8}],
}
PAIR7_REDUCIBLE = {
    "field": {"p": 7},
    "generators": [{"c1": 0, "c0": -3}, {"c1": 0, "c0": -5}],
}
PAIR7_SHIFTED = {
    "field": {"p": 7},
    "generators": [{"a": 1, "b": 5}, {"a": 4, "b": 5}],
}


def write_input(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check --

def test_check_irreducible_pair(tmp_path, capsys):
    code, out, err = run_cli(capsys, ["check", write_input(tmp_path, PAIR13)])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "verdict": "irreducible",
        "reason": None,
        "witness": None,
        "reach_nodes": [5, 6],
        "d_s": [5],
    }
    assert err == ""


def test_check_reducible_pair_via_stdin(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps(PAIR7_REDUCIBLE))
    )
    code, out, _ = run_cli(capsys, ["check", "-"])
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "reducible"
    assert payload["reason"] == "square_reachable"
    assert payload["witness"] == [0, 1]
    assert payload["d_s"] == [2, 4]


def test_check_output_is_byte_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, PAIR7_REDUCIBLE)
    _, first, _ = run_cli(capsys, ["check", path])
    _, second, _ = run_cli(capsys, ["check", path])
    assert first == second


def test_check_rejects_even_characteristic(tmp_path, capsys):
    doc = {"field": {"p": 2}, "generators": [{"a": 0, "b": 1}]}
    code, out, err = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_check_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["check", str(path)])
    assert code == 2
    assert "error:" in err


def test_check_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, ["check", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # exit 1 would read as a reducible verdict; the stub allocates nothing
    def exhausted(generators):
        raise MemoryError

    monkeypatch.setattr("quadsemi.cli.reachable_subgraph", exhausted)
    code, out, err = run_cli(capsys, ["check", write_input(tmp_path, PAIR13)])
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_check_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, ["check", "/nonexistent/input.json"])
    assert code == 2
    assert "error:" in err


# Each document with the message it is refused with.
INVALID_DOCUMENTS = [
    (
        {"field": {"p": 7}, "generators": [{"a": 0, "b": 3}], "extra": 1},
        "unknown input key(s): extra",
    ),
    (
        {"field": {"p": 7, "bits": 3}, "generators": [{"a": 0, "b": 3}]},
        "unknown field key(s): bits",
    ),
    (
        {"field": {"p": 7}, "generators": [{"a": 0, "c0": 3}]},
        'generator #0 must have keys {"a", "b"} or {"c1", "c0"}, got {a, c0}',
    ),
    (
        {"field": {"p": 7}, "generators": [{"a": 0, "b": 3, "c1": 0}]},
        'generator #0 must have keys {"a", "b"} or {"c1", "c0"}, got {a, b, c1}',
    ),
    ({"field": {"p": 7}, "generators": []}, '"generators" must be a nonempty list'),
    ({"field": {"p": 7}, "generators": "nope"}, '"generators" must be a nonempty list'),
    ({"generators": [{"a": 0, "b": 3}]}, "missing input key(s): field"),
    (
        {"field": {"p": 7}, "generators": [{"a": 0, "b": 3.5}]},
        'generator #0 "b" must be an integer, got 3.5',
    ),
    (
        {"field": {"p": 7}, "generators": [{"a": 0, "b": True}]},
        'generator #0 "b" must be an integer, got True',
    ),
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to
    # the first 12 prime bases
    (
        {"field": {"p": 318665857834031151167461}, "generators": [{"a": 0, "b": 3}]},
        "p = 318665857834031151167461 is not prime",
    ),
    ([{"field": {"p": 7}, "generators": [{"a": 0, "b": 3}]}], "input must be a JSON object"),
    ({"field": 7, "generators": [{"a": 0, "b": 3}]}, '"field" must be an object'),
    (
        {"field": {"p": 3, "e": 2, "modulus": "x^2 + 1"}, "generators": [{"a": 0, "b": 3}]},
        '"modulus" must be a list of coefficients',
    ),
    ({"field": {"p": 7}, "generators": [[0, 3]]}, "generator #0 must be an object"),
]


@pytest.mark.parametrize(
    "doc,message",
    INVALID_DOCUMENTS,
    ids=[f"doc{i}" for i in range(len(INVALID_DOCUMENTS))],
)
def test_check_rejects_invalid_documents(tmp_path, capsys, doc, message):
    code, _, err = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    assert code == 2
    assert err == f"error: {message}\n"


def test_check_reduces_integers_mod_p_for_prime_fields(tmp_path, capsys):
    doc = {"field": {"p": 7}, "generators": [{"a": -6, "b": 10}]}
    code, out, _ = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    payload = json.loads(out)
    # a = 1, b = 3: an irreducible singleton over F_7
    assert payload["d_s"] == [4]
    assert code in (0, 1)


def test_check_extension_field_requires_encoded_range(tmp_path, capsys):
    doc = {"field": {"p": 3, "e": 2}, "generators": [{"a": 0, "b": -1}]}
    code, _, err = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    assert code == 2
    assert "encoded element" in err


def test_check_warns_and_dedups_duplicate_generators(tmp_path, capsys):
    doc = {
        "field": {"p": 13},
        "generators": [
            {"a": 5, "b": 8},
            {"a": 5, "b": 8},
            {"a": 6, "b": 8},
        ],
    }
    code, out, err = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    assert code == 0
    assert "duplicate" in err
    assert json.loads(out)["reach_nodes"] == [5, 6]


def test_check_enforces_generator_cap(tmp_path, capsys):
    doc = {
        "field": {"p": 23},
        "generators": [{"a": a, "b": 5} for a in range(9)],
    }
    path = write_input(tmp_path, doc)
    code, _, err = run_cli(capsys, ["check", path])
    assert code == 2
    assert "--max-generators" in err
    code, _, _ = run_cli(capsys, ["check", path, "--max-generators", "9"])
    assert code in (0, 1)


def test_check_accepts_explicit_modulus(tmp_path, capsys):
    doc = {
        "field": {"p": 3, "e": 2, "modulus": [1, 0, 1]},
        "generators": [{"a": 0, "b": 4}],
    }
    code, out, _ = run_cli(capsys, ["check", write_input(tmp_path, doc)])
    assert code in (0, 1)
    assert json.loads(out)["d_s"] == [8]  # -4 in the t^2 = -1 encoding


# -- witness --

def test_witness_reducible_includes_dense_composition(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["witness", write_input(tmp_path, PAIR7_REDUCIBLE)]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["witness"] == [0, 1]
    assert payload["reason"] == "square_reachable"
    # (x^2 - 5)^2 - 3 over F_7, little-endian
    assert payload["composition"] == [1, 0, 4, 0, 1]


def test_witness_irreducible_set(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["witness", write_input(tmp_path, PAIR13)])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "verdict": "irreducible",
        "reason": None,
        "witness": None,
        "composition": None,
    }


# -- words --

def test_words_report_golden(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["words", write_input(tmp_path, PAIR13), "--depth", "4"]
    )
    assert code == 0
    assert json.loads(out) == {
        "depth": 4,
        "words": 30,
        "mismatches": [],
        "irreducible_per_length": {"1": 2, "2": 4, "3": 8, "4": 16},
    }


def test_words_family_pair_all_irreducible_at_depth_5(tmp_path, capsys):
    # the paper proves every composition of an a/a+1 family pair
    # irreducible, so all 2^L words of each length L are; degrees reach 32
    code, out, _ = run_cli(
        capsys, ["words", write_input(tmp_path, PAIR13), "--depth", "5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == []
    assert payload["irreducible_per_length"] == {
        str(n): 2**n for n in range(1, 6)
    }


def test_words_default_depth_is_3(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["words", write_input(tmp_path, PAIR13)])
    assert code == 0
    assert json.loads(out)["depth"] == 3


def test_words_rejects_bad_depth(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, ["words", write_input(tmp_path, PAIR13), "--depth", "0"]
    )
    assert code == 2
    assert "depth" in err


# -- census --

def test_census_tsv_golden(capsys):
    code, out, _ = run_cli(capsys, ["census", "--p", "3", "--limit", "4"])
    assert code == 0
    assert out == (
        "q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size\n"
        "3\t0\t0\t0\t1\treducible\t1\t3\n"
        "3\t0\t0\t0\t2\treducible\t1\t3\n"
        "3\t0\t0\t1\t0\treducible\t1\t2\n"
        "3\t0\t0\t1\t1\treducible\t1\t3\n"
    )


def test_census_limit_zero_prints_header_or_empty_list(capsys):
    code, out, _ = run_cli(capsys, ["census", "--p", "5", "--limit", "0"])
    assert code == 0
    assert out == "q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size\n"
    code, out, _ = run_cli(
        capsys, ["census", "--p", "5", "--format", "json", "--limit", "0"]
    )
    assert code == 0
    assert out == "[]\n"


def test_census_negative_limit_is_bad_input(capsys):
    code, out, err = run_cli(capsys, ["census", "--p", "5", "--limit", "-2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "limit" in err


def test_census_json_format(capsys):
    code, out, _ = run_cli(
        capsys, ["census", "--p", "5", "--format", "json", "--limit", "2"]
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["q"] == 5
    assert set(rows[0]) == {
        "q", "a1", "b1", "a2", "b2", "verdict", "witness_len", "reach_size",
    }


def test_census_extension_field(capsys):
    code, out, _ = run_cli(
        capsys, ["census", "--p", "3", "--e", "2", "--limit", "5"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("9\t")


def test_census_filter_flag(capsys):
    code, out, _ = run_cli(
        capsys, ["census", "--p", "7", "--filter", "no-linear-term"]
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 21  # C(7, 2) shift-free pairs
    assert all(row.split("\t")[1] == "0" for row in rows)


def test_census_rejects_composite_characteristic(capsys):
    code, _, err = run_cli(capsys, ["census", "--p", "9"])
    assert code == 2
    assert "error:" in err


def test_census_bounds_are_bad_input(capsys):
    code, out, err = run_cli(capsys, ["census", "--p", "41"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--limit" in err
    code, out, err = run_cli(capsys, ["census", "--p", "1031", "--limit", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "q^2" in err
    # refused before the field is built: finding a modulus of degree 13
    # over F_3 alone takes many seconds
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["census", "--p", "3", "--e", "13", "--limit", "1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "q^2" in err


def test_census_rejects_unknown_filter_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "7", "--filter", "everything"])
    assert exc.value.code == 2


# -- verify --

def test_verify_single_generator(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--lemma-7mod8", "7"])
    assert code == 0
    assert out == "true\n"


def test_verify_nonsquare_pairs(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--prop-3mod4", "11"])
    assert code == 0
    assert out == "true\n"


def test_verify_wrong_residue_reports_expected_class(capsys):
    code, _, err = run_cli(capsys, ["verify", "--lemma-7mod8", "13"])
    assert code == 2
    assert "7 (mod 8)" in err
    code, _, err = run_cli(capsys, ["verify", "--prop-3mod4", "13"])
    assert code == 2
    assert "3 (mod 4)" in err


def test_verify_refuses_p_above_the_bound(capsys):
    # 1048583 is the first prime above 2^20, and both 3 (mod 4) and
    # 7 (mod 8): refused before the field or any walk is built
    for mode in ("--lemma-7mod8", "--prop-3mod4"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["verify", mode, "1048583"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "2^20" in err and "Traceback" not in err


def test_verify_requires_exactly_one_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma-7mod8", "7", "--prop-3mod4", "7"])
    assert exc.value.code == 2


# -- dot --

def test_dot_golden_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["dot", write_input(tmp_path, PAIR7_SHIFTED)])
    assert code == 0
    assert out == (
        "digraph reach {\n"
        "  rankdir=LR;\n"
        "  node [shape=circle];\n"
        '  "2" [shape=doublecircle];\n'
        '  "3";\n'
        '  "6";\n'
        '  "2" -> "3" [label="f"];\n'
        '  "2" -> "6" [label="g"];\n'
        '  "3" -> "6" [label="f"];\n'
        '  "3" -> "3" [label="g"];\n'
        '  "6" -> "6" [label="f"];\n'
        '  "6" -> "6" [label="g"];\n'
        "}\n"
    )


def test_dot_deterministic(tmp_path, capsys):
    path = write_input(tmp_path, PAIR7_REDUCIBLE)
    _, first, _ = run_cli(capsys, ["dot", path])
    _, second, _ = run_cli(capsys, ["dot", path])
    assert first == second


def test_dot_is_written_in_batches(tmp_path, monkeypatch):
    # 4,544 nodes and 9,088 edges: more lines than one 2^12-line batch,
    # written piece by piece and never held as one string
    doc = {"field": {"p": 10007}, "generators": [{"a": 5, "b": 8}, {"a": 6, "b": 8}]}
    writes = []
    monkeypatch.setattr("sys.stdout", types.SimpleNamespace(write=writes.append))
    assert main(["dot", write_input(tmp_path, doc)]) == 0
    dot = export_dot(reachable_subgraph(load_generator_set(doc, 8)))
    assert "".join(writes) == dot
    assert len(writes) > 1 and max(map(len, writes)) < len(dot) // 2


# -- byte-identical output on larger closures --

# Closures of hundreds to thousands of nodes: a prime field, the table
# path (q = 25) and the digit-vector path (q = 3^7); the SHA-256 of each
# command's stdout is pinned.
P10007_SINGLE = {"field": {"p": 10007}, "generators": [{"a": 0, "b": 5}]}
Q25_PAIR = {
    "field": {"p": 5, "e": 2},
    "generators": [{"a": 0, "b": 7}, {"a": 3, "b": 11}],
}
Q2187_PAIR = {
    "field": {"p": 3, "e": 7},
    "generators": [{"a": 2086, "b": 1601}, {"a": 1970, "b": 428}],
}


@pytest.mark.parametrize(
    "doc,command,exit_code,sha256",
    [
        pytest.param(
            P10007_SINGLE, "check", 1,
            "bb3bd3760f2b74e8a005a24f513336912fcabff3df6b36dd0da5a8285baa3f60",
            id="p10007-check",
        ),
        pytest.param(
            P10007_SINGLE, "witness", 1,
            "46c005adf39449b421d0f2a78c2ce40262eaad018288a1bb2f4030e06799dc1f",
            id="p10007-witness",
        ),
        pytest.param(
            P10007_SINGLE, "dot", 0,
            "676cb49eac0a89b47d8f3ea448a990119fb4df902122ff4e15018608dd130a22",
            id="p10007-dot",
        ),
        pytest.param(
            Q25_PAIR, "check", 1,
            "3434b5edac4f81450ee39fa4ce2b5258af0797c9d3af6d07afeb5576da7c306f",
            id="q25-check",
        ),
        pytest.param(
            Q25_PAIR, "witness", 1,
            "0266f3af3e42e3d5589ed57ca8973c8609c1e396134dfc29c93ef0d6f28f29eb",
            id="q25-witness",
        ),
        pytest.param(
            Q25_PAIR, "dot", 0,
            "fa7a4b761876e56fe7f8342ddca9da4f431b94bc2c0518f6d7fc77fa684f8f98",
            id="q25-dot",
        ),
        pytest.param(
            Q2187_PAIR, "check", 1,
            "d259de6dad473d8da94acc88bc42e2c8cec5977ae30f25cfa78b4de79aff145e",
            id="q2187-check",
        ),
        pytest.param(
            Q2187_PAIR, "witness", 1,
            "93a85860303a5b5b98fd63452422b8e2faf8a62624a9db385af1d27b9abf8c73",
            id="q2187-witness",
        ),
        pytest.param(
            Q2187_PAIR, "dot", 0,
            "9f24a489ca6513285c20a9af5ce0c6983a8e10881318308c6ae7d6cacf4277dc",
            id="q2187-dot",
        ),
    ],
)
def test_output_digests_on_larger_closures(
    tmp_path, capsys, doc, command, exit_code, sha256
):
    code, out, err = run_cli(capsys, [command, write_input(tmp_path, doc)])
    assert code == exit_code
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_witness_tests_each_b_once(tmp_path, capsys, monkeypatch):
    # the digit kernel's Euler power on b = 8 runs once per command
    doc = {"field": {"p": 1031, "e": 2}, "generators": [{"a": 5, "b": 8}]}
    path = write_input(tmp_path, doc)
    tested = []
    euler = Field.euler_is_square
    monkeypatch.setattr(
        Field, "euler_is_square", lambda f, x: tested.append(x) or euler(f, x)
    )
    code, out, err = run_cli(capsys, ["witness", path])
    assert (code, err) == (1, "")
    assert json.loads(out)["witness"] == [0]
    assert tested == [8]


# -- check's node list, streamed from the walk's store --


def test_check_memory_per_node(tmp_path):
    # the whole command, walk and output, on the a/a+1 family pair over
    # F_100003 (45,663 nodes): 65 B per node at its tracemalloc peak when
    # the encoder printed a tuple of boxed nodes, 27 B streamed from the
    # walk's array
    doc = {"field": {"p": 100003}, "generators": [{"a": 5, "b": 8}, {"a": 6, "b": 8}]}
    path = write_input(tmp_path, doc)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["check", path]) == 1
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / 45663 < 36


def test_dot_memory_per_node(tmp_path):
    # the whole command, walk and DOT text, on the same pair: 69.9 B per
    # node at its tracemalloc peak when sources() built a list of boxed
    # nodes, 30.0 B streamed from the walk's array (CPython 3.11)
    doc = {"field": {"p": 100003}, "generators": [{"a": 5, "b": 8}, {"a": 6, "b": 8}]}
    path = write_input(tmp_path, doc)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["dot", path]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / 45663 < 45


def test_census_memory_per_row():
    # the whole command on the first 200,000 pairs over F_29, rows
    # streamed to stdout: 251 B per row at its tracemalloc peak when
    # the rows and then the whole text were held, 40 B streamed, most of
    # it the walks kept for later runs (CPython 3.11)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main(["census", "--p", "29", "--limit", "200000"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / 200000 < 60


@pytest.mark.parametrize(
    "doc", [P10007_SINGLE, Q2187_PAIR], ids=["prime", "extension"]
)
def test_check_prints_the_same_from_either_store(monkeypatch, doc):
    on_array = run_on_stdin("check", doc)
    monkeypatch.setattr(criterion, "_TABLE_LIMIT", 0)  # every field takes the dict
    assert type(reachable_subgraph(load_generator_set(doc, 8)).nodes) is tuple
    assert run_on_stdin("check", doc) == on_array


@pytest.mark.parametrize("n", [0, 1, 4096, 4097, 8193])
def test_print_check_matches_json_dumps(n):
    # check's node list written from items: on both sides of each
    # 2^12-node batch, from either store
    payload = {"verdict": "reducible", "reason": "x", "witness": [0, 1], "d_s": (2, 4)}
    whole = {**payload, "reach_nodes": list(range(n))}
    expected = json.dumps(whole, indent=2, sort_keys=True)
    for nodes in (array("i", range(n)), tuple(range(n))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _print_json({**payload, "reach_nodes": _LIST}, map(str, nodes))
        assert out.getvalue() == expected + "\n"


# -- the batched JSON output against json.dumps --

# small, above 2^64, and anywhere in between with either sign
INTS = st.one_of(
    st.integers(-3, 300), st.integers(2**64, 2**70), st.integers(-(2**70), 2**70)
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, st.text()),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=12,
)
# int lists longer than one write batch (2^12 encoder chunks), as
# arithmetic progressions
LONG_INT_LISTS = st.builds(
    lambda start, step, n: [start + k * step for k in range(n)],
    INTS,
    st.integers(-(2**66), 2**66),
    st.sampled_from([4096, 4097, 8192, 8199]),
)
TOP_VALUES = st.one_of(
    JSON_VALUES,
    st.lists(INTS, max_size=6),
    st.lists(INTS, min_size=1, max_size=6).map(tuple),
    st.lists(st.booleans(), min_size=1, max_size=4),
    LONG_INT_LISTS,
)
PAYLOADS = st.one_of(
    st.dictionaries(st.text(max_size=6), TOP_VALUES, max_size=5),
    st.dictionaries(st.integers(), TOP_VALUES, max_size=3),
    JSON_VALUES,
    st.lists(TOP_VALUES, max_size=3),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(PAYLOADS)
def test_print_json_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_json(payload)
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# fields whose full census under every filter fits a few thousand rows
CENSUS_TEXT_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(CENSUS_TEXT_FIELDS),
    st.sampled_from(CENSUS_FILTERS),
    st.one_of(st.none(), st.integers(0, 5), st.integers(0, 1300)),
)
@example((3, 1), "all", 0)
def test_census_json_template_matches_json_dumps(field_spec, census_filter, limit):
    # census --format json, a %-template per row written as a list from
    # items, against the encoder, the empty census (limit 0) included
    p, e = field_spec
    rows = census_pairs(make_field(p, e), census_filter, limit)
    expected = json.dumps(census_json(rows), indent=2, sort_keys=True) + "\n"
    argv = ["census", "--p", str(p), "--e", str(e), "--filter", census_filter]
    argv += ["--format", "json"] + ([] if limit is None else ["--limit", str(limit)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == expected


# -- both generator encodings give the same output --

PRIMES_BELOW_200 = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]
ENCODING_FIELDS = [(p, 1) for p in PRIMES_BELOW_200] + [(3, 2), (5, 2)]


@st.composite
def two_encodings(draw):
    """One generator set written as {a, b} and as {c1, c0}; over a prime
    field each coefficient may also be shifted by p or -p.
    """
    p, e = draw(st.sampled_from(ENCODING_FIELDS))
    field = make_field(p, e)
    element = st.integers(0, field.q - 1)
    pairs = draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    shift = st.sampled_from([-p, 0, p]) if e == 1 else st.just(0)
    coeffs = []
    for a, b in pairs:
        c1, c0 = expand(field, MonicQuadratic(a, b))
        coeffs.append({"c1": c1 + draw(shift), "c0": c0 + draw(shift)})
    shifted = [{"a": a, "b": b} for a, b in pairs]
    return (
        {"field": {"p": p, "e": e}, "generators": shifted},
        {"field": {"p": p, "e": e}, "generators": coeffs},
    )


def run_on_stdin(command, doc):
    """(exit code, stdout, stderr) of one in-process call reading doc."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(two_encodings())
# PAIR13, an irreducible set: (x - 5)^2 - 8 = x^2 + 3x + 4 and
# (x - 6)^2 - 8 = x^2 + x + 2, with coefficients shifted by 13
@example(
    (
        PAIR13,
        {
            "field": {"p": 13},
            "generators": [{"c1": 16, "c0": -9}, {"c1": -12, "c0": 2}],
        },
    )
)
def test_both_encodings_print_the_same_output(docs):
    shifted, coeffs = docs
    for command in ("check", "witness", "dot"):
        assert run_on_stdin(command, shifted) == run_on_stdin(command, coeffs)


# -- process-level entry --

def test_module_entry_point(tmp_path):
    # the child finds the package it was imported from, also when pytest
    # reached it through pyproject's pythonpath and not the environment
    path = write_input(tmp_path, PAIR7_REDUCIBLE)
    src = os.path.dirname(os.path.dirname(quadsemi.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quadsemi.cli", "check", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["witness"] == [0, 1]


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as at the end of `| head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["census", "--p", "5"], ["check", "-"], ["dot", "-"]])
def test_closed_stdout_exits_141_in_process(argv):
    err = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(PAIR13))
    try:
        with contextlib.redirect_stdout(ClosedStdout()), contextlib.redirect_stderr(err):
            assert main(argv) == 141
    finally:
        sys.stdin = stdin
    assert err.getvalue() == ""


def test_closed_pipe_exits_141_quietly():
    # census --p 13 prints 14,197 lines, about 400 KB, more than a pipe
    # buffer holds: the command meets the closed pipe mid-stream, and
    # the interpreter's last flush must not report it either
    src = os.path.dirname(os.path.dirname(quadsemi.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadsemi.cli", "census", "--p", "13"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"q\ta1\tb1\ta2\tb2\tverdict\twitness_len\treach_size\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
