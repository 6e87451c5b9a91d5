import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcert import amalgam, cli, tree
from twistcert.amalgam import Certificate
from twistcert.cli import MAX_KMAX, main, parse_matrix
from twistcert.homology import MAX_GENUS
from twistcert.homology import EpsilonTable, canonical_lift, comm_pairs
from twistcert.laurent import LaurentPoly
from twistcert.rep import Matrix2, matrix_Mk, matrix_N, multiply


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval --------------------------------------------------------------------


def test_eval_single_variable(capsys):
    code, out, _ = run(capsys, "eval", "(t-1)*(t^-1-1)")
    assert code == 0
    assert out == "-t^-1 + 2 - t\n"


def test_eval_surface_variables(capsys):
    code, out, _ = run(capsys, "eval", "s2*t2^-1 - 1")
    assert code == 0
    assert out == "-1 + s2*t2^-1\n"


def test_eval_rational_coefficients(capsys):
    code, out, _ = run(capsys, "eval", "1/2*t + 1/2*t", "--domain", "Q")
    assert code == 0
    assert out == "t\n"


def test_eval_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2*t - t"))
    code, out, _ = run(capsys, "eval", "-")
    assert code == 0
    assert out == "t\n"


def test_eval_variable_outside_ring(capsys):
    code, _, err = run(capsys, "eval", "t3 - 1")
    assert code == 2
    assert "raise --genus" in err
    assert run(capsys, "eval", "t3 - 1", "--genus", "3")[0] == 0
    # variables run s2..sg and t2..tg for g up to MAX_GENUS, without
    # leading zeros: no genus has these, so raising it is no hint
    for name, argv in (("s1", ["s1"]), ("s0", ["s0"]),
                       ("t1", ["t1", "--genus", "3"]),
                       ("t01", ["t01", "--genus", "3"]), ("t41", ["t41"]),
                       ("t1", ["t3 + t1"]), ("t41", ["s3*t41"])):
        code, out, err = run(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: variable {name} is in no surface ring: the "
                       "variables are s2..sg and t2..tg, g at most 40, "
                       "with no leading zeros\n")
    assert run(capsys, "eval", "t40", "--genus", "40")[0] == 0


def test_eval_parse_error_names_position(capsys):
    code, _, err = run(capsys, "eval", "t^")
    assert code == 2
    assert "position" in err


def test_eval_bounds_parenthesis_nesting(capsys):
    code, out, err = run(capsys, "eval", "(" * 1000 + "t" + ")" * 1000)
    assert (code, out) == (2, "")
    assert err.startswith("error: parentheses nest deeper than 200")
    assert "position" in err
    assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, "eval", "(" * 100 + "2*t" + ")" * 100)
    assert (code, out) == (0, "2*t\n")


# -- rho ---------------------------------------------------------------------


def test_rho_builtin_curve(capsys):
    code, out, _ = run(capsys, "rho", "canonical-C", "--genus", "2")
    assert code == 0
    assert out.splitlines() == ["[[1, t^-1 - 2 + t], [0, 1]]",
                                "balanced: yes x4"]
    assert run(capsys, "rho", "canonical-C", "--genus", "4")[0] == 0


def test_rho_from_file(capsys, tmp_path):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(canonical_lift(3).to_json()))
    code, out, _ = run(capsys, "rho", str(path))
    assert code == 0
    assert out.splitlines()[0] == "[[1, t^-1 - 2 + t], [0, 1]]"


def test_rho_json_format(capsys):
    code, out, _ = run(capsys, "rho", "canonical-C", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == {"a": "1", "b": "t^-1 - 2 + t",
                              "c": "0", "d": "1"}
    assert data["balanced"] == [True, True, True, True]
    assert data["h_form"]["q1"] == "t^-1 - 2 + t"


def test_rho_refuses_a_genus_the_record_does_not_have(capsys):
    record = '{"genus": 3, "m": {"0,0,1,0": 1, "0,0,0,0": -1}}'
    assert run(capsys, "rho", "--genus", "2", record) == \
        (2, "", "error: lift has genus 3, expected 2\n")
    # the record's genus, given or not, is the genus rho reads
    for argv in (["rho", record], ["rho", "--genus", "3", record]):
        assert run(capsys, *argv) == \
            (0, "[[1, t^-1 - 2 + t], [0, 1]]\nbalanced: yes x4\n", "")


def test_rho_rejects_invalid_lift(capsys, tmp_path):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(
        {"genus": 2, "w": [], "m": {"1,0": 1, "0,0": -1}, "n": {"0,0": 1}}))
    code, _, err = run(capsys, "rho", str(path))
    assert code == 2
    assert err.startswith("error:")


# -- verify --------------------------------------------------------------------


def test_verify_text_report(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "2", "--kmax", "10")
    assert code == 0
    assert "verdict: PASS" in out
    assert "pairwise separations: 45/45 distinct" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--genus", "3", "--kmax", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert len(data["records"]) == 5
    assert len(data["pairwise"]) == 10


def test_verify_rejects_small_kmax(capsys):
    code, _, err = run(capsys, "verify", "--genus", "2", "--kmax", "1")
    assert code == 2
    assert "kmax" in err


def test_verify_rejects_missing_table(capsys):
    code, _, err = run(capsys, "verify", "--eps-table", "/nonexistent.json")
    assert code == 2
    assert "cannot read" in err


def test_verify_rejects_overlong_lift_name(capsys):
    code, out, err = run(capsys, "verify", "--lift", "x" * 300)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read x")
    assert len(err.splitlines()) == 1


def test_verify_lift_accepts_what_rho_accepts(capsys):
    code, plain, _ = run(capsys, "verify", "--kmax", "3")
    assert code == 0
    inline = json.dumps(canonical_lift(2).to_json())
    for spec in ("canonical-C", inline):
        assert run(capsys, "verify", "--kmax", "3", "--lift", spec) \
            == (0, plain, "")


_MALFORMED_LIFTS = (
    '{"genus":2,"m":{"0,0":1.5,"1,0":-1}}',
    '{"genus":2,"m":{"0,0":"1","1,0":-1}}',
    '{"genus":2,"m":{"0,0":true,"1,0":-1}}',
    '{"genus":2.0}',
    '{"genus":2,"w":[["c:1:2"]]}',
    '{"genus":2,"w":{"c:1:2":"1"}}',
    '{"genus":2,"m":[1]}',
    '{"genus":2,"m":{"0,0":1,"00,0":-1}}',
    '{"genus":2,"mm":{}}',
    "[1]",
)
_MALFORMED_TABLES = (
    '[{"x":[1,2],"y":[3,4],"value":1.5}]',
    '[{"x":[1,2],"y":[3,4],"value":true}]',
    '[{"x":["1",2],"y":[3,4],"value":1}]',
    '[{"x":[1,2,3],"y":[3,4],"value":1}]',
    '[{"x":1,"y":[3,4],"value":1}]',
    '[[1,2]]',
    '{"x":[1,2],"y":[3,4],"value":1}',
)


@pytest.mark.parametrize("argv", (
    [["rho", lift] for lift in _MALFORMED_LIFTS]
    + [["verify", "--kmax", "2", "--lift", lift] for lift in _MALFORMED_LIFTS]
    + [["verify", "--genus", "3", "--kmax", "2", "--eps-table", table]
       for table in _MALFORMED_TABLES]))
def test_malformed_json_records_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["verify", "--kmax", "x"], "argument --kmax: invalid int value: 'x'"),
    (["verify", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    ([], "the following arguments are required: subcommand"),
    (["tree"], "the following arguments are required: query"),
    (["rho"], "the following arguments are required: lift"),
    (["tree", "fixes", "[[1, 0], [0, 1]]"],
     "the following arguments are required: vertex"),
    (["verify", "--format", "yaml"], "argument --format: invalid choice"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_argument_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["--help"], ["verify", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twistcert")


_QUERIES = ("distance", "fixes", "translation", "ball")
_PARSER_PROBES = [
    ["--help"], *([name, "--help"] for name in cli._SUBCOMMANDS),
    *(["tree", query, "--help"] for query in _QUERIES),
    [], ["nosuch"], ["--", "eval", "t"], ["tree", "nosuch"], ["normal-form"],
    ["tree", "fixes", "[[1, 0], [0, 1]]"], ["verify", "--format", "yaml"],
    ["verify", "--kmax", "x"], ["verify", "--bogus"], ["eval", "t", "--he"],
]


class _NoSubcommandNamed(dict):
    """A subcommand table whose lookup always misses."""

    def get(self, key, default=None):
        return default


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit {exc.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _PARSER_PROBES,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_subcommand_parser_prints_what_the_full_parser_does(
        capsys, monkeypatch, argv):
    # the parser of the named subcommand alone, against the parser of all
    # five: the same output bytes and exit code
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the width
    narrowed = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_SUBCOMMANDS",
                        _NoSubcommandNamed(cli._SUBCOMMANDS))
    assert _outcome(capsys, argv) == narrowed


@pytest.mark.parametrize("argv, built", [
    (["eval", "t"], ["eval"]),
    (["tree", "translation", "[[1, t], [0, 1]]"], ["tree"]),
    (["normal-form", "[[1, t], [0, 1]]"], ["normal-form"]),
    (["--help"], list(cli._SUBCOMMANDS)),
    (["nosuch"], list(cli._SUBCOMMANDS)),
])
def test_a_call_builds_the_parser_of_the_subcommand_it_names(
        capsys, monkeypatch, argv, built):
    calls = []

    def counted(name, add):
        return lambda sub: calls.append(name) or add(sub)

    monkeypatch.setattr(cli, "_SUBCOMMANDS", {
        name: counted(name, add) for name, add in cli._SUBCOMMANDS.items()})
    _outcome(capsys, argv)
    assert calls == built


_TREE_PROBES = [
    ["tree", "-h"], ["tree"], ["tree", "nosuch"],
    ["tree", "--ball-radius", "3", "translation", "X"],
    *(["tree", query, "-h"] for query in _QUERIES),
]


@pytest.mark.parametrize("argv", _TREE_PROBES, ids=" ".join)
def test_one_query_parser_prints_what_the_full_tree_parser_does(
        capsys, monkeypatch, argv):
    # the parser of the named tree query alone, against the tree parser
    # of all four queries: the same output bytes and exit code
    monkeypatch.setenv("COLUMNS", "80")
    narrowed = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_TREE_QUERIES",
                        _NoSubcommandNamed(cli._TREE_QUERIES))
    assert _outcome(capsys, argv) == narrowed


@pytest.mark.parametrize("argv, built", [
    (["tree", "translation", "[[1, t], [0, 1]]"], ["translation"]),
    (["tree", "ball", "--ball-radius", "1"], ["ball"]),
    (["tree", "-h"], list(_QUERIES)),
    (["tree", "--ball-radius", "3", "translation", "X"], list(_QUERIES)),
    (["tree", "nosuch"], list(_QUERIES)),
    (["nosuch"], list(_QUERIES)),
    (["nosuch", "translation"], list(_QUERIES)),
    (["normal-form", "[[1, t], [0, 1]]"], []),
])
def test_a_tree_call_builds_the_parser_of_the_query_it_names(
        capsys, monkeypatch, argv, built):
    calls = []

    def counted(name, add):
        return lambda queries: calls.append(name) or add(queries)

    monkeypatch.setattr(cli, "_TREE_QUERIES", {
        name: counted(name, add) for name, add in cli._TREE_QUERIES.items()})
    _outcome(capsys, argv)
    assert calls == built


def test_main_reads_sys_argv_without_an_argument(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["twistcert", "eval", "t*t^-1"])
    assert main() == 0
    assert capsys.readouterr() == ("1\n", "")
    monkeypatch.setattr(sys, "argv", ["twistcert", "nosuch"])
    assert main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: argument subcommand: "
                                        "invalid choice: 'nosuch'")


def test_verify_writes_artifact(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "verify", "--kmax", "2",
                     "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["verdict"] is True


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_verify_output_that_cannot_be_written(capsys, tmp_path, where):
    target = tmp_path / "missing" / "c.json" if where == "missing" \
        else tmp_path
    code, out, err = run(capsys, "verify", "--kmax", "2",
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1


def test_verify_seeded_recheck(capsys):
    code, out, _ = run(capsys, "verify", "--kmax", "2", "--seed", "7")
    assert code == 0
    assert "pairing-table recheck: ok" in out


def test_verify_custom_pairing_table(capsys, tmp_path):
    code, plain, _ = run(capsys, "verify", "--genus", "3", "--kmax", "2",
                         "--format", "json")
    assert code == 0
    table = tmp_path / "eps.json"
    table.write_text(json.dumps(
        [{"x": [1, 3], "y": [3, 4], "value": 1}]))
    code, custom, _ = run(capsys, "verify", "--genus", "3", "--kmax", "2",
                          "--format", "json", "--eps-table", str(table))
    assert code == 0
    assert custom == plain


def test_verify_mutated_lift_fails(capsys, tmp_path):
    record = canonical_lift(2).to_json()
    record["m"]["0,1"] = 2
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(record))
    code, out, _ = run(capsys, "verify", "--kmax", "3", "--lift", str(path))
    assert code == 1
    assert "verdict: FAIL" in out
    assert "failing record:" in out


# -- tree -----------------------------------------------------------------------


def test_tree_distance_between_specs(capsys):
    code, out, _ = run(capsys, "tree", "distance",
                       "[[t,0],[0,t^-1]]", "base")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run(capsys, "tree", "distance",
                       "(2; 1/2*t^-1 + t)", "(0; 0)")
    assert out == "4\n"


def test_tree_fixes_reports_both_ways(capsys, monkeypatch):
    # one SL2 check and one action per query
    checks = []
    checked = tree.as_sl2

    def counting(mat):
        checks.append(mat)
        return checked(mat)

    monkeypatch.setattr(tree, "as_sl2", counting)
    n_text = "[[1, t - 2 + t^-1], [0, 1]]"
    code, out, _ = run(capsys, "tree", "fixes", n_text, "(-1; 0)")
    assert code == 0
    assert out == "fixes (-1; 0): yes\n"
    assert len(checks) == 1
    code, out, _ = run(capsys, "tree", "fixes", n_text, "base")
    assert code == 0
    assert out == ("fixes (0; 0): no, moves it to (0; t^-1) "
                   "at distance 2\n")
    assert len(checks) == 2


def test_no_tree_path_forms_a_rational_function(capsys, monkeypatch):
    # RationalFunction is the test reference only: every reduction in
    # the library and the CLI works from valuations and series
    import twistcert
    assert not hasattr(twistcert, "RationalFunction")
    n = matrix_N()
    word = matrix_Mk(3) @ n @ matrix_Mk(-2) @ n
    vertex = tree.parse_vertex("(2; 1/2*t^-1 + t)")
    queries = [
        ("tree", "distance", "[[t,0],[0,t^-1]]", "base"),
        ("tree", "fixes", str(n), "[[t, 1], [0, 1]]"),
        ("tree", "fixes", str(n), "(-1; 0)"),
        ("tree", "ball", "[[t^2, t], [1, 1]]", "--ball-radius", "2"),
        ("tree", "translation", str(word)),
        ("normal-form", str(word)),
        ("normal-form", str(word), "--format", "json"),
    ]

    def library():
        return (tree.canonical_vertex(*word.entries()),
                tree.act(word, vertex),
                [str(letter) for letter in amalgam.amalgam_normal_form(word)])

    expected = (library(), [run(capsys, *argv) for argv in queries])
    assert all(code == 0 for code, _, _ in expected[1])

    def refuse(*args, **kwargs):
        raise AssertionError("a RationalFunction was formed")

    monkeypatch.setattr(tree.RationalFunction, "__init__", refuse)
    assert (library(), [run(capsys, *argv) for argv in queries]) == expected
    assert expected[1][0][1] == "2\n"


def test_tree_translation_exact_and_clipped(capsys):
    code, out, _ = run(capsys, "tree", "translation", "[[t,0],[0,t^-1]]")
    assert code == 0
    assert out.splitlines()[0] == "translation length: 2 (exact)"
    shift = parse_matrix("[[1, t^-3], [0, 1]]")
    diag = parse_matrix("[[t^2, 0], [0, t^-2]]")
    text = str(shift @ diag @ shift.inverse())
    # --ball-radius is accepted and has no effect
    code, out, _ = run(capsys, "tree", "translation", text,
                       "--ball-radius", "1")
    assert code == 0
    assert out.splitlines() == [
        "translation length: 4 (exact)",
        "note: read from the trace, max(0, -2 v(tr g))"]


def test_tree_translation_rejects_non_unimodular(capsys):
    code, out, err = run(capsys, "tree", "translation", "[[t,0],[0,1]]")
    assert (code, out) == (2, "")
    assert "determinant" in err
    assert len(err.splitlines()) == 1


def test_tree_ball_dot_output(capsys):
    code, out, _ = run(capsys, "tree", "ball", "--ball-radius", "1")
    assert code == 0
    assert out.splitlines()[0] == "graph ball {"
    assert out.count("--") == 3


def test_tree_rejects_bad_vertex(capsys):
    code, _, err = run(capsys, "tree", "distance", "(1, 0)", "base")
    assert code == 2
    assert "error:" in err


def test_tree_rejects_non_unimodular_action(capsys):
    code, _, err = run(capsys, "tree", "fixes", "[[t,0],[0,1]]", "base")
    assert code == 2
    assert "determinant" in err


# -- normal form -----------------------------------------------------------------


def test_normal_form_single_letter(capsys):
    code, out, _ = run(capsys, "normal-form", "[[1, t - 2 + t^-1], [0, 1]]")
    assert code == 0
    assert out.splitlines() == ["(B) [[1, t^-1 - 2 + t], [0, 1]]",
                                "letters: 1"]


def test_normal_form_alternating_word(capsys):
    word = matrix_N() @ matrix_Mk(1) @ matrix_N()
    code, out, _ = run(capsys, "normal-form", str(word))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "letters: 3"
    assert [line[1] for line in lines[:3]] == ["B", "A", "B"]


def test_normal_form_literal_longer_than_a_file_name(capsys, monkeypatch):
    n = matrix_N()
    word = matrix_Mk(3) @ n @ matrix_Mk(2) @ n @ matrix_Mk(5) @ n \
        @ matrix_Mk(7) @ n
    literal = str(word)
    assert len(literal.encode()) > 255
    code, out, err = run(capsys, "normal-form", literal)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "letters: 8"
    monkeypatch.setattr("sys.stdin", io.StringIO(literal))
    assert run(capsys, "normal-form", "-") == (0, out, "")


def test_normal_form_json(capsys):
    code, out, _ = run(capsys, "normal-form", "[[1, 0], [3, 1]]",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [item["side"] for item in data] == ["A"]
    assert data[0]["matrix"]["c"] == "3"


# reduced words of 6, 4 and 5 letters: factors outside U, sides
# alternating (the last word writes one B factor as a product of two);
# the sha256 of the normal-form text and JSON were recorded while every
# letter was still peeled off by a 2x2 inverse and product
_FROZEN_WORDS = (
    (("[[1, 0], [1 + t, 1]]", "[[1, 2*t^-1 - 1/2], [0, 1]]",
      "[[1, 0], [3/2 - t^2, 1]]", "[[1, -t^-1 + 3], [0, 1]]",
      "[[1, 0], [-2 + 1/2*t, 1]]", "[[1, 3/2*t^-1], [0, 1]]"),
     "fbf83f4fff6c4930c011016a038d9561520ede34d9dad8bfb25b899ea92d8c39",
     "257aa23695c1bd7b95c83a1488781014412dcaea39f673e73d5c8677574a6651"),
    (("[[1, -1/2*t^-1], [0, 1]]", "[[0, -1], [1, 2 - t^2]]",
      "[[0, -t^-1], [t, 0]]", "[[1, 0], [3 - t, 1]]",
      "[[1, 2*t + 1], [0, 1]]"),
     "677efe2acc4be7bbdc350ffb02bc9802bad557518ac17afc7fd5731786772597",
     "743fb168a9e1b3ffe6a2eee95220b6612ee378e052a78d6c0ca1b81e4c9743f1"),
    (("[[2, 1], [1, 1]]", "[[1, 1/3*t^-1 + t], [0, 1]]",
      "[[1, 0], [-1, 1]]", "[[1, 0], [2*t, 1]]", "[[1, -t^-1], [0, 1]]",
      "[[0, 1], [-1, 5/2*t^2]]"),
     "bb8d5b7e7b173d3aa5b76b74bdf4d054f6607a9a6589b880aecf92a8dfa3657a",
     "152ff543e1b566f954ec4c06380d732affa5a982298f40ceb9ba5b08f4bc52b4"),
)


@pytest.mark.parametrize("factors, text_digest, json_digest", _FROZEN_WORDS)
def test_normal_form_frozen_bytes(capsys, factors, text_digest, json_digest):
    word = multiply([parse_matrix(factor) for factor in factors])
    for fmt, digest in (("text", text_digest), ("json", json_digest)):
        code, out, err = run(capsys, "normal-form", str(word), "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

def test_normal_form_prints_nothing_when_a_letter_cannot_be_printed(
        capsys, monkeypatch):
    # every line is formatted before any is written, so a failure at the
    # second letter leaves standard output empty
    word = str(matrix_N() @ matrix_Mk(1) @ matrix_N())
    printed = []
    real = amalgam.AmalgamLetter.__str__

    def fails_at_the_second(letter):
        printed.append(letter.side)
        if len(printed) == 2:
            raise ValueError("cannot print this letter")
        return real(letter)

    monkeypatch.setattr(amalgam.AmalgamLetter, "__str__", fails_at_the_second)
    code, out, err = run(capsys, "normal-form", word)
    assert (code, out, err) == (2, "", "error: cannot print this letter\n")
    assert printed == ["B", "A"]


def _overflow_word() -> str:
    """The word of the CI step "Normal form that overflows printing": six
    factors, [[1, 0], [c, 1]] in A and [[1, b], [0, 1]] in B alternating,
    c = sum r_e t^e and b = sum r_e t^-e for e = 1..20, each r_e drawn
    from +-1, +-2, +-3 (seed 5), multiplied out."""
    rng = random.Random(5)
    ring = tree.series_ring()
    one, zero = ring.one(), ring.zero()

    def draw(sign):
        return LaurentPoly(ring, {(sign * e,): rng.choice((-3, -2, -1, 1, 2, 3))
                                  for e in range(1, 21)})

    factors = []
    for _ in range(3):
        factors += [Matrix2(one, zero, draw(1), one),
                    Matrix2(one, draw(-1), zero, one)]
    return str(multiply(factors))


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_normal_form_refuses_a_letter_too_long_to_print(capsys, monkeypatch,
                                                        fmt):
    # its 107th letter has a coefficient past the 4,300 digits Python
    # prints: the command stops there, before the rest of the word
    monkeypatch.setattr(sys, "stdin", io.StringIO(_overflow_word()))
    code, out, err = run(capsys, "normal-form", "-", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == ("error: normal form letter 107: entry b has a coefficient "
                   "of more than 4300 digits, too long to print\n")


def test_normal_form_rejects_non_unimodular(capsys):
    code, _, err = run(capsys, "normal-form", "[[t, 0], [0, 1]]")
    assert code == 2
    assert "error:" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "twistcert.cli", "eval", "t*t^-1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "1\n"



@pytest.mark.parametrize("argv", (
    ["eval", "t"],
    ["verify", "--kmax", "300", "--format", "json"],
    ["tree", "ball", "base", "--ball-radius", "10"],
))
def test_closed_standard_output_is_exit_2(argv):
    # as in `twistcert ... | head -1`: a reader that has gone makes the
    # write (or, for a short output, the final flush) fail; exit 1 is
    # the code of a failed verification, and exit 120 would mean the
    # flush at interpreter exit failed too
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "twistcert.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write standard output: Broken pipe\n"


def test_closed_pipe_for_both_streams_is_exit_2():
    # as in `twistcert ... 2>&1 | head -1`: the error line cannot be
    # written either, and that is no traceback or exit 1 or 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code = subprocess.run(
            [sys.executable, "-m", "twistcert.cli", "tree", "ball", "base",
             "--ball-radius", "10"], stdout=write_end, stderr=write_end,
        ).returncode
    finally:
        os.close(write_end)
    assert code == 2

@pytest.mark.parametrize("argv, code, expected", (
    (["normal-form", "[[t,0],[0,1]]"], 2, "determinant"),
    (["verify", "--kmax", "3", "--lift", "MUTATED"], 1, "verdict: FAIL"),
    (["verify", "--kmax", "3", "--lift", "MUTATED", "--seed", "7"], 1,
     "verdict: FAIL"),
    (["verify", "--kmax", "3", "--seed", "7"], 0,
     "pairing-table recheck: ok"),
))
def test_checks_survive_python_optimize(tmp_path, argv, code, expected):
    # python -O strips asserts; verdicts and input checks must not be asserts
    record = canonical_lift(2).to_json()
    record["m"]["0,1"] = 2
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(record))
    argv = [str(path) if arg == "MUTATED" else arg for arg in argv]
    result = subprocess.run(
        [sys.executable, "-O", "-m", "twistcert.cli", *argv],
        capture_output=True, text=True)
    assert result.returncode == code
    assert expected in result.stdout + result.stderr
    assert "Traceback" not in result.stderr


# -- work limits ---------------------------------------------------------------


def _stub_build_certificate(monkeypatch):
    """Stand in for build_certificate, recording the sizes it was asked for."""
    asked = []
    real = cli.build_certificate

    def build(kmax, genus, **kwargs):
        asked.append((kmax, genus))
        return real(2, 2)

    monkeypatch.setattr(cli, "build_certificate", build)
    return asked


def test_verify_kmax_limit(capsys, monkeypatch):
    asked = _stub_build_certificate(monkeypatch)
    assert MAX_KMAX == 1000
    code, _, _ = run(capsys, "verify", "--kmax", str(MAX_KMAX))
    assert code == 0 and asked == [(MAX_KMAX, 2)]
    code, out, err = run(capsys, "verify", "--kmax", str(MAX_KMAX + 1))
    assert code == 2 and out == "" and asked == [(MAX_KMAX, 2)]
    assert err == "error: kmax must be between 2 and 1000, got 1001\n"


def test_verify_genus_limit(capsys, monkeypatch):
    asked = _stub_build_certificate(monkeypatch)
    assert MAX_GENUS == 40
    code, _, _ = run(capsys, "verify", "--genus", str(MAX_GENUS), "--kmax", "2")
    assert code == 0 and asked == [(2, MAX_GENUS)]
    for argv in (["verify", "--genus", "41", "--kmax", "2"],
                 ["eval", "t", "--genus", "41"],
                 ["rho", "canonical-C", "--genus", "41"],
                 ["rho", '{"genus": 41}']):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "41" in err and "40" in err
        assert len(err.splitlines()) == 1
    assert asked == [(2, MAX_GENUS)]
    code, out, _ = run(capsys, "eval", "s40*t40 - 1", "--genus", "40")
    assert (code, out) == (0, "-1 + s40*t40\n")
    code, out, _ = run(capsys, "rho", "canonical-C", "--genus", "40")
    assert code == 0 and "balanced: yes x4" in out


@pytest.mark.parametrize("expression, message", [
    ("t^1000", None),
    ("t^1001", "exponent 1001 exceeds the limit of 1000"),
    ("(1+t)^32", None),
    ("(1+t)^64", "product of 33 by 33 terms exceeds the limit of 1000"),
    # every polynomial built while parsing obeys the limits, not only
    # the exponent written after ^
    ("(t^-100)^10", None),
    ("(t^100)^20", "exponent 1600 exceeds the limit of 1000"),
    ("t^1000*t", "exponent 1001 exceeds the limit of 1000"),
    ("(2^1000)^14", None),
    ("((2^1000)^1000)^1000", "coefficient has more than 4300 digits"),
    # a literal is measured before it is converted to an int
    pytest.param("7" * 4300, None, id="4300-digit-literal"),
    pytest.param("1 + " + "7" * 5000, "integer literal has more than 4300 "
                 "digits (at position 4)", id="5000-digit-literal"),
])
def test_eval_expression_limits(capsys, expression, message):
    code, out, err = run(capsys, "eval", expression)
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "(1+t)^3000"],
    ["verify", "--kmax", "100000000"],
    ["eval", "(t^100)^20"],
    ["eval", "((2^1000)^1000)^1000"],
    ["eval", "((1/2)^1000)^15", "--domain", "Q"],
    ["normal-form", "[[(t^100)^20, 0], [0, (t^-100)^20]]"],
    ["eval", "7" * 5000],
    # vertex tails past tree.MAX_SERIES_STEPS: a 1,000-term pivot entry
    # at level 2,000, and a level of ten million
    ["tree", "distance", "[[t^1000, t^-1000], [0, %s]]" % " + ".join(
        f"t^{e}" for e in range(-1000, 0)), "base"],
    ["tree", "fixes", "[[1, 1], [0, 1]]", "(10000000; 0)"],
    # lift exponents past laurent.MAX_EXPONENT: 20 terms of m with
    # 4,000-digit exponents, each a square and multiply per bit under Phi
    ["verify", "--genus", "2", "--kmax", "2", "--lift", json.dumps({
        "genus": 2, "m": {f"0,{i}{'7' * 3999}": 1 for i in range(1, 21)}})],
    # a lift coefficient one digit past homology.MAX_LIFT_DIGITS, whose
    # products would print more digits than Python converts to text
    ["verify", "--genus", "2", "--kmax", "2", "--lift", json.dumps({
        "genus": 2, "m": {"0,0": int("9" * 2144)}})],
])
def test_unbounded_requests_fail_fast(argv):
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "twistcert.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert elapsed < 5  # an interpreter start included; the check is instant


def test_tree_ball_radius_limit(capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli, "ball_dot",
                        lambda center, radius: drawn.append(radius) or "")
    assert cli.MAX_BALL_RADIUS == 10
    code, _, err = run(capsys, "tree", "ball", "--ball-radius", "10")
    assert (code, err, drawn) == (0, "", [10])
    code, out, err = run(capsys, "tree", "ball", "--ball-radius", "11")
    assert code == 2 and out == "" and drawn == [10]
    assert err == "error: ball radius must be at most 10, got 11\n"


def test_negative_ball_radius_is_one_line(capsys):
    code, out, err = run(capsys, "tree", "ball", "--ball-radius", "-1")
    assert (code, out, err) == (2, "", "error: radius must be nonnegative\n")


def test_malformed_lift_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"genus": 2,'))
    code, out, err = run(capsys, "verify", "--lift", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad lift JSON: Expecting property name")
    assert len(err.splitlines()) == 1


def test_rho_names_the_unbalanced_entries(capsys):
    # m = 1, n = 0 passes the lift check; b = -1 after Phi is unbalanced
    code, out, err = run(capsys, "rho", '{"genus":2,"m":{"0,0":1}}')
    assert (code, err) == (0, "")
    assert out == ("[[1, -1], [0, 1]]\n"
                   "balanced: a - 1 yes, b no, c yes, 1 - d yes\n")


_DEEP = "[" * 5000 + "]" * 5000
_LONG = "9" * 4301  # one digit more than Python converts to an int
_BAD_JSON_INPUTS = (
    ["verify", "--eps-table", _DEEP],
    ["verify", "--lift", _DEEP],
    ["rho", _DEEP],
    ["normal-form", '{"a": %s, "b": "0", "c": "0", "d": "1"}' % _DEEP],
    ["tree", "translation", '{"a": %s}' % _DEEP],
    ["tree", "distance", '{"a": %s}' % _DEEP, "base"],
    ["normal-form", '{"a": 1, "b": "0", "c": "0", "d": "1"}'],
    ["normal-form", '{"a": "1", "b": "0", "c": "0", "d": "1", "e": [1]}'],
    ["verify", "--lift", '{"genus": 2, "m": {"0,0": %s}}' % _LONG],
    ["verify", "--lift", '{"genus": 2, "m": {"0,%s": 1}}' % _LONG],
    ["verify", "--eps-table", '[{"x": [1, 2], "y": [3, 4], "value": -%s}]'
     % _LONG],
    ["normal-form", '{"a": %s, "b": "0", "c": "0", "d": "1"}' % _LONG],
)


@pytest.mark.parametrize("argv", _BAD_JSON_INPUTS, ids=[
    "eps-table", "lift", "rho", "normal-form", "tree-translation",
    "tree-distance", "integer-entry", "unknown-key", "long-lift-coefficient",
    "long-lift-exponent", "long-eps-table-value", "long-matrix-entry"])
def test_json_inputs_fail_on_one_line(capsys, tmp_path, argv):
    # nested deeper than the decoder can follow, a matrix entry that is
    # not a string, or a key other than a to d: exit 2 with one line, in
    # a file or inline
    text = next(arg for arg in argv if arg.startswith(("[", "{")))
    path = tmp_path / "input.json"
    path.write_text(text)
    as_file = [str(path) if arg is text else arg for arg in argv]
    for variant in (argv, as_file):
        code, out, err = run(capsys, *variant)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (_BAD_JSON_INPUTS[8], "lift JSON has an integer of more than 4300 digits"),
    (_BAD_JSON_INPUTS[9],
     "exponent key in m has a number of more than 4300 digits"),
    (_BAD_JSON_INPUTS[10],
     "pairing table JSON has an integer of more than 4300 digits"),
    (_BAD_JSON_INPUTS[11],
     "matrix JSON has an integer of more than 4300 digits"),
    (["rho", '{"genus": -%s}' % _LONG],
     "lift JSON has an integer of more than 4300 digits"),
    (["eval", ""],
     "expected a value, found the end of the input (at position 0)"),
    # a w-part key is read only in the form Generator.key writes
    (["verify", "--genus", "3", "--kmax", "2", "--lift",
      '{"genus": 3, "w": [["c: 1:2", "s2 - 1"]]}'],
     "bad generator key 'c: 1:2'"),
    (["verify", "--genus", "3", "--kmax", "2", "--lift",
      '{"genus": 3, "w": [["c:+1:2", "s2 - 1"]]}'],
     "bad generator key 'c:+1:2'"),
    # a parse error inside a matrix entry or a w-part names it, and its
    # position counts within that text
    (["normal-form", "[[1, 0], [0, t^]]"],
     "matrix entry d: expected an integer (at position 3)"),
    (["normal-form", '{"a": "1", "b": "t^", "c": "0", "d": "1"}'],
     "matrix entry b: expected an integer (at position 2)"),
    (["tree", "fixes", "[[1, 0], [t +, 1]]", "base"],
     "matrix entry c: expected a value, found the end of the input "
     "(at position 3)"),
    (["tree", "translation", "[[1, 0], [0, t^]]"],
     "matrix entry d: expected an integer (at position 3)"),
    (["verify", "--genus", "3", "--kmax", "2", "--lift",
      '{"genus":3,"w":[["c:1:2","s2 -"]]}'],
     "w-part c:1:2: expected a value, found the end of the input "
     "(at position 4)"),
])
def test_input_errors_name_the_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# each of these was read as the number its digits look like in ASCII:
# \d matches any Unicode decimal digit, and int() reads those digits and
# an underscore between two digits
@pytest.mark.parametrize("argv, message", [
    (["eval", "\u0661\u0662*t + \u0663"],
     "unexpected character '\u0661' (at position 0)"),
    (["rho", '{"genus": 2, "m": {"\u0660,\u0661": 1}}'],
     "bad exponent key '\u0660,\u0661' in m"),
    (["rho", '{"genus": 12, "w": [["c:1:1\u0662", "1"]]}'],
     "bad generator key 'c:1:1\u0662'"),
    (["tree", "distance", "(1_0; 0)", "base"],
     "bad vertex level '1_0' (at position 1)"),
    (["verify", "--kmax", "\u0661\u0660"],
     "argument --kmax: invalid int value: '\u0661\u0660'"),
    (["verify", "--kmax", "1_0"], "argument --kmax: invalid int value: '1_0'"),
    (["verify", "--seed", "\u0667"],
     "argument --seed: invalid int value: '\u0667'"),
    (["eval", "t", "--genus", "\uff13"],
     "argument --genus: invalid int value: '\uff13'"),
    (["tree", "ball", "--ball-radius", "\u0663"],
     "argument --ball-radius: invalid int value: '\u0663'"),
], ids=["eval literal", "exponent key", "generator key", "vertex level",
        "kmax digits", "kmax underscore", "seed", "genus", "ball radius"])
def test_numbers_are_read_in_ascii_digits_only(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_integer_options_read_ascii_as_int_does(capsys):
    # a sign and surrounding spaces are still read
    assert run(capsys, "verify", "--kmax", " +3 ", "--seed", "-7") \
        == run(capsys, "verify", "--kmax", "3", "--seed", "-7")


def test_json_integers_up_to_the_digit_limit_are_read(capsys):
    genus = "9" * 4300
    code, out, err = run(capsys, "rho", '{"genus": %s}' % genus)
    assert (code, out) == (2, "")
    assert err == f"error: the lift's genus {genus} exceeds the limit of 40\n"
    code, out, err = run(capsys, "rho", '{"genus": -%s}' % genus)
    assert (code, out) == (2, "")
    assert err == f"error: genus must be at least 2, got -{genus}\n"


def test_json_inputs_fail_on_one_line_under_optimize(tmp_path):
    for argv in _BAD_JSON_INPUTS:
        result = subprocess.run(
            [sys.executable, "-O", "-m", "twistcert.cli", *argv],
            capture_output=True, text=True)
        assert result.returncode == 2, argv[:2]
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.stderr


def test_lift_family_size_limit(capsys, monkeypatch):
    from twistcert.laurent import MAX_TERMS
    built = []
    real = cli.build_certificate

    def stub(kmax, genus, eps=None, base_lift=None):
        built.append((len(base_lift.m.terms), len(base_lift.n.terms)))
        return real(2, 2)

    monkeypatch.setattr(cli, "build_certificate", stub)
    for name in ("m", "n"):
        record = {"genus": 2, name: {f"{i},0": 1 for i in range(MAX_TERMS)}}
        code, _, err = run(capsys, "verify", "--kmax", "2",
                           "--lift", json.dumps(record))
        assert (code, err) == (0, "")
        record[name][f"{MAX_TERMS},0"] = 1
        code, out, err = run(capsys, "verify", "--kmax", "2",
                             "--lift", json.dumps(record))
        assert (code, out) == (2, "")
        assert err == (f"error: lift family {name} has {MAX_TERMS + 1} "
                       f"terms, more than the limit of {MAX_TERMS}\n")
    assert built == [(MAX_TERMS, 0), (0, MAX_TERMS)]


# the lift of the CI step "Lift with a w-part"
_W_LIFT = ('{"genus":3,"m":{"0,0,1,0":1,"0,0,0,0":-1},"w":[["c:1:2","s2 - 1"],'
           '["c:2:3","t3^-1 + 2*s3"]]}')


def test_a_pass_does_not_check_the_w_part_of_the_self_pairing(capsys):
    # validate_lift checks Q = inv(Q), the a1/b1 part of the lift's
    # self-pairing, only: this lift passes verify --seed 7, yet its full
    # self-pairing under the seed-7 table is nonzero (the README's Claims)
    from twistcert.homology import LiftClass, pairing_polynomial, validate_lift

    code, out, err = run(capsys, "verify", "--genus", "3", "--kmax", "5",
                         "--seed", "7", "--lift", _W_LIFT)
    assert (code, err) == (0, "")
    assert out.endswith("verdict: PASS\npairing-table recheck: ok\n")
    lift = LiftClass.from_json(json.loads(_W_LIFT))
    assert validate_lift(lift) is None

    def self_pairing(eps):
        return pairing_polynomial(lift.as_cycle_class(), lift, eps)

    assert self_pairing(EpsilonTable.seeded(3, 7))
    assert not self_pairing(EpsilonTable(3))
    assert not self_pairing(EpsilonTable.seeded(3, 1))


def test_lift_coefficient_digit_limit(capsys):
    from twistcert.homology import MAX_LIFT_DIGITS
    assert MAX_LIFT_DIGITS == 2143
    big = int("9" * MAX_LIFT_DIGITS)
    # m = big (t2 - 1) and n = m: a valid lift whose rho entries and
    # per-k records are products of two coefficients at the limit
    family = {"0,0": -big, "0,1": big}
    lift = json.dumps({"genus": 2, "m": family, "n": family})
    for argv in (["rho", lift], ["rho", lift, "--format", "json"],
                 ["verify", "--kmax", "3", "--lift", lift, "--format", "json"],
                 ["verify", "--kmax", "100", "--lift", lift]):
        code, out, err = run(capsys, *argv)
        # verify fails on this lift (it is not the built-in curve's), and
        # prints its records and failing record in full
        assert (code, err) == (0 if argv[0] == "rho" else 1, ""), argv[:3]
        assert max(map(len, re.findall(r"\d+", out))) > 2 * MAX_LIFT_DIGITS
    # the smallest and the largest coefficient of one digit more
    for name, c in (("m", 10 ** MAX_LIFT_DIGITS), ("n", -10 * big - 9)):
        record = {"genus": 2, name: {"0,0": c, "0,1": 1}}
        code, out, err = run(capsys, "rho", json.dumps(record))
        assert (code, out) == (2, "")
        assert err == (f"error: coefficient {name}['0,0'] has more than "
                       f"{MAX_LIFT_DIGITS} digits\n")


def test_lift_family_digit_budget(tmp_path):
    from twistcert.homology import MAX_LIFT_FAMILY_DIGITS, LiftClass
    assert MAX_LIFT_FAMILY_DIGITS == 20000
    keys = [f"{a},{b}" for a in range(-20, 20) for b in range(-12, 13)]
    # 1000 terms of 20 digits each in m and n: at the budget, accepted
    at_budget = {key: 10 ** 19 + i for i, key in enumerate(keys)}
    lift = LiftClass.from_json({"genus": 2, "m": at_budget, "n": at_budget})
    assert len(lift.m.terms) == len(lift.n.terms) == 1000
    over = dict(at_budget, **{keys[0]: -10 ** 20})
    with pytest.raises(ValueError, match=f"^lift family n has more than "
                       f"{MAX_LIFT_FAMILY_DIGITS} coefficient digits in all$"):
        LiftClass.from_json({"genus": 2, "m": at_budget, "n": over})
    # 1000 terms of 2,143-digit coefficients in each family, every one
    # within the per-coefficient limit: validate_lift's product of the
    # two would take tens of seconds, and the record is refused at once
    big = "9" * 2143
    family = "{" + ", ".join(f'"{key}": {big}' for key in keys) + "}"
    path = tmp_path / "large-digits-lift.json"
    path.write_text(f'{{"genus": 2, "m": {family}, "n": {family}}}')
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "twistcert.cli", "verify", "--genus", "2",
         "--kmax", "2", "--lift", str(path)],
        capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"error: lift family m has more than "
                           f"{MAX_LIFT_FAMILY_DIGITS} coefficient digits "
                           "in all\n")
    assert elapsed < 5  # an interpreter start included


# -- serialisation -----------------------------------------------------------


def test_text_verify_does_not_serialise(capsys, monkeypatch):
    def json_text(self):
        raise AssertionError("text-mode verify serialised the certificate")

    monkeypatch.setattr(Certificate, "json_text", json_text)
    code, out, _ = run(capsys, "verify", "--genus", "3", "--kmax", "6")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: PASS"
    record = canonical_lift(2).to_json()
    record["m"]["0,1"] = 2
    code, out, _ = run(capsys, "verify", "--kmax", "3",
                       "--lift", json.dumps(record))
    assert code == 1
    assert "verdict: FAIL" in out.splitlines()


@pytest.mark.parametrize("extra, builds", [
    (["--format", "json"], 1),
    (["--output", "OUT"], 1),
    (["--seed", "7"], 0),
    (["--format", "json", "--seed", "7"], 1),
])
def test_verify_serialises_what_it_writes(capsys, monkeypatch, tmp_path,
                                          extra, builds):
    calls = []
    real = Certificate.json_text

    def json_text(self):
        calls.append(self.kmax)
        return real(self)

    monkeypatch.setattr(Certificate, "json_text", json_text)
    out_path = tmp_path / "c.json"
    extra = [str(out_path) if arg == "OUT" else arg for arg in extra]
    code, out, _ = run(capsys, "verify", "--kmax", "4", *extra)
    assert code == 0
    assert calls == [4] * builds
    if "--output" in extra:
        assert json.loads(out_path.read_text())["verdict"] is True
    if "--seed" in extra and "json" not in extra:
        assert out.splitlines()[-1] == "pairing-table recheck: ok"


def test_seed_builds_one_certificate(capsys, monkeypatch):
    builds = []
    real = cli.build_certificate

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_certificate", counted)
    code, out, _ = run(capsys, "verify", "--genus", "3", "--kmax", "5",
                       "--seed", "7")
    assert code == 0 and len(builds) == 1
    assert out.splitlines()[-1] == "pairing-table recheck: ok"


def test_seed_never_draws_the_probe_table(capsys, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("the probe table was drawn")

    monkeypatch.setattr(EpsilonTable, "random_skew", draw)
    code, out, _ = run(capsys, "verify", "--genus", str(MAX_GENUS),
                       "--kmax", "2", "--seed", "3")
    assert code == 0
    assert out.splitlines()[-2:] == ["verdict: PASS",
                                     "pairing-table recheck: ok"]


def test_seed_recheck_catches_a_stage_that_reads_the_table(capsys,
                                                           monkeypatch):
    real = amalgam._handle_pairings
    pairs = comm_pairs(3)

    def reading(lift, eps):
        p0, p1 = real(lift, eps)
        if any(eps.value(x, y) for x in pairs for y in pairs):
            p0 = tuple(p + p for p in p0)
        return p0, p1

    monkeypatch.setattr(amalgam, "_handle_pairings", reading)
    code, out, _ = run(capsys, "verify", "--genus", "3", "--kmax", "4",
                       "--seed", "7")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "verdict: PASS",
        "pairing-table recheck: failed",
        "failing check: certificate depends on the pairing table (seed 7)"]


# -- fuzzing ---------------------------------------------------------------------

# fragments of the inputs' grammars, so that generated text also reaches
# past the first parse error
_FRAGMENTS = st.sampled_from([
    "t", "t^-1", "t^2", "s2", "t2", "1", "0", "-3", "1/2", "2^9", "^", "*",
    "+", "-", "(", ")", "[[", "]]", ", ", "], [", "base", "(0; 0)",
    "(-1; t^-2)", ";", "{", "}", '"a"', ":", "-", " "])
_TEXT = st.one_of(st.text(max_size=12),
                  st.lists(_FRAGMENTS, max_size=10).map("".join))
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 41) | _TEXT
    | st.sampled_from([1.5, "0,1", "1,-1", "0,0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["genus", "w", "m", "n", "a", "b", "c", "d", "x",
                         "y", "value", "0,1", "1,0", "0,0", "e"]),
        inner, max_size=4),
    max_leaves=8)
_JSON = st.one_of(_JSON_VALUE.map(json.dumps), _TEXT)
_MATRIX = st.one_of(
    _TEXT, _JSON,
    st.lists(_TEXT, min_size=4, max_size=4).map(
        lambda e: f"[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]"))
_VERTEX = st.one_of(_TEXT, _MATRIX)
_ARGV = st.one_of(
    st.tuples(_TEXT, st.sampled_from(["Z", "Q"])).map(
        lambda a: ["eval", a[0], "--domain", a[1]]),
    st.tuples(_MATRIX, st.sampled_from(["text", "json"])).map(
        lambda a: ["normal-form", a[0], "--format", a[1]]),
    st.tuples(_VERTEX, _VERTEX).map(lambda a: ["tree", "distance", *a]),
    st.tuples(_MATRIX, _VERTEX).map(lambda a: ["tree", "fixes", *a]),
    _MATRIX.map(lambda m: ["tree", "translation", m]),
    _JSON.map(lambda lift: ["rho", lift]),
    _JSON.map(lambda lift: ["verify", "--kmax", "2", "--lift", lift]),
    _JSON.map(lambda table: ["verify", "--kmax", "2", "--eps-table", table]),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_cli_fuzz_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO()  # an argument "-" reads stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        # only help output exits: a value such as -h or --he asks for it
        assert exc.code == 0 and out.getvalue().startswith("usage:")
        assert not err.getvalue()
        return
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
