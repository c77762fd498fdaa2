"""The command-line contract: golden JSON payloads, exit codes and CSV shape.

Each golden file under tests/data/cli holds one JSON envelope, minus its
`generated_at` line, as `json.dumps(envelope, indent=2, sort_keys=True)`
writes it.  The CLI's own JSON writer must print exactly these bytes,
and a refactor of the mathematics must reproduce them.  A property test
holds the writer to `json.dumps` of the polynomial records in
`oracles.py` at any nesting depth.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import select
import stat
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import wtaut.cli
import wtaut.schur
import wtaut.tautring
from wtaut.cli import BOOL_WORDS, CONFIG_KEYS, FORMATS, json_text, main
from oracles import U, xvar
from wtaut.exactalg import PSI, MultiPoly, kap, lam, zvar
from wtaut.schur import factorial_schur
from wtaut.semigroups import Partition, partitions_up_to

GOLDEN = Path(__file__).parent / "data" / "cli"

GOLDEN_ARGV = {
    "class_gaps_g5": ["class", "--genus", "5", "--gaps", "1,2,3,5,7"],
    "class_gaps_g5_unshifted": ["class", "--genus", "5", "--gaps", "1,2,3,5,7", "--unshifted"],
    "class_partition_g2_5": ["class", "--genus", "2-5", "--partition", "2,1"],
    "class_gaps_g3_kappa0": ["class", "--genus", "3", "--gaps", "1,2,4", "--kappa0-substitute"],
    # lambda2*lambda10 pins the string order of the exps keys
    "class_partition_g10_p10_2": ["class", "--genus", "10", "--partition", "10,2"],
    "pullback_g1_5_p31": ["pullback", "--genus", "1-5", "--partition", "3,1"],
    "pullback_g4_p221_smooth": ["pullback", "--genus", "4", "--partition", "2,2,1", "--mode", "smooth"],
    "psum_g1_4_power3_smooth": ["psum", "--genus", "1-4", "--power", "3", "--mode", "smooth"],
    "relations_g4_w8": ["relations", "--genus", "4", "--max-weight", "8"],
    "hilbert_g0_4_d8": ["hilbert", "--genus", "0-4", "--max-degree", "8"],
    "hilbert_g3_d10": ["hilbert", "--genus", "3", "--max-degree", "10"],
    "hilbert_g5_6_d12": ["hilbert", "--genus", "5-6", "--max-degree", "12"],
    "pullback_g5_p32_smooth": ["pullback", "--genus", "5", "--partition", "3,2", "--mode", "smooth"],
    "pullback_g6_p321_smooth": ["pullback", "--genus", "6", "--partition", "3,2,1", "--mode", "smooth"],
    "schur_eval_factorial_p31_values": [
        "schur-eval", "--kind", "factorial", "--partition", "3,1", "--values", "1/2,2,5,7"
    ],
    "schur_eval_shifted_p321_values": [
        "schur-eval", "--kind", "shifted", "--partition", "3,2,1", "--values", "1/2,2,5,7,-3,11/3"
    ],
    "schur_eval_factorial_p21_z3": ["schur-eval", "--kind", "factorial", "--partition", "2,1", "--variables", "3"],
    "schur_eval_shifted_p31_z3": ["schur-eval", "--kind", "shifted", "--partition", "3,1", "--variables", "3"],
}

# sha256 of the whole stdout under SOURCE_DATE_EPOCH=0, for payloads too
# large for a golden file (the degree-450 class is 120 MB).  All but the
# pullback's were recorded before monomials were packed into ints, so they
# pin that packing changes no byte: the term order, the text and the exps.
# The pullback's pin was recorded when its x-root view became 201 orbits
# (0.06 MB) in place of 19,872 terms (4.9 MB); the rest of that output is
# byte-identical to what the earlier pin covered.
SHA256_PINS = {
    "pullback_g6_p5432_smooth": (
        ["pullback", "--genus", "6", "--partition", "5,4,3,2", "--mode", "smooth"],
        "c9e55f10d82cc182431985f059d0b4a03758a1f56132b4726996fcbe6cec42ee",
    ),
    # every weight of Q[lambda_1..lambda_7] up to its top, 28
    "pullback_g7_p7654321_smooth": (
        ["pullback", "--genus", "7", "--partition", "7,6,5,4,3,2,1", "--mode", "smooth"],
        "9c0208a38cc6da916fce6211b64dda02c54d67ad2770d966c0ac66249fded877",
    ),
    "pullback_g6_p654321_smooth": (
        ["pullback", "--genus", "6", "--partition", "6,5,4,3,2,1", "--mode", "smooth"],
        "3ee1771fc02b7c0b8058d3ea67ee347a15cc2b3f88411a00db036dda0c74a6ca",
    ),
    "class_g9_hyperelliptic": (
        ["class", "--genus", "9", "--gaps", "1,3,5,7,9,11,13,15,17"],
        "dccfb12ca7a8b03af07ae858dc4a1b7ac7991599765aebd07d1b6ff98397a49b",
    ),
    "class_g2_p450": (
        ["class", "--genus", "2", "--partition", "450"],
        "2583e5dbbb9625e7d7eda6aa821f678bd130b765d23bc077f28cc84ae20ed65f",
    ),
    "schur_eval_shifted_p54321_z6": (
        ["schur-eval", "--partition", "5,4,3,2,1", "--variables", "6"],
        "c1837f8e9e5b842a9ed77ace28218e4279405708b369153da7e73dce03925b54",
    ),
    "schur_eval_factorial_p54321_z6": (
        ["schur-eval", "--kind", "factorial", "--partition", "5,4,3,2,1", "--variables", "6"],
        "933d6f3e31c04944f4c342b5b9bc2990293dd444a6eb174e30599498243f18b4",
    ),
    "schur_eval_shifted_p54321_z6_latex": (  # LaTeX output carries no generated_at line
        ["schur-eval", "--partition", "5,4,3,2,1", "--variables", "6", "--format", "latex"],
        "6db39628cbbc395523ebd4cddac5b39580f361a1c7e6db07b4497a8fffacd990",
    ),
    # kappa and lambda in LaTeX, kappa10 and up out of name order: 1.1 MB
    "class_g2_p120_latex": (
        ["class", "--genus", "2", "--partition", "120", "--format", "latex"],
        "d1aa14f5971774baa102f3b6477b412fa0c1b959cc8803d0d7c6d2e4e8479a07",
    ),
    "relations_g4_w10_csv": (
        ["relations", "--genus", "4", "--max-weight", "10", "--format", "csv"],
        "5f3c6f9b4cd0d24ae3a76bc440dd0ab44683f1e09dfa4fe36fd80c9dc342e8c1",
    ),
    # every partition of all 1,413 semigroups of genus 0 to 12: 1.06 MB
    "semigroups_g0_12": (
        ["semigroups", "--genus", "0-12"],
        "cdfe4820a3de1a2d8713e1103af7cd8c335a29b6793b042b425c6beeacc5a591",
    ),
}

CSV_ARGV = [
    ["semigroups", "--genus", "1-4"],
    ["class", "--genus", "4", "--gaps", "1,2,3,5"],
    ["class", "--genus", "3-4", "--partition", "2,1"],
    ["pullback", "--genus", "2", "--partition", "2,1"],
    ["psum", "--genus", "1-3", "--power", "2"],
    ["relations", "--genus", "3", "--max-weight", "5"],
    ["hilbert", "--genus", "2", "--max-degree", "4"],
    ["schur-eval", "--partition", "2,1", "--variables", "2"],
]


@pytest.fixture(autouse=True)
def _default_genus_cap(monkeypatch):
    monkeypatch.delenv("WTAUT_MAX_GENUS", raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_payload_bytes(capsys, name):
    code, out, _ = _run(capsys, GOLDEN_ARGV[name])
    assert code == 0
    lines = out.splitlines(keepends=True)
    [stamp] = [i for i, line in enumerate(lines) if line.startswith('  "generated_at": ')]
    del lines[stamp]
    assert "".join(lines) == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(SHA256_PINS))
def test_large_payload_sha256(name):
    argv, expected = SHA256_PINS[name]
    src = str(Path(wtaut.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, SOURCE_DATE_EPOCH="0")
    digest = hashlib.sha256()
    cmd = [sys.executable, "-m", "wtaut.cli", *argv]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):  # never the whole payload at once
            digest.update(chunk)
    assert proc.returncode == 0
    assert digest.hexdigest() == expected


# Variables whose string order differs from the canonical one: lambda10
# before lambda2, kappa before lambda, u before x.
_VARIABLES = [lam(1), lam(2), lam(10), PSI, kap(0), kap(3), xvar(1), xvar(11), U, zvar(2)]
_COEFFS = st.fractions(max_denominator=50) | st.integers(-(10**30), 10**30)


@st.composite
def _polys(draw):
    terms = draw(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from(_VARIABLES), st.integers(0, 3)), max_size=4),
        _COEFFS,
    ), max_size=6))
    out = MultiPoly.zero()
    for pairs, coeff in terms:
        out += oracles.monomial(dict(pairs).items(), coeff)
    return out


# Twelve variables, x10 and x11 among them, with z2 in the lowest field
# whenever it is present.
_WIDE_VARIABLES = [lam(1), lam(2), lam(10), PSI, kap(0), kap(3), xvar(1), xvar(2), xvar(10),
                   xvar(11), U, zvar(2)]


@st.composite
def _wide_polys(draw):
    """Up to about 40 terms with exponents up to 300 (fields wider than 8 bits),
    in runs that differ only in their lowest field, z2, and optionally a term
    with zero fields between two set ones and a constant term."""
    top = draw(st.sampled_from([3, 300]))
    exponent = st.integers(0, top)
    out = MultiPoly.zero()
    for pairs in draw(st.lists(st.dictionaries(st.sampled_from(_WIDE_VARIABLES[:-1]), exponent,
                                               max_size=6), min_size=1, max_size=8)):
        for e in draw(st.lists(exponent, min_size=1, max_size=5, unique=True)):
            out += oracles.monomial({**pairs, zvar(2): e}.items(), draw(_COEFFS))
    if draw(st.booleans()):
        out += oracles.monomial([(lam(1), draw(st.integers(1, top))), (xvar(11), 1)], draw(_COEFFS))
    if draw(st.booleans()):
        out += draw(_COEFFS)
    return out


@settings(max_examples=200, deadline=None)
@given(_wide_polys())
def test_json_writer_and_text_match_the_oracle_on_wide_sorted_runs(poly):
    assert json_text(poly) == json.dumps(oracles.poly_payload(poly), indent=2, sort_keys=True)
    assert poly.canonical_str() == oracles.canonical_str(poly)


_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | _polys(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _oracle_tree(obj):
    if isinstance(obj, MultiPoly):
        return oracles.poly_payload(obj)
    if isinstance(obj, dict):
        return {key: _oracle_tree(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_oracle_tree(item) for item in obj]
    return obj


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_writer_matches_json_dumps_of_the_oracle_records(tree):
    assert json_text(tree) == json.dumps(_oracle_tree(tree), indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(_polys(), st.integers(0, 4))
def test_json_writer_matches_json_dumps_at_every_depth(poly, depth):
    tree, expected = poly, oracles.poly_payload(poly)
    for level in range(depth):
        if level % 2:
            tree, expected = [0, tree], [0, expected]
        else:
            tree, expected = {"a": tree, "z": {}}, {"a": expected, "z": {}}
    assert json_text(tree) == json.dumps(expected, indent=2, sort_keys=True)


def test_json_writer_covers_zero_constants_and_kappa0():
    cases = [MultiPoly.zero(), MultiPoly.constant(Fraction(-3, 4)), MultiPoly.one(),
             MultiPoly.variable(kap(0)) - MultiPoly.variable(lam(10)) * MultiPoly.variable(lam(2))]
    for poly in cases:
        assert json_text(poly) == json.dumps(oracles.poly_payload(poly), indent=2, sort_keys=True)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(exclude_categories=())))  # lone surrogates too
@example('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ud800\udfff\U0001f600\U0010ffff')
def test_json_writer_writes_any_string_as_json_dumps_does(text):
    assert json_text(text) == json.dumps(text)
    assert json_text({text: [text]}) == json.dumps({text: [text]}, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [Fraction(1, 2), 0.5, (1, 2), {1, 2}, {1: "int key"}, [b"bytes"]])
def test_json_writer_refuses_unknown_types(obj):
    with pytest.raises(TypeError):
        json_text({"payload": obj})


@pytest.mark.parametrize(
    "argv, code",
    [
        (["class", "--genus", "two", "--gaps", "1,3"], 2),
        (["class", "--genus", "2", "--gaps", "1,2,3"], 3),
        (["class", "--genus", "13", "--partition", "1"], 4),
        (["schur-eval", "--partition", "1", "--variables", "7"], 4),
        (["schur-eval", "--partition", "1", "--values", ",".join(map(str, range(13)))], 4),
        (["schur-eval", "--partition", "1", "--variables", "-2"], 3),
        # inputs stay under Python's 4,300-digit cap on int parsing
        (["schur-eval", "--partition", "1", "--values", "1" * 5000], 3),
        (["schur-eval", "--partition", "1", "--values", "1/0"], 3),
    ],
)
def test_exit_codes(capsys, argv, code):
    got, out, err = _run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith("wtaut: data error: " if code == 3 else "wtaut: ")


# Each subcommand's options in the order its help lists them.  The order, not
# the help text, is pinned: argparse formats help differently across Pythons.
_SHARED_OPTIONS = ["-h", "--genus", "--format", "--output", "--mode"]
_SUBCOMMAND_OPTIONS = {
    "semigroups": _SHARED_OPTIONS,
    "class": [*_SHARED_OPTIONS, "--gaps", "--partition", "--unshifted", "--kappa0-substitute"],
    "pullback": [*_SHARED_OPTIONS, "--partition"],
    "psum": [*_SHARED_OPTIONS, "--power", "--paper-sign"],
    "relations": [*_SHARED_OPTIONS, "--max-weight"],
    "hilbert": [*_SHARED_OPTIONS, "--max-degree"],
    "schur-eval": [
        "-h", "--format", "--output", "--mode", "--kind", "--partition", "--values", "--variables"
    ],
}


def _help_text(capsys, argv: list[str]) -> str:
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--help"])
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_each_subcommand_lists_the_shared_options_then_its_own(capsys):
    # the top-level usage line lists the subcommands
    assert re.search(r"\{([\w,-]+)\}", _help_text(capsys, []))[1].split(",") == list(_SUBCOMMAND_OPTIONS)
    for name, expected in _SUBCOMMAND_OPTIONS.items():
        # each option line starts at a two-space indent with its first flag
        assert re.findall(r"^  (-[-\w]+)", _help_text(capsys, [name]), re.M) == expected, name


@pytest.mark.parametrize("genus", ["13", "0-3"])
def test_schur_eval_takes_no_genus_flag(capsys, genus):
    # Schur evaluation has no genus, so none is parsed, capped or ignored
    with pytest.raises(SystemExit) as stop:
        main(["schur-eval", "--genus", genus, "--partition", "1", "--values", "0"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --genus" in capsys.readouterr().err


def test_class_reads_an_empty_selector_as_given(capsys):
    code, out, err = _run(capsys, ["class", "--genus", "2", "--partition", ""])
    assert code == 0, err
    (record,) = json.loads(out)["payload"]
    assert (record["class_pointed"]["text"], record["class_unpointed"]["text"]) == ("1", "0")
    code, out, err = _run(capsys, ["class", "--genus", "2", "--gaps", ""])
    assert (code, out) == (3, "")
    assert err == "wtaut: data error: gap list has genus 0, not the requested 2\n"
    code, out, err = _run(capsys, ["class", "--genus", "2", "--gaps", "1,3", "--partition", "1"])
    assert (code, out) == (3, "")
    assert "choose exactly one selector" in err


def test_class_refuses_a_huge_gap_without_listing_the_integers_below_it(capsys):
    # the closure check walks the small non-gaps against the gap list; a
    # list of every non-gap below 10^12 would not fit in memory
    start = time.perf_counter()
    code, out, err = _run(capsys, ["class", "--genus", "3", "--gaps", "1,2,1000000000000"])
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err == (
        "wtaut: data error: bad --gaps '1,2,1000000000000': "
        "closure violation: 3+999999999997=1000000000000 is a gap\n"
    )


@pytest.mark.parametrize("empty", ["", " "])
def test_schur_eval_reads_empty_values_as_zero_arguments(capsys, empty):
    code, out, err = _run(capsys, ["schur-eval", "--partition", "2,1", "--values", empty])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert (payload["arguments"], payload["value"]["text"]) == ([], "0")
    code, out, err = _run(capsys, ["schur-eval", "--kind", "factorial", "--partition", "2,1", "--values", empty])
    assert (code, out) == (3, "")
    assert err == "wtaut: data error: insufficient variables\n"
    code, out, err = _run(capsys, ["schur-eval", "--partition", "", "--values", empty])
    assert code == 0, err
    payload = json.loads(out)["payload"]
    assert (payload["arguments"], payload["value"]["text"]) == ([], "1")
    code, out, err = _run(capsys, ["schur-eval", "--partition", "2,1", "--values", empty, "--variables", "0"])
    assert (code, out) == (3, "")
    assert "choose exactly one of --values or --variables" in err


@pytest.mark.parametrize(
    "values, value",
    [("0,1", "1"), ("2,3,4", "9")],
)
def test_shifted_schur_eval_at_colliding_staggered_values(capsys, values, value):
    # the stagger v_i + n - i makes these distinct values equal; s*_(1) is z_1 + ... + z_n
    argv = ["schur-eval", "--kind", "shifted", "--partition", "1", "--values", values]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["payload"]["value"]["text"] == value


def test_results_beyond_the_int_digit_cap_are_rendered_in_full(capsys):
    values = [Fraction(i, i + 1) for i in range(1, 13)]
    argv = ["schur-eval", "--kind", "factorial", "--partition", "1000",
            "--values", ",".join(map(str, values))]
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    [term] = json.loads(out)["payload"]["value"]["terms"]
    sys.set_int_max_str_digits(0)
    try:
        coeff = Fraction(term["coeff"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(term["coeff"]) > limit
    assert coeff == factorial_schur(Partition((1000,)), values).constant_term()


def test_power_sums_of_high_degree_build_without_deep_recursion(capsys):
    # p_600 at genus 1 is lambda1^600: one step per degree, each built on the last
    code, out, err = _run(capsys, ["psum", "--genus", "1", "--power", "600"])
    assert code == 0, err
    [record] = json.loads(out)["payload"]
    assert record["value_lambda"]["text"] == "lambda1^600"
    # x1^600 is the single orbit m_(600)
    assert record["value_x"] == {"orbits": [{"coeff": "1", "exps": {}, "nu": [600]}], "text": "m(600)"}


def test_sandwich_violation_is_a_data_error(capsys, monkeypatch):
    monkeypatch.setattr(
        wtaut.tautring,
        "hilbert_quotient_lower",
        lambda g, cutoff: [10**6] * (cutoff + 1),
    )
    code, out, err = _run(capsys, ["hilbert", "--genus", "2", "--max-degree", "4"])
    assert code == 3
    assert out == ""
    assert err.startswith("wtaut: data error: ")
    assert "at degree 0" in err


def test_a_key_error_inside_a_run_is_not_reported_as_bad_input(capsys, monkeypatch):
    def lookup_fails(genus):
        raise KeyError(genus)

    monkeypatch.setattr(wtaut.cli, "enumerate_semigroups", lookup_fails)
    with pytest.raises(KeyError):
        main(["semigroups", "--genus", "2"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", CSV_ARGV, ids=lambda argv: argv[0])
def test_csv_rows_match_header_width(capsys, argv):
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    body = [line for line in out.splitlines(keepends=True) if not line.startswith("# ")]
    header, *rows = list(csv.reader(io.StringIO("".join(body))))
    assert rows
    for row in rows:
        assert len(row) == len(header), (header, row)


@pytest.mark.parametrize("argv", CSV_ARGV, ids=lambda argv: argv[0])
def test_json_runs_build_no_table_rows(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("a JSON run rendered LaTeX")

    monkeypatch.setattr(MultiPoly, "latex", refuse)
    code, _, err = _run(capsys, argv)
    assert code == 0, err


def test_csv_keeps_multipart_partitions_in_one_cell(capsys):
    code, out, _ = _run(capsys, ["pullback", "--genus", "2", "--partition", "2,1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert lines[0] == "# mode=CM\n"
    header, row = list(csv.reader(io.StringIO("".join(lines[1:]))))
    assert header == ["genus", "partition", "class"]
    assert row[:2] == ["2", "(2,1)"]


def test_unwritable_output_is_a_resource_error(capsys):
    code, out, err = _run(capsys, ["semigroups", "--genus", "1", "--output", "/dev/null/x.json"])
    assert code == 4
    assert out == ""
    assert err.startswith("wtaut: resource error: ")
    assert "/dev/null/x.json" in err


def test_failed_output_leaves_no_temporary_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, _, err = _run(capsys, ["semigroups", "--genus", "1", "--output", str(target)])
    assert code == 4
    assert str(target) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any(target.iterdir())


def test_output_file_mode_follows_umask(capsys, tmp_path):
    target = tmp_path / "out.json"
    old = os.umask(0o022)
    try:
        code, _, _ = _run(capsys, ["semigroups", "--genus", "1", "--output", str(target)])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o644


def test_output_replaces_the_target_whole(capsys, tmp_path):
    target = tmp_path / "out.json"
    target.write_text("stale " * 10_000)
    keep = tmp_path / "old.json"
    os.link(target, keep)
    code, out, _ = _run(capsys, ["semigroups", "--genus", "2", "--output", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["payload"][0]["count"] == 2
    # a rename, not a rewrite in place: the old inode keeps its bytes
    assert keep.read_text() == "stale " * 10_000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "out.json"]


def test_output_into_a_fifo_feeds_its_reader(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["semigroups", "--genus", "1"]
    _, expected, _ = _run(capsys, argv)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # opened first, and without blocking, so that a writer that replaces the
    # FIFO leaves this read empty instead of hanging
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = _run(capsys, [*argv, "--output", str(fifo)])
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0, err
    assert out == ""
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert data.decode() == expected


def test_output_into_a_fifo_whose_reader_closes_early_exits_0(capsys, tmp_path, monkeypatch):
    # as `... | head -c 10` on stdout: the writer stops, nothing is reported
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["semigroups", "--genus", "0-9"]
    _, expected, _ = _run(capsys, argv)
    assert len(expected) > 1 << 16  # more than a pipe buffer holds, so the write meets the close
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    env = dict(os.environ, PYTHONPATH=str(Path(wtaut.cli.__file__).parents[1]))
    writer = subprocess.Popen(
        [sys.executable, "-m", "wtaut.cli", *argv, "--output", str(fifo)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    data = b""
    try:
        while len(data) < 10 and select.select([reader], [], [], 60)[0]:
            chunk = os.read(reader, 10 - len(data))
            if not chunk:
                break
            data += chunk
    finally:
        os.close(reader)
        out, err = writer.communicate(timeout=60)
    assert (writer.returncode, out, err) == (0, "", "")
    assert data.decode() == expected[:10]


def _cli_process(argv: list[str], env: dict | None = None) -> subprocess.Popen:
    """`python -m wtaut.cli argv` in a process of its own, stdout and stderr piped."""
    env = dict(env or os.environ, PYTHONPATH=str(Path(wtaut.cli.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "wtaut.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["class", "--genus", "4", "--gaps", "1,2,3,5"], 0),
        (["class", "--genus"], 2),  # refused by argparse, which exits
        (["class", "--genus", "3", "--gaps", "2,3"], 3),
        (["semigroups", "--genus", "13"], 4),
    ],
)
def test_the_process_entry_point_writes_what_main_writes(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    try:
        got = main(argv)
    except SystemExit as stop:
        got = stop.code
    captured = capsys.readouterr()
    out, err = _cli_process(argv).communicate(timeout=60)
    assert got == code
    assert (out, err.decode()) == (captured.out.encode(), captured.err)


def test_stdout_whose_reader_closes_early_exits_0(capsys, monkeypatch):
    # as `... | head -c 10` on stdout, with stdout buffered: a run under
    # PYTHONUNBUFFERED would not meet a failed flush at exit
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    argv = ["semigroups", "--genus", "0-9"]
    assert len(_run(capsys, argv)[1]) > 1 << 16  # more than a pipe buffer holds
    writer = _cli_process(argv)
    head = writer.stdout.read(10)
    writer.stdout.close()
    _, err = writer.communicate(timeout=60)
    assert (writer.returncode, err) == (0, b"")
    assert head == b'{\n  "comma'


def test_output_through_a_symlink_writes_its_target(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["semigroups", "--genus", "1"]
    _, expected, _ = _run(capsys, argv)
    real = tmp_path / "real.json"
    real.write_text("stale\n")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    code, out, err = _run(capsys, [*argv, "--output", str(link)])
    assert code == 0, err
    assert out == ""
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_bad_format_in_config_file_is_rejected_before_work(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(wtaut.cli, "weierstrass_class", refuse)
    config = tmp_path / "run.cfg"
    config.write_text("format=xml\n")
    code, out, err = _run(capsys, ["--config", str(config), "class", "--genus", "2", "--gaps", "1,3"])
    assert code == 3
    assert out == ""
    assert "xml" in err


@pytest.mark.parametrize("key", ["foo", "max_degre"])
def test_unknown_config_key_is_rejected_before_work(capsys, tmp_path, monkeypatch, key):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(wtaut.cli, "weierstrass_class", refuse)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}=12\n")
    code, out, err = _run(capsys, ["--config", str(config), "class", "--genus", "2", "--gaps", "1,3"])
    assert code == 3
    assert out == ""
    assert err.startswith(f"wtaut: data error: unknown config key {key!r} in {config}")
    assert ", ".join(wtaut.cli.CONFIG_KEYS) in err
    assert "max_degree" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_is_a_data_error(capsys, tmp_path, kind):
    config = tmp_path / "run.cfg"
    if kind == "directory":
        config.mkdir()
    elif kind == "not-utf8":
        config.write_bytes(b"format=\xff\n")
    code, out, err = _run(capsys, ["--config", str(config), "semigroups", "--genus", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("wtaut: data error: cannot read config file ")
    assert str(config) in err


def test_config_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes("# r\u00e9glages\nformat=csv\n".encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    out, err = _cli_process(["--config", str(config), "semigroups", "--genus", "1"], env).communicate(timeout=60)
    assert err == b""
    assert out.startswith(b"# ")


def test_config_file_values_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults\nmax_degree=3\nformat=csv\n")
    code, out, _ = _run(capsys, ["--config", str(config), "hilbert", "--genus", "2"])
    assert code == 0
    assert out.startswith("# genus=2\n# max_degree=3\n")
    code, out, _ = _run(
        capsys, ["--config", str(config), "hilbert", "--genus", "2", "--max-degree", "4"]
    )
    assert code == 0
    assert "# max_degree=4\n" in out
    code, out, _ = _run(
        capsys, ["--config", str(config), "hilbert", "--genus", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["config"]["max_degree"] == 3


@pytest.mark.parametrize(
    "text, argv, expected",
    [
        # file values are case-insensitive where the flag's choices are not
        ("mode=smooth", ["pullback", "--genus", "2", "--partition", "1"], {"mode": "smooth"}),
        ("mode=cm", ["pullback", "--genus", "2", "--partition", "1"], {"mode": "CM"}),
        ("unshifted=yes", ["class", "--genus", "2", "--gaps", "1,3"], {"unshifted": True}),
        ("unshifted=no", ["class", "--genus", "2", "--gaps", "1,3"], {"unshifted": False}),
        ("paper_sign=1", ["psum", "--genus", "2", "--power", "2"], {"paper_sign": True}),
        ("unshifted=TRUE", ["class", "--genus", "2", "--gaps", "1,3"], {"unshifted": True}),
        ("kappa0-substitute=1", ["class", "--genus", "2", "--gaps", "1,3"],
         {"kappa0_substitute": True}),
        ("genus=3", ["semigroups"], {"genus": 3}),
        ("genus=2-3", ["semigroups", "--genus", "4"], {"genus": 4}),
        # schur-eval runs at genus 1 whatever the file says
        ("genus=5", ["schur-eval", "--partition", "1", "--values", "2"], {"genus": 1}),
        ("mode=smooth", ["pullback", "--genus", "2", "--partition", "1", "--mode", "CM"],
         {"mode": "CM"}),
    ],
)
def test_config_file_keys(capsys, tmp_path, text, argv, expected):
    config = tmp_path / "run.cfg"
    config.write_text(text + "\n")
    code, out, err = _run(capsys, ["--config", str(config), *argv])
    assert code == 0, err
    echo = json.loads(out)["config"]
    assert {key: echo[key] for key in expected} == expected


# test_config_file_keys covers yes, no, 1 and TRUE
@pytest.mark.parametrize("word, value", [("True", True), ("0", False), ("FALSE", False), ("nO", False)])
def test_config_file_bool_words_in_any_case(capsys, tmp_path, word, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"unshifted={word}\n")
    code, out, err = _run(capsys, ["--config", str(config), "class", "--genus", "2", "--gaps", "1,3"])
    assert code == 0, err
    assert json.loads(out)["config"]["unshifted"] is value


def _exit_code_and_streams(argv):
    """main(argv)'s exit code, stdout and stderr, a usage error's SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_code_and_stdout(argv):
    return _exit_code_and_streams(argv)[:2]


def _case_variants(word):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_case_variants("CM"), _case_variants("smooth"), st.text("cmsothCMSOTHx", max_size=8)))
@example("cm")
@example("Smooth")
def test_mode_flag_and_config_file_agree_on_every_spelling(word):
    argv = ["semigroups", "--genus", "1"]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, SOURCE_DATE_EPOCH="0"):
        config = Path(tmp) / "run.cfg"
        config.write_text(f"mode={word}\n")
        flag_code, flag_out = _exit_code_and_stdout([*argv, "--mode", word])
        file_code, file_out = _exit_code_and_stdout(["--config", str(config), *argv])
    assert (flag_code == 0) == (file_code == 0), (flag_code, file_code)
    assert flag_out == file_out


# (config file line, the same option as flags, the run both are added to, whether
# the option changes the run's stdout)
_FILE_AND_FLAG = {
    "format-csv": ("format=csv", ["--format", "csv"], ["semigroups", "--genus", "0-3"], True),
    "format-latex": ("format=latex", ["--format", "latex"],
                     ["class", "--genus", "3", "--partition", "2,1"], True),
    "max_degree-hilbert": ("max_degree=5", ["--max-degree", "5"], ["hilbert", "--genus", "3"], True),
    "max_degree-relations": ("max_degree=5", ["--max-weight", "5"], ["relations", "--genus", "3"], True),
    "mode-smooth": ("mode=smooth", ["--mode", "smooth"],
                    ["pullback", "--genus", "3", "--partition", "2,1"], True),
    "mode-CM": ("mode=CM", ["--mode", "CM"], ["pullback", "--genus", "3", "--partition", "2,1"], False),
    "unshifted": ("unshifted=true", ["--unshifted"], ["class", "--genus", "3", "--gaps", "1,2,4"], True),
    "kappa0_substitute": ("kappa0_substitute=yes", ["--kappa0-substitute"],
                          ["class", "--genus", "3", "--gaps", "1,2,4"], True),
    "paper_sign": ("paper_sign=1", ["--paper-sign"],
                   ["psum", "--genus", "3", "--power", "2", "--mode", "smooth"], True),
    "genus": ("genus=0-3", ["--genus", "0-3"], ["semigroups"], True),
}


@pytest.mark.parametrize("case", sorted(_FILE_AND_FLAG))
def test_every_config_key_reads_the_same_from_the_file_as_from_its_flag(tmp_path, monkeypatch, case):
    text, flags, argv, changes = _FILE_AND_FLAG[case]
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    config = tmp_path / "run.cfg"
    config.write_text(text + "\n")
    flag_code, flag_out = _exit_code_and_stdout([*argv, *flags])
    file_code, file_out = _exit_code_and_stdout(["--config", str(config), *argv])
    assert (flag_code, file_code) == (0, 0)
    assert flag_out == file_out
    if "--genus" in argv:  # without the option the run still succeeds, with the default
        assert (_exit_code_and_stdout(argv)[1] != flag_out) == changes


def test_config_file_output_writes_what_the_flag_writes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["hilbert", "--genus", "2", "--max-degree", "4"]
    by_flag, by_file, config = tmp_path / "flag.json", tmp_path / "file.json", tmp_path / "run.cfg"
    config.write_text(f"output={by_file}\n")
    assert _exit_code_and_stdout([*argv, "--output", str(by_flag)]) == (0, "")
    assert _exit_code_and_stdout(["--config", str(config), *argv]) == (0, "")
    assert by_flag.read_bytes() == by_file.read_bytes()
    assert by_flag.read_text() == _exit_code_and_stdout(argv)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "--genus", "2", "--mode=--"],
        ["hilbert", "--genus", "2", "--max-degree=--"],
        ["psum", "--genus", "2", "--power=--"],
        ["class", "--genus", "2", "--gaps=--"],
        ["schur-eval", "--partition", "1", "--values=--"],
        ["schur-eval", "--partition", "1", "--values", "1", "--kind=--"],
        ["--config=--", "semigroups", "--genus", "1"],
    ],
)
def test_a_double_dash_joined_to_a_flag_is_refused(argv):
    # some Pythons' argparse (3.11 among them) hands --flag=-- over as [], others as "--"
    code, out, err = _exit_code_and_streams(argv)
    assert code in (2, 3), err
    assert out == ""


# The CLI's grammar for the property test below: each subcommand's flags, each
# with the abbreviations argparse resolves uniquely among that subcommand's
# flags, and the small valid values drawn beside the shared pool of bad ones.
# A flag with no values takes none (store_true).  --output and --config are
# left out: written files and config files have tests of their own.
_COMMON_FLAGS = {
    "--genus": (["--gen"], ["0", "1", "2", "4", "1-3", "2-4"]),
    "--format": (["--form"], ["json", "csv", "latex"]),
    "--mode": (["--mod"], ["CM", "smooth", "cm"]),
}
_PARTITIONS = ["1", "2,1", "3", "2,2", "3,2,1", "6"]
_GRAMMAR = {
    "semigroups": {},
    "class": {
        "--gaps": (["--gap"], ["1,3", "1,2,4", "1,2,3", "1,3,5"]),
        "--partition": (["--part"], _PARTITIONS),
        "--unshifted": (["--unsh"], []),
        "--kappa0-substitute": (["--kappa"], []),
    },
    "pullback": {"--partition": (["--part"], _PARTITIONS)},
    "psum": {
        "--power": (["--pow"], ["1", "2", "3", "4"]),
        "--paper-sign": (["--paper"], []),
    },
    "relations": {"--max-weight": (["--max-w"], ["1", "4", "8"])},
    "hilbert": {"--max-degree": (["--max-d"], ["1", "4", "8"])},
    "schur-eval": {
        "--kind": (["--ki"], ["factorial", "shifted"]),
        "--partition": (["--part"], _PARTITIONS),
        "--values": (["--val", "--value"], ["0", "1/2,3", "-1,2", "1,2,3", "-.5"]),
        "--variables": (["--var"], ["0", "2", "3"]),
    },
}
_BAD_VALUES = ["", " ", "x", "1,,2", "1/0", "1e3", "3-4", "0-2", "-1", "-x", "--", "-1,2"]


def _flags_of(sub):
    common = {k: v for k, v in _COMMON_FLAGS.items() if not (sub == "schur-eval" and k == "--genus")}
    return {**common, **_GRAMMAR[sub]}


@st.composite
def _cli_draws(draw):
    """A subcommand and up to 4 of its flags, as (flag, spelling, value, joined)."""
    sub = draw(st.sampled_from(sorted(_GRAMMAR)))
    flags = _flags_of(sub)
    chosen = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        abbreviations, good = flags[flag]
        spelling = draw(st.sampled_from([flag, *abbreviations]))
        if not good:
            chosen.append((flag, spelling, None, False))
        else:
            value = draw(st.sampled_from(good) | st.sampled_from(_BAD_VALUES))
            chosen.append((flag, spelling, value, draw(st.booleans())))
    return sub, chosen


def _cli_argv(sub, chosen, joined):
    argv = [sub]
    for _, spelling, value, join in chosen:
        if value is None:
            argv.append(spelling)
        elif join if joined is None else joined:
            argv.append(f"{spelling}={value}")
        else:
            argv += [spelling, value]
    return argv


@settings(max_examples=80, deadline=None)
@given(_cli_draws())
def test_the_cli_grammar_keeps_the_exit_code_contract(draw):
    sub, chosen = draw
    argv = _cli_argv(sub, chosen, None)
    with mock.patch.dict(os.environ, SOURCE_DATE_EPOCH="0"):
        code, out, err = _exit_code_and_streams(argv)
        assert code in (0, 2, 3, 4), (argv, code)
        if code in (3, 4):
            assert out == ""
            prefix = "wtaut: data error: " if code == 3 else "wtaut: resource error: "
            assert err.startswith(prefix) and err.count("\n") == 1, err
        fmt = next((value for flag, _, value, _ in chosen if flag == "--format"), "json")
        if code == 0 and fmt == "json":
            json.loads(out)
        # argparse reads "--flag -v" as a flag missing its value, except where
        # _joined_values joins --values to a number
        if all(value is None or value[:1] != "-"
               or (flag == "--values" and value[1:2] in tuple("0123456789."))
               for flag, _, value, _ in chosen):
            spaced = _exit_code_and_stdout(_cli_argv(sub, chosen, False))
            assert spaced == _exit_code_and_stdout(_cli_argv(sub, chosen, True)), argv


# The config keys drawn into files, each with its valid values; output is left
# out, as test_config_file_output_writes_what_the_flag_writes covers it.
_BOOL_SPELLINGS = st.sampled_from(sorted(BOOL_WORDS)).flatmap(_case_variants)
_CONFIG_VALUES = {
    "genus": st.sampled_from(["1", "2", "3", "0-2", "1-3"]),
    "max_degree": st.sampled_from(["1", "3", "5"]),
    "mode": _case_variants("CM") | _case_variants("smooth"),
    "format": st.sampled_from(FORMATS),
    "unshifted": _BOOL_SPELLINGS,
    "paper_sign": _BOOL_SPELLINGS,
    "kappa0_substitute": _BOOL_SPELLINGS,
}
# each subcommand's arguments that no config key sets, and its flag for each
# config key but the common genus, mode and format
_CONFIG_RUNS = {
    "semigroups": ([], {}),
    "class": (["--partition", "2,1"],
              {"unshifted": "--unshifted", "kappa0_substitute": "--kappa0-substitute"}),
    "pullback": (["--partition", "2,1"], {}),
    "psum": (["--power", "2"], {"paper_sign": "--paper-sign"}),
    "relations": ([], {"max_degree": "--max-weight"}),
    "hilbert": ([], {"max_degree": "--max-degree"}),
    "schur-eval": (["--partition", "2,1", "--values", "1,2"], {}),
}
_ERROR_PREFIXES = {2: "wtaut: usage error: ", 3: "wtaut: data error: ", 4: "wtaut: resource error: "}


@st.composite
def _config_draws(draw):
    """A subcommand, the lines of a config file, and each key's value, None if drawn bad."""
    sub = draw(st.sampled_from(sorted(_CONFIG_RUNS)))
    lines, values = [], {}
    for key in draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), unique=True, max_size=4)):
        valid = draw(st.integers(0, 3)) > 0  # three in four values are valid
        value = draw(_CONFIG_VALUES[key] if valid else st.sampled_from(_BAD_VALUES))
        spelled = draw(st.sampled_from([key, key.replace("_", "-")]))
        lines.append(spelled + draw(st.sampled_from(["=", " = "])) + value)
        values[key] = value if valid else None
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", "  ", "# a comment", "# genus=99"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return sub, lines, values


@settings(max_examples=60, deadline=None)
@given(_config_draws())
def test_drawn_config_files_keep_the_exit_code_contract_and_match_flags(draw):
    sub, lines, values = draw
    required, own_flags = _CONFIG_RUNS[sub]
    flag_of = {"mode": "--mode", "format": "--format", **own_flags}
    if sub != "schur-eval":  # schur-eval runs at genus 1 whatever the file says
        flag_of["genus"] = "--genus"
    argv = [sub, *required, *(["--genus", "2"] if "genus" in flag_of.keys() - values.keys() else [])]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, SOURCE_DATE_EPOCH="0"):
        config = Path(tmp) / "run.cfg"
        config.write_text("".join(line + "\n" for line in lines))
        code, out, err = _exit_code_and_streams(["--config", str(config), *argv])
        assert code in (0, 2, 3, 4), (lines, code)
        if code:
            assert out == ""
            assert err.startswith(_ERROR_PREFIXES[code]) and err.count("\n") == 1, err
        fmt = values.get("format") or "json"
        if code == 0 and fmt == "json":
            envelope = json.loads(out)
        if None in values.values():
            return
        flags = []
        for key, value in values.items():
            if key not in flag_of:
                continue
            if isinstance(CONFIG_KEYS[key], bool):
                flags += [flag_of[key]] * BOOL_WORDS[value.lower()]  # a false bool is no flag
            else:
                flags += [flag_of[key], value]
        flag_code, flag_out = _exit_code_and_stdout([*argv, *flags])
    assert flag_code == code, (lines, flags)
    if code == 0 and fmt == "json":
        # a key the subcommand has no flag for is only echoed
        flag_envelope = json.loads(flag_out)
        for key in values.keys() - flag_of.keys() - {"genus"}:
            value = values[key]
            read = BOOL_WORDS[value.lower()] if isinstance(CONFIG_KEYS[key], bool) else int(value)
            flag_envelope["config"][key] = read
        assert envelope == flag_envelope, (lines, flags)
    else:
        assert out == flag_out, (lines, flags)


@pytest.mark.parametrize(
    "text, argv",
    [
        ("unshifted=ture", ["class", "--genus", "2", "--gaps", "1,3"]),
        ("kappa0_substitute=", ["class", "--genus", "2", "--gaps", "1,3"]),
        ("paper-sign=2", ["psum", "--genus", "2", "--power", "2"]),
        ("max_degree=abc", ["hilbert", "--genus", "2"]),
        ("max_degree=1.5", ["hilbert", "--genus", "2"]),
    ],
)
def test_bad_config_value_names_key_value_and_file(capsys, tmp_path, monkeypatch, text, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    for name in ("weierstrass_class", "kstar_power_sum", "sandwich_report"):
        monkeypatch.setattr(wtaut.cli, name, refuse)
    config = tmp_path / "run.cfg"
    config.write_text(text + "\n")
    code, out, err = _run(capsys, ["--config", str(config), *argv])
    key, _, value = text.partition("=")
    assert code == 3
    assert out == ""
    assert err.startswith(f"wtaut: data error: bad {key.replace('-', '_')} {value!r} in {config}: ")


@pytest.mark.parametrize("genus, requested", [("3-4", 4), ("2-3", 2), ("4-5", 4)])
def test_gap_list_genus_is_checked_against_the_whole_range_before_work(
    capsys, monkeypatch, genus, requested
):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(wtaut.cli, "weierstrass_class", refuse)
    code, out, err = _run(capsys, ["class", "--genus", genus, "--gaps", "1,2,3"])
    assert code == 3
    assert out == ""
    assert err == f"wtaut: data error: gap list has genus 3, not the requested {requested}\n"


def test_kappa0_is_substituted_per_genus_across_a_genus_range(capsys):
    code, out, err = _run(
        capsys, ["class", "--genus", "1-4", "--partition", "1", "--kappa0-substitute"]
    )
    assert code == 0, err
    payload = json.loads(out)["payload"]
    # kappa_0 = 2g - 2 times the divisor's g(g+1)/2
    assert [rec["class_unpointed"]["text"] for rec in payload] == ["0", "6", "24", "60"]
    assert [rec["virtual"] for rec in payload] == [True, False, False, False]


def test_class_virtual_flag_matches_the_realizability_oracle():
    start = time.perf_counter()
    for mu in filter(len, partitions_up_to(6, max_length=4)):
        argv = ["class", "--genus", f"{mu.length}-4", "--partition", ",".join(map(str, mu))]
        code, out = _exit_code_and_stdout(argv)
        assert code == 0, argv
        for rec in json.loads(out)["payload"]:
            g = rec["genus"]
            realizable = oracles.is_realizable(oracles.sequence_from_hprime_partition(mu, g), g)
            assert rec["virtual"] == (not realizable), (mu, g)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["pullback", "--genus", "2", "--partition", "1,a"], "--partition '1,a'"),
        (["class", "--genus", "2", "--partition", "1,2"], "--partition '1,2'"),
        (["class", "--genus", "2", "--gaps", "1,x"], "--gaps '1,x'"),
        (["class", "--genus", "2", "--gaps", "2,3"], "--gaps '2,3'"),
        (["schur-eval", "--partition", "2,b", "--values", "1"], "--partition '2,b'"),
        (["schur-eval", "--partition", "1", "--values", "1,x"], "--values entry 'x'"),
        (["schur-eval", "--partition", "1", "--values", "1/2e3"], "--values entry '1/2e3'"),
        (["schur-eval", "--partition", "1", "--values", "1/0"], "--values entry '1/0'"),
    ],
)
def test_bad_flag_value_is_a_data_error_naming_the_flag(capsys, argv, shown):
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"wtaut: data error: bad {shown}: ")


@pytest.mark.parametrize(
    "value",
    ["1e5000", "1e-5000", "0e5000", "2.5e4300", "1" * 4300 + "." + "1" * 4300, "1e" + "9" * 4000],
    ids=["1e5000", "1e-5000", "0e5000", "2.5e4300", "4300.4300-digits", "4000-digit-exponent"],
)
def test_values_past_the_digit_cap_are_refused_before_work(capsys, value):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["schur-eval", "--partition", "1", "--values", value])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert out == ""
    assert err.startswith(f"wtaut: resource error: bad --values entry {value!r}: ")


@pytest.mark.parametrize(
    "value, text",
    [("1e4000", "1" + "0" * 4000), ("-1e-4299", "-1/1" + "0" * 4299)],
    ids=["1e4000", "-1e-4299"],
)
def test_values_within_the_digit_cap_are_accepted(capsys, value, text):
    code, out, err = _run(capsys, ["schur-eval", "--partition", "1", f"--values={value}"])
    assert code == 0, err
    assert json.loads(out)["payload"]["value"]["text"] == text


@pytest.mark.parametrize("values", ["-1,2", "-1/2,3", "-.5,2", "-1e-5,1", "-3"])
def test_values_starting_with_a_minus_sign_need_no_equals_sign(capsys, monkeypatch, values):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    for kind in ("factorial", "shifted"):
        argv = ["schur-eval", "--kind", kind, "--partition", "2"]
        code, out, err = _run(capsys, [*argv, "--values", values])
        assert code == 0, err
        joined_code, joined, _ = _run(capsys, [*argv, f"--values={values}"])
        assert joined_code == 0
        assert out == joined


@pytest.mark.parametrize("flag", ["--val", "--valu", "--value"])
def test_values_abbreviated_takes_a_value_starting_with_a_minus_sign(capsys, monkeypatch, flag):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = ["schur-eval", "--partition", "1"]
    code, out, err = _run(capsys, [*argv, flag, "-1,2"])
    assert code == 0, err
    joined_code, joined, _ = _run(capsys, [*argv, "--values=-1,2"])
    assert joined_code == 0
    assert out == joined


@pytest.mark.parametrize("flag", ["--va", "--v"])
def test_values_abbreviation_shared_with_variables_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main(["schur-eval", "--partition", "1", flag, "-1,2"])
    assert stop.value.code == 2
    assert "ambiguous option" in capsys.readouterr().err


def test_values_followed_by_an_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["schur-eval", "--partition", "1", "--values", "--variables", "3"])
    assert stop.value.code == 2
    assert "--values: expected one argument" in capsys.readouterr().err


def test_psum_writes_its_root_view_without_in_roots(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("psum wrote its class in the roots")

    monkeypatch.setattr(wtaut.cli, "root_orbits", refuse)
    monkeypatch.setattr(wtaut.schur, "root_orbits", refuse)
    monkeypatch.setattr(wtaut.schur, "in_roots", refuse)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["psum", "--genus", "12", "--power", "25", "--mode", "smooth"])
    assert code == 0, err
    assert time.perf_counter() - start < 1
    # sum_i x_i^25 - c psi^25 with c = sum_{i<=12} (i - 12)^25: 13 terms, 2 orbits
    c = sum((i - 12) ** 25 for i in range(1, 13))
    assert json.loads(out)["payload"][0]["value_x"] == {
        "orbits": [
            {"coeff": str(-c), "exps": {"psi": 25}, "nu": []},
            {"coeff": "1", "exps": {}, "nu": [25]},
        ],
        "text": f"{-c}*psi^25*m() + m(25)",
    }


@pytest.mark.parametrize("how", ["flag", "config", None])
def test_even_power_warning_names_the_sign_the_run_uses(capsys, tmp_path, how):
    argv = ["psum", "--genus", "2", "--power", "2", "--mode", "smooth"]
    if how == "flag":
        argv.append("--paper-sign")
    elif how == "config":
        config = tmp_path / "run.cfg"
        config.write_text("paper_sign=yes\n")
        argv = ["--config", str(config), *argv]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    envelope = json.loads(out)
    published = how is not None
    assert envelope["payload"][0]["value_kappa_psi"]["text"] == ("psi^2" if published else "-psi^2")
    assert envelope["warnings"] == [
        "even power sums use the published positive sign (--paper-sign); the derived sign is negative"
        if published
        else "even power sums use the derived negative sign; pass --paper-sign for the published form"
    ]


def test_config_file_output_writes_the_file(capsys, tmp_path):
    target = tmp_path / "out" / "run.json"
    config = tmp_path / "run.cfg"
    config.write_text(f"output={target}\n")
    code, out, _ = _run(capsys, ["--config", str(config), "semigroups", "--genus", "2"])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["payload"][0]["count"] == 2


@pytest.mark.parametrize(
    "genus, message",
    [
        ("-1", "genus must be non-negative"),
        ("3-1", "bad genus '3-1': empty genus range"),
        ("1-", "bad genus '1-': invalid literal for int() with base 10: '1-'"),
        ("2-3-4", "bad genus '2-3-4': invalid literal for int() with base 10: '3-4'"),
        # some Pythons' argparse (3.11 among them) hands --genus=-- over as [], others as "--"
        ("--", "bad genus '--': invalid literal for int() with base 10: '--'"),
        ("", "bad genus '': invalid literal for int() with base 10: ''"),
    ],
)
def test_bad_genus_is_a_usage_error(capsys, genus, message):
    code, out, err = _run(capsys, ["semigroups", f"--genus={genus}"])
    assert code == 2
    assert out == ""
    assert err == f"wtaut: usage error: {message}\n"


def test_hilbert_honours_the_genus_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("WTAUT_MAX_GENUS", "13")
    code, out, err = _run(capsys, ["hilbert", "--genus", "13", "--max-degree", "1"])
    assert code == 0, err
    [block] = json.loads(out)["payload"]
    assert block["genus"] == 13
    assert [row["degree"] for row in block["rows"]] == [0, 1]


@pytest.mark.parametrize("value", ["x", "-1", " 7", pytest.param("1" * 5000, id="5000-digits")])
def test_bad_genus_cap_is_a_data_error_that_names_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("WTAUT_MAX_GENUS", value)
    code, out, err = _run(capsys, ["semigroups", "--genus", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith(f"wtaut: data error: bad WTAUT_MAX_GENUS {value[:20]!r}: ")


def test_empty_genus_cap_reads_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("WTAUT_MAX_GENUS", "")
    assert _run(capsys, ["semigroups", "--genus", "2"])[0] == 0
    code, _, err = _run(capsys, ["semigroups", "--genus", "13"])
    assert code == 4
    assert err == "wtaut: resource error: genus 13 exceeds the cap 12; raise WTAUT_MAX_GENUS to override\n"


def test_source_date_epoch_makes_the_bytes_reproducible(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = ["class", "--genus", "3", "--gaps", "1,2,4"]
    first = _run(capsys, argv)
    second = _run(capsys, argv)
    assert first[0] == 0
    assert first == second
    assert '\n  "generated_at": "2023-11-14T22:13:20Z",\n' in first[1]


def test_source_date_epoch_reaches_the_last_four_digit_year(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "253402300799")
    code, out, err = _run(capsys, ["semigroups", "--genus", "1"])
    assert code == 0, err
    assert '\n  "generated_at": "9999-12-31T23:59:59Z",\n' in out


# 253402300800 is 10000-01-01T00:00:00Z, a year the four-digit stamp cannot hold
@pytest.mark.parametrize("value", ["soon", "-1", "1.5", " 7", "253402300800", "9" * 30, "1" * 5000])
def test_bad_source_date_epoch_is_rejected_before_work(capsys, monkeypatch, value):
    def refuse(*args, **kwargs):
        raise AssertionError("the computation ran")

    monkeypatch.setattr(wtaut.cli, "weierstrass_class", refuse)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
    code, out, err = _run(capsys, ["class", "--genus", "2", "--gaps", "1,3"])
    assert code == 3
    assert out == ""
    assert err.startswith("wtaut: data error: bad SOURCE_DATE_EPOCH")


def test_importing_the_cli_loads_no_dataclasses_datetime_or_csv():
    # Every CLI run pays for what `import wtaut.cli` loads; dataclasses (which
    # loads inspect), datetime and json are not needed, and csv only for CSV
    # output.
    script = (
        "import sys; before = set(sys.modules); import wtaut.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(wtaut.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "wtaut.cli" in loaded
    assert not {"dataclasses", "inspect", "datetime", "csv", "json"} & set(loaded)
