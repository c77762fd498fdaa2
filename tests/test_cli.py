"""The command-line contract: golden JSON payloads, exit codes and CSV shape.

Each golden file under tests/data/cli holds one JSON envelope, minus its
`generated_at` stamp, as `wtaut` printed it.  A refactor of the
mathematics must reproduce these bytes exactly.
"""

import csv
import io
import json
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wtaut.cli
import wtaut.tautring
from wtaut.cli import main
from wtaut.schur import factorial_schur
from wtaut.semigroups import Partition

GOLDEN = Path(__file__).parent / "data" / "cli"

GOLDEN_ARGV = {
    "class_gaps_g5": ["class", "--genus", "5", "--gaps", "1,2,3,5,7"],
    "class_gaps_g5_unshifted": ["class", "--genus", "5", "--gaps", "1,2,3,5,7", "--unshifted"],
    "class_partition_g2_5": ["class", "--genus", "2-5", "--partition", "2,1"],
    "class_gaps_g3_kappa0": ["class", "--genus", "3", "--gaps", "1,2,4", "--kappa0-substitute"],
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


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_payload_bytes(capsys, name):
    code, out, _ = _run(capsys, GOLDEN_ARGV[name])
    assert code == 0
    envelope = json.loads(out)
    assert envelope.pop("generated_at")
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"{name}.json").read_text()


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
    ],
)
def test_exit_codes(capsys, argv, code):
    got, out, err = _run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith("wtaut: ")


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


def test_sandwich_violation_is_a_data_error(capsys, monkeypatch):
    monkeypatch.setattr(
        wtaut.tautring,
        "hilbert_quotient_lower",
        lambda g, cutoff, max_genus: [10**6] * (cutoff + 1),
    )
    code, out, err = _run(capsys, ["hilbert", "--genus", "2", "--max-degree", "4"])
    assert code == 3
    assert out == ""
    assert err.startswith("wtaut: data error: ")
    assert "at degree 0" in err


@pytest.mark.parametrize("argv", CSV_ARGV, ids=lambda argv: argv[0])
def test_csv_rows_match_header_width(capsys, argv):
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    body = [line for line in out.splitlines(keepends=True) if not line.startswith("# ")]
    header, *rows = list(csv.reader(io.StringIO("".join(body))))
    assert rows
    for row in rows:
        assert len(row) == len(header), (header, row)


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


def test_hilbert_honours_the_genus_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("WTAUT_MAX_GENUS", "13")
    code, out, err = _run(capsys, ["hilbert", "--genus", "13", "--max-degree", "1"])
    assert code == 0, err
    [block] = json.loads(out)["payload"]
    assert block["genus"] == 13
    assert [row["degree"] for row in block["rows"]] == [0, 1]
