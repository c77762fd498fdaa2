"""The command-line contract: golden JSON payloads, exit codes and CSV shape.

Each golden file under tests/data/cli holds one JSON envelope, minus its
`generated_at` stamp, as `wtaut` printed it.  A refactor of the
mathematics must reproduce these bytes exactly.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from wtaut.cli import main

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
    ],
)
def test_exit_codes(capsys, argv, code):
    got, out, err = _run(capsys, argv)
    assert got == code
    assert out == ""
    assert err.startswith("wtaut: ")


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
