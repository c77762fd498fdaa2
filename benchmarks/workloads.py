"""Workloads of the wtaut benchmark and the correctness gate on their output.

Every workload is a fixed list of CLI invocations of fixed mathematics;
the seed only permutes the order of a workload's invocations.  Each
invocation carries the check its JSON output must pass.  The checks
compare mathematical content (polynomial terms, Hilbert rows), never
envelope bytes, so `generated_at` and payload fields that a later
change makes opt-in do not count as failures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).with_name("references.json")

# A run of the CLI that does no mathematics: interpreter start, import,
# argument parsing and the envelope.
SETUP_ARGV = ("schur-eval", "--partition", "1", "--values", "0")

# Independent identity: gaps {1,2,3,4,5,7} cut out the Weierstrass
# divisor, whose class is g(g+1)/2 psi - lambda_1 = 21 psi - lambda_1 at g = 6.
DIVISOR_GAPS = "1,2,3,4,5,7"
DIVISOR_CLASS = {"lambda1^1": Fraction(-1), "psi^1": Fraction(21)}

GENUS6_SEMIGROUPS = 23


@dataclass(frozen=True)
class Invocation:
    """One CLI run and the check its parsed JSON envelope must pass."""

    argv: tuple[str, ...]
    check: Callable[[dict], bool]


def poly_content(entry: dict) -> dict[str, Fraction]:
    """Terms of a payload polynomial, independent of text layout and term order."""
    out: dict[str, Fraction] = {}
    for term in entry["terms"]:
        key = "*".join(f"{name}^{e}" for name, e in sorted(term["exps"].items()))
        out[key] = out.get(key, Fraction(0)) + Fraction(term["coeff"])
    return {key: c for key, c in out.items() if c}


def content_record(entry: dict) -> dict[str, str]:
    """JSON-ready form of `poly_content`, as stored in the references."""
    return {key: str(c) for key, c in sorted(poly_content(entry).items())}


def _from_record(record: dict[str, str]) -> dict[str, Fraction]:
    return {key: Fraction(c) for key, c in record.items()}


def hilbert_rows(payload: list) -> list[list[int]]:
    """[degree, lower, upper] rows of a single-genus Hilbert payload."""
    [block] = payload
    return [[r["degree"], r["lower"], r["upper"]] for r in block["rows"]]


def class_argv(gaps: str) -> tuple[str, ...]:
    return ("class", "--genus", "6", "--gaps", gaps)


HILBERT_ARGV = {
    "hilbert-g3-d12": ("hilbert", "--genus", "3", "--max-degree", "12"),
    "hilbert-g5-d10": ("hilbert", "--genus", "5", "--max-degree", "10"),
}
PULLBACK_ARGV = ("pullback", "--genus", "6", "--partition", "5,4,3,2", "--mode", "smooth")


def _check_setup(ref: dict[str, str]):
    def check(envelope: dict) -> bool:
        return envelope["command"] == "schur-eval" and poly_content(
            envelope["payload"]["value"]
        ) == _from_record(ref)

    return check


def _check_class(gaps: str, ref: dict):
    pointed, unpointed = _from_record(ref["class_pointed"]), _from_record(ref["class_unpointed"])

    def check(envelope: dict) -> bool:
        [record] = envelope["payload"]
        ok = (
            record["gaps"] == [int(g) for g in gaps.split(",")]
            and poly_content(record["class_pointed"]) == pointed
            and poly_content(record["class_unpointed"]) == unpointed
        )
        if gaps == DIVISOR_GAPS:
            ok = ok and poly_content(record["class_pointed"]) == DIVISOR_CLASS
        return ok

    return check


def _check_hilbert(ref_rows: list[list[int]]):
    def check(envelope: dict) -> bool:
        rows = hilbert_rows(envelope["payload"])
        return rows == ref_rows and all(lower <= upper for _, lower, upper in rows)

    return check


def _check_pullback(ref: dict[str, str]):
    value = _from_record(ref)

    def check(envelope: dict) -> bool:
        [record] = envelope["payload"]
        return (
            record["genus"] == 6
            and record["partition"] == [5, 4, 3, 2]
            and record["mode"] == "smooth"
            and poly_content(record["value_lambda"]) == value
        )

    return check


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def setup_invocation(refs: dict) -> Invocation:
    return Invocation(SETUP_ARGV, _check_setup(refs["setup"]))


def build_workloads(refs: dict) -> dict[str, list[Invocation]]:
    """Every workload as its list of invocations in canonical order."""
    classes = refs["classes-g6"]
    if len(classes) != GENUS6_SEMIGROUPS:
        raise ValueError(f"expected {GENUS6_SEMIGROUPS} genus-6 gap lists, got {len(classes)}")
    return {
        "classes-g6": [
            Invocation(class_argv(gaps), _check_class(gaps, ref)) for gaps, ref in classes.items()
        ],
        **{
            name: [Invocation(argv, _check_hilbert(refs[name]))]
            for name, argv in HILBERT_ARGV.items()
        },
        "pullback-smooth-g6": [Invocation(PULLBACK_ARGV, _check_pullback(refs["pullback-smooth-g6"]))],
    }


def ordered(invocations: list[Invocation], seed: int) -> list[Invocation]:
    """The seed's permutation of a workload's invocations."""
    out = list(invocations)
    random.Random(seed).shuffle(out)
    return out


def passes_check(invocation: Invocation, returncode: int, stdout: bytes) -> bool:
    """The gate: exit code 0 and the right mathematical content."""
    if returncode != 0:
        return False
    try:
        return bool(invocation.check(json.loads(stdout)))
    except (ValueError, KeyError, TypeError):
        return False
