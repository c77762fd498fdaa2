"""Command-line surface: deterministic JSON/CSV/LaTeX reports.

Subcommands: semigroups, class, pullback, psum, relations, hilbert,
schur-eval.  Exit codes: 0 success, 2 usage, 3 data, 4 resource.  The
genus cap, DEFAULT_MAX_GENUS or the WTAUT_MAX_GENUS environment variable,
is the CLI's alone: the library caps no genus, and build_config refuses
a genus above the cap for every subcommand before any work.  A
key=value config file (--config) may set only the keys in CONFIG_KEYS:
genus, max_degree, mode, format, output, unshifted, paper_sign and
kappa0_substitute, with a dash allowed for the underscore.  CONFIG_KEYS
holds each key's default.  Explicit flags win over the file.  Any other
key, a bool that is not one of BOOL_WORDS and an int that does not parse
are data errors.  Each run is one argparse namespace: build_config fills
it in, and each subcommand's run function reads it alone and returns its
payload for JSON and its table, with lazy rows, for CSV and LaTeX.
class takes two polynomials from wcycles and writes the rest of the record:
the gaps, codim, normalization, kappa_0 substitution and virtual flag.

A polynomial is written as {"terms": [{"coeff", "exps"}, ...], "text"}.
The x-root view value_x of pullback and psum, the class in the Chern
roots x_1..x_g before any reduction, is written on the monomial
symmetric functions m_nu instead, one record per orbit, as
schur.root_orbits gives them.  For the pullback of (2,1) at genus 2:

    {"orbits": [{"coeff": "3", "exps": {"psi": 1}, "nu": [1, 1]},
                {"coeff": "1", "exps": {}, "nu": [2, 1]}],
     "text": "3*psi*m(1,1) + m(2,1)"}

nu holds the positive parts of the partition, weakly decreasing, at most
g of them; m() is 1.  Orbits come in descending order of the psi power,
then of nu.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import stat
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from . import __version__
from .errors import DataError, ResourceError, UsageError
from .exactalg import MultiPoly, kap
from .pullback import (
    kstar_power_sum, kstar_power_sum_roots, kstar_schubert, mumford_reduce, smooth_power_sum,
)
from .schur import factorial_schur, generic_arguments, root_orbits, shifted_schur
from .semigroups import (
    NumericalSemigroup, Partition, enumerate_semigroups, in_staircase, semigroup_record,
)
from .tautring import relation_generators, sandwich_report
from .wcycles import pushforward_rule, weierstrass_class

# The genus cap unless WTAUT_MAX_GENUS sets another, the only one: build_config
# checks it for every subcommand before any work.  It is 12 because no cost
# bound covers more yet: at genus 12, hilbert at degree 16 takes about 6 s and
# the hyperelliptic class 78.6 s and 752 MB for its determinant alone (Python
# 3.11, one core).
DEFAULT_MAX_GENUS = 12
# hilbert's cost is the fixed-point lower bound, one echelon of lambda-monomial
# rows over all semigroups of the genus: as CLI runs at degree 16 it takes
# about 0.1-0.2 s at genus 4 and 8, 0.6-0.7 s at genus 10, 2 s at genus 11
# and 6 s at genus 12, the default genus cap (Python 3.11, one core).
MAX_DEGREE_CAP = 16
# schur-eval expands a symbolic Kempf-Laksov determinant of at most n rows,
# at a cost growing like 2^n.  As CLI runs with the staircase (5,4,3,2,1), 6
# symbolic arguments take about 0.4-0.5 s (factorial) and 0.7-0.8 s
# (shifted: the stagger is substituted afterwards), print 4.3-4.7 MB and
# peak under 40 MB; the factorial result in 7 arguments already has 383,415
# terms.  Numeric arguments make an integer matrix, eliminated in about n^3
# products whose time grows with the digits of the entries: 12 values take
# 0.1 s for the staircase and for (12^6), most of it start-up, and 0.3-0.35 s
# for twelve parts of 100 (Python 3.11, one core).
MAX_SCHUR_VARIABLES = 6
MAX_SCHUR_VALUES = 12
# the most digits a --values entry may give its numerator or denominator:
# Python's default cap on the digits of an int parsed from text
MAX_VALUE_DIGITS = 4300
FORMATS = ("json", "csv", "latex")
# --values and each abbreviation argparse resolves to it; --va and --v are
# shared with --variables, so argparse refuses them as ambiguous
VALUES_FLAGS = ("--val", "--valu", "--value", "--values")

KAPPA_INDEX_NOTE = (
    "odd power sums carry kappa_(2r-1); the published index 2r is off by one in degree"
)
EVEN_SIGN_NOTE = (
    "even power sums use the derived negative sign; pass --paper-sign for the published form"
)
PAPER_SIGN_NOTE = (
    "even power sums use the published positive sign (--paper-sign); the derived sign is negative"
)
# every class holds up to a nonzero constant factor: the record, the warning and
# the CSV meta of class say so
NORMALIZATION = "up-to-constant"
UNSHIFTED_NOTE = "unshifted evaluation differs from the divisor-normalized convention"
LOWER_RING_NOTE = (
    "lower bound is computed in Q[lambda_1..lambda_g, psi]; psi is kept in the quotient"
)


# The options a config file may set, named as the flags' dests, each with its
# default; every one but output is echoed in the envelope.  These defaults are
# the only ones: a flag left out reads None and leaves the config file's value
# or the default in place, and a file value is read by the type of its default.
CONFIG_KEYS = {"genus": None, "max_degree": 6, "mode": "CM", "format": "json", "output": None,
               "unshifted": False, "paper_sign": False, "kappa0_substitute": False}
# The words a config file may give a bool, in any case.
BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _mode(text: str) -> str:
    """The mode text names, in the case of its choices: CM and smooth in any case."""
    return text.upper().replace("SMOOTH", "smooth")


def _env_count(name: str, default: int | None) -> int | None:
    """The non-negative integer the environment variable name holds; default if unset or empty."""
    text = os.environ.get(name)
    if not text:
        return default
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"bad {name} {text[:20]!r}: not a non-negative integer")
    try:
        return int(text)
    except ValueError as exc:  # past Python's int-to-str digit cap
        raise DataError(f"bad {name} {text[:20]!r}: {exc}") from exc


def _source_date() -> time.struct_time | None:
    """The UTC time SOURCE_DATE_EPOCH names, if set, so that envelopes are reproducible.

    Years past 9999 are refused: the stamp writes the year in four digits.
    """
    seconds = _env_count("SOURCE_DATE_EPOCH", None)
    if seconds is None:
        return None
    bad = f"bad SOURCE_DATE_EPOCH {str(seconds)[:20]!r}"
    try:
        stamp = time.gmtime(seconds)
    except (OverflowError, OSError) as exc:
        raise DataError(f"{bad}: {exc}") from exc
    if stamp.tm_year > 9999:
        raise DataError(f"{bad}: year {stamp.tm_year} is out of range")
    return stamp


def _echo(run: argparse.Namespace) -> dict:
    """The options the envelope echoes: every config key but output, the genus as A or A-B."""
    low, high = run.genera[0], run.genera[-1]
    echo = {key: getattr(run, key) for key in CONFIG_KEYS if key != "output"}
    echo["genus"] = low if low == high else f"{low}-{high}"
    return echo


def make_envelope(run: argparse.Namespace, payload, warnings: list[str]) -> dict:
    return {
        "tool": "wtaut",
        "version": __version__,
        "command": run.subcommand,
        "config": _echo(run),
        "warnings": sorted(warnings),
        "payload": payload,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", run.source_date or time.gmtime()),
    }


def _parse_genus(text: str) -> tuple[int, int]:
    head, _, tail = text.partition("-")
    if head and tail:
        low, high = int(head), int(tail)
        if low > high:
            raise ValueError("empty genus range")
        return low, high
    value = int(text)
    return value, value


def _parse_flag(flag: str, text: str, make):
    """make(the ints of the comma-separated text); a data error naming flag if either fails."""
    try:
        return make([int(piece) for piece in text.split(",")] if text.strip() else [])
    except ValueError as exc:  # DataError is a ValueError
        raise DataError(f"bad {flag} {text!r}: {exc}") from None


def _load_config_file(path: str) -> dict:
    """The CONFIG_KEYS values a key=value file sets, each read by the type of its default.

    A bool is one of the BOOL_WORDS and an int is parsed, or the value is
    a data error naming the key, the value and the file; the rest stay
    text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a decode error has no strerror
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read config file {path}: {reason}") from exc
    values: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise DataError(
                f"unknown config key {key!r} in {path}; the keys are {', '.join(CONFIG_KEYS)}"
            )
        values[key] = value.strip()
    for key, value in values.items():
        bad = f"bad {key} {value!r} in {path}"
        if isinstance(CONFIG_KEYS[key], bool):
            if value.lower() not in BOOL_WORDS:
                raise DataError(f"{bad}: not one of {', '.join(BOOL_WORDS)}")
            values[key] = BOOL_WORDS[value.lower()]
        elif isinstance(CONFIG_KEYS[key], int):
            try:
                values[key] = int(value)
            except ValueError as exc:
                raise DataError(f"{bad}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> None:
    """Fill in the run's namespace args: each config key the flags left None
    takes the config file's value, or else its CONFIG_KEYS default.

    Sets args.genera, the range of genera, and args.source_date, and
    normalizes args.mode.  The checks run in a fixed order, so the first
    error reported is always the same: a flag read as [], genus given and
    parsed, the genus cap, a negative genus, SOURCE_DATE_EPOCH, mode,
    format, degree cutoff.
    """
    # the argparse of some Pythons (3.11 among them) reads --flag=-- as [], past
    # the flag's type and choices; only the genus reads it as "--", below
    for key, value in vars(args).items():
        if value == [] and key != "genus":
            raise UsageError(f"bad {key} '--'")
    values = _load_config_file(args.config) if args.config else {}
    for key, default in CONFIG_KEYS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, values.get(key, default))
    if args.genus is None:
        raise UsageError("a genus is required")
    genus = "--" if args.genus == [] else args.genus
    try:
        low, high = _parse_genus(genus)
    except ValueError as exc:
        raise UsageError(f"bad genus {genus!r}: {exc}") from exc
    max_genus = _env_count("WTAUT_MAX_GENUS", DEFAULT_MAX_GENUS)
    if high > max_genus:
        raise ResourceError(
            f"genus {high} exceeds the cap {max_genus}; raise WTAUT_MAX_GENUS to override"
        )
    if low < 0:
        raise UsageError("genus must be non-negative")
    args.genera = range(low, high + 1)
    args.source_date = _source_date()
    args.mode = _mode(args.mode)
    if args.mode not in ("CM", "smooth"):
        raise DataError("mode must be CM or smooth")
    if args.format not in FORMATS:
        raise DataError(f"format must be one of {', '.join(FORMATS)}, not {args.format!r}")
    if args.max_degree < 1:
        raise DataError("the degree cutoff must be at least 1")
    if args.max_degree > MAX_DEGREE_CAP:
        raise ResourceError(
            f"degree cutoff {args.max_degree} too large; use at most {MAX_DEGREE_CAP}"
        )


# -- polynomial rendering ----------------------------------------------------


@contextlib.contextmanager
def _exact_digits():
    """Lift Python's cap on int-to-str digits while results are rendered.

    The cap guards against costly parsing of untrusted text, so inputs
    are parsed under it; the program's own exact coefficients may exceed
    4,300 digits and are rendered in full.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # no cap before Python 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, in one pass.

    A MultiPoly is written as the object its json_object method writes,
    {"terms": [{"coeff", "exps"}, ...], "text": canonical_str()}.  Besides
    MultiPoly it knows str, int, bool, None, lists and dicts with str keys;
    anything else raises TypeError.
    """
    chunks: list[str] = []
    _json_chunks(obj, "\n", chunks)
    return "".join(chunks)


# The characters json.dumps writes as a two-character escape.
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
                  "\t": "\\t"}


def _json_string(text: str) -> str:
    """text as json.dumps(text) writes it: printable ASCII as is, but for the
    _SHORT_ESCAPES, and every other character as \\uXXXX, in two surrogates
    above U+FFFF.

    The json package would cost every CLI run its import.
    """
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    out = []
    for char in text:
        code = ord(char)
        if char in _SHORT_ESCAPES:
            out.append(_SHORT_ESCAPES[char])
        elif 0x20 <= code < 0x7F:
            out.append(char)
        elif code < 0x10000:
            out.append(f"\\u{code:04x}")
        else:
            code -= 0x10000
            out.append(f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}")
    return '"' + "".join(out) + '"'


def _json_chunks(obj, nl: str, out: list[str]) -> None:
    """Append the text of obj to out; nl is the line break and indent of its line."""
    if isinstance(obj, str):
        out.append(_json_string(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, MultiPoly):
        out.append(obj.json_object(nl))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _json_string(key) + ": ")
            _json_chunks(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _latex_table(headers: list[str], rows: Iterable[list[str]], caption: str) -> str:
    lines = ["\\begin{table}", f"% {caption}", "\\begin{tabular}{" + "l" * len(headers) + "}"]
    lines.append(" & ".join(headers) + " \\\\ \\hline")
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.extend(["\\end{tabular}", "\\end{table}"])
    return "\n".join(lines) + "\n"


def _csv_lines(headers: list[str], rows: Iterable[list[str]], meta: dict) -> str:
    import csv  # only CSV output needs it: at the top every run would pay for it

    out = io.StringIO()
    out.writelines(f"# {k}={v}\n" for k, v in sorted(meta.items()))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


# -- subcommand payloads -----------------------------------------------------


def _orbits_record(orbits: dict) -> dict:
    """The x-root view {"orbits": [...], "text"} of a root_orbits map (module docstring)."""
    records, pieces = [], []
    for (rest, nu), coeff in orbits.items():
        text = str(coeff)
        records.append({"coeff": text, "exps": {v.name: e for v, e in rest}, "nu": list(nu)})
        sign, mag = (" - ", text[1:]) if text[0] == "-" else (" + ", text)
        factors = [mag] * (mag != "1") + [v.name if e == 1 else f"{v.name}^{e}" for v, e in rest]
        pieces.append(sign + "*".join([*factors, "m" + _tuple_cell(nu)]))
    return {"orbits": records, "text": MultiPoly._joined_text(pieces)}


def _tuple_cell(values) -> str:
    """A table cell such as (3,2,1)."""
    return "(" + ",".join(map(str, values)) + ")"


def _set_cell(values) -> str:
    """A table cell such as {1 2 4}."""
    return "{" + " ".join(map(str, values)) + "}"


def run_semigroups(run: argparse.Namespace):
    payload = []
    for g in run.genera:
        records = [semigroup_record(h) for h in enumerate_semigroups(g)]
        payload.append({"genus": g, "count": len(records), "semigroups": records})
    rows = (
        [str(rec["genus"]), _set_cell(rec["gaps"]), " ".join(map(str, rec["sequence_head"])),
         " ".join(map(str, rec["partition_hprime"]))]
        for block in payload
        for rec in block["semigroups"]
    )
    headers = ["genus", "gaps", "sequence_head", "partition"]
    return payload, [], (headers, rows, {"genus": _echo(run)["genus"]})


def run_class(run: argparse.Namespace):
    gaps, parts = run.gaps, run.partition
    semigroup = None if gaps is None else _parse_flag("--gaps", gaps, NumericalSemigroup.from_gaps)
    partition = None if parts is None else _parse_flag("--partition", parts, Partition.of)
    if (semigroup is None) == (partition is None):
        raise DataError("choose exactly one selector: --gaps or --partition")
    if semigroup is not None:
        for g in run.genera:
            if g != semigroup.genus:
                raise DataError(f"gap list has genus {semigroup.genus}, not the requested {g}")
    warnings = [f"normalization: {NORMALIZATION}"]
    if run.unshifted:
        warnings.append(UNSHIFTED_NOTE)
    payload = []
    for g in run.genera:
        mu = partition if semigroup is None else semigroup.partition
        pointed = weierstrass_class(mu, g, unshifted=run.unshifted)
        unpointed = pushforward_rule(pointed)
        if run.kappa0_substitute:
            unpointed = unpointed.substitute({kap(0): 2 * g - 2})
        payload.append(
            {
                "genus": g,
                "gaps": None if semigroup is None else list(semigroup.gaps),
                "partition": list(mu),
                "codim": mu.weight,
                "class_pointed": pointed,
                "class_unpointed": unpointed,
                # mu outside the staircase delta_(g-1): no semigroup of genus g has it
                "virtual": not in_staircase(mu, g - 1),
                "normalization": NORMALIZATION,
            }
        )
    rows = (
        [
            str(rec["genus"]),
            _set_cell(rec["gaps"]) if rec["gaps"] else "-",
            _tuple_cell(rec["partition"]),
            str(rec["codim"]),
            rec["class_pointed"].latex(),
            rec["class_unpointed"].latex(),
        ]
        for rec in payload
    )
    headers = ["genus", "gaps", "partition", "codim", "pointed class", "unpointed class"]
    return payload, warnings, (headers, rows, {"normalization": NORMALIZATION})


def run_pullback(run: argparse.Namespace):
    mu = _parse_flag("--partition", run.partition, Partition.of)
    if run.genera[0] < 1:
        raise DataError("pullback needs genus at least 1")
    payload = [
        {
            "genus": g,
            "partition": list(mu),
            "weight": mu.weight,
            "mode": run.mode,
            "value_x": _orbits_record(root_orbits(value, g)),  # of the class before any reduction
            "value_lambda": mumford_reduce(value, g) if run.mode == "smooth" else value,
        }
        for g in run.genera
        for value in [kstar_schubert(mu, g)]
    ]
    rows = ([str(rec["genus"]), _tuple_cell(mu), rec["value_lambda"].latex()] for rec in payload)
    return payload, [], (["genus", "partition", "class"], rows, {"mode": run.mode})


def run_psum(run: argparse.Namespace):
    power = run.power
    if power < 1:
        raise DataError("the power must be at least 1")
    smooth = run.mode == "smooth"
    payload = []
    for g in run.genera:
        if g < 1:
            raise DataError("power sums need genus at least 1")
        record = {
            "genus": g,
            "power": power,
            "mode": run.mode,
            "value_x": _orbits_record(kstar_power_sum_roots(power, g)),
            "value_lambda": kstar_power_sum(power, g),
        }
        if smooth:
            record["value_kappa_psi"] = smooth_power_sum(power, g, paper_sign=run.paper_sign)
        payload.append(record)
    even_note = PAPER_SIGN_NOTE if run.paper_sign else EVEN_SIGN_NOTE
    warnings = [KAPPA_INDEX_NOTE if power % 2 else even_note] if smooth else []
    rows = ([str(rec["genus"]), str(power), rec["value_lambda"].latex()] for rec in payload)
    return payload, warnings, (["genus", "power", "class"], rows, {"mode": run.mode})


def run_relations(run: argparse.Namespace):
    payload = [
        {
            "genus": g,
            "max_weight": run.max_degree,
            "generators": [
                {"partition": list(mu), "weight": mu.weight, "value": poly}
                for mu, poly in relation_generators(g, run.max_degree)
            ],
        }
        for g in run.genera
    ]
    rows = (
        [_tuple_cell(gen["partition"]), str(gen["weight"]), gen["value"].latex()]
        for block in payload
        for gen in block["generators"]
    )
    return payload, [], (["partition", "weight", "relation"], rows, {})


def run_hilbert(run: argparse.Namespace):
    payload = []
    for g in run.genera:
        report = sandwich_report(g, run.max_degree)
        payload.append(
            {
                "genus": g,
                "max_degree": run.max_degree,
                "rows": [
                    {"degree": d, "lower": lower, "upper": upper}
                    for d, (lower, upper) in enumerate(zip(report.lower, report.upper))
                ],
                "generator_counts": list(report.generator_counts),
            }
        )
    rows = (
        [str(block["genus"]), str(r["degree"]), str(r["lower"]), str(r["upper"])]
        for block in payload
        for r in block["rows"]
    )
    meta = {"max_degree": run.max_degree, "genus": _echo(run)["genus"]}
    return payload, [LOWER_RING_NOTE], (["genus", "degree", "lower", "upper"], rows, meta)


def _parse_value(text: str) -> Fraction:
    """The Fraction one --values entry names.

    Fraction expands a decimal exponent itself, past Python's cap on the
    digits of an int parsed from text: "1e400000" alone would take
    seconds.  So a value whose numerator or denominator would have more
    than MAX_VALUE_DIGITS digits is refused from its mantissa and
    exponent, before it is built.
    """
    mantissa, _, exponent = text.lower().partition("e")
    try:
        base, shift = Fraction(mantissa), int(exponent or 0)
        for part, zeros in ((base.numerator, max(shift, 0)), (base.denominator, max(-shift, 0))):
            if zeros >= MAX_VALUE_DIGITS or abs(part) >= 10 ** (MAX_VALUE_DIGITS - zeros):
                raise ResourceError(
                    f"bad --values entry {text!r}: more than {MAX_VALUE_DIGITS} digits"
                )
        return Fraction(text)
    except ZeroDivisionError:  # Fraction("1/0")
        raise DataError(f"bad --values entry {text!r}: zero denominator") from None
    except ValueError as exc:
        raise DataError(f"bad --values entry {text!r}: {exc}") from None


def run_schur_eval(run: argparse.Namespace):
    kind, variables = run.kind, run.variables
    # an empty or blank --values is zero arguments, as _parse_flag reads --partition
    values = None if run.values is None else run.values.split(",") if run.values.strip() else []
    mu = _parse_flag("--partition", run.partition, Partition.of)
    if (values is None) == (variables is None):
        raise DataError("choose exactly one of --values or --variables")
    if values is not None and len(values) > MAX_SCHUR_VALUES:
        raise ResourceError(f"{len(values)} values; use at most {MAX_SCHUR_VALUES}")
    if variables is not None and variables < 0:
        raise DataError(f"{variables} variables; the count must not be negative")
    if variables is not None and variables > MAX_SCHUR_VARIABLES:
        raise ResourceError(f"{variables} variables; use at most {MAX_SCHUR_VARIABLES}")
    args = [_parse_value(v) for v in values] if values is not None else generic_arguments(variables)
    fn = factorial_schur if kind == "factorial" else shifted_schur
    result = fn(mu, args)
    payload = {
        "kind": kind,
        "partition": list(mu),
        "arguments": [str(v) for v in values] if values is not None else f"z1..z{variables}",
        "value": result,
    }
    rows = ([kind, _tuple_cell(mu), value.latex()] for value in (result,))
    return payload, [], (["kind", "partition", "value"], rows, {})


# -- driver ------------------------------------------------------------------


def _emit(envelope: dict, run: argparse.Namespace, table) -> None:
    """Write the envelope as JSON, or table, (headers, rows, meta), as CSV or LaTeX.

    rows is a generator, so JSON output never builds the rows.
    """
    headers, rows, meta = table
    with _exact_digits():
        if run.format == "json":
            text = json_text(envelope) + "\n"
        elif run.format == "csv":
            text = _csv_lines(headers, rows, meta)
        else:
            text = _latex_table(headers, rows, caption=envelope["command"])
    if run.output:
        _write_output(Path(run.output), text)
    else:
        sys.stdout.write(text)


def _write_output(target: Path, text: str) -> None:
    """Write text to target.

    A missing target or a regular file is replaced whole by a rename, with
    the mode the umask gives a new file.  Anything else is opened and
    written in place: a symlink keeps pointing at its target, which gets
    the text, and a FIFO or a device gets the bytes.  A reader that closes
    early raises BrokenPipeError, which main treats as on stdout.
    """
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        if os.path.lexists(target) and not stat.S_ISREG(os.lstat(target).st_mode):
            with open(target, "w") as fh:
                fh.write(text)
            return
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".wtaut-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, target)
    except BrokenPipeError:
        raise
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ResourceError(f"cannot write {target}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtaut",
        description="Exact Weierstrass-cycle and tautological-ring calculator.",
    )
    parser.add_argument(
        "--config",
        help=f"key=value file setting any of {', '.join(CONFIG_KEYS)}; flags win",
    )

    # The options the subcommands share, declared once: a subcommand copies a
    # parent's actions without building them again.
    genus = argparse.ArgumentParser(add_help=False)
    genus.add_argument("--genus", help="genus or range A-B")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--output", help="write to this path; a regular file is replaced atomically")
    common.add_argument("--mode", type=_mode, choices=("CM", "smooth"))

    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, run, help):
        # the genus plays no part in Schur evaluation
        parents = [common] if name == "schur-eval" else [genus, common]
        sub = subs.add_parser(name, help=help, parents=parents)
        sub.set_defaults(run=run)
        return sub

    add("semigroups", run_semigroups, "enumerate numerical semigroups")

    sp = add("class", run_class, "Weierstrass or virtual cycle class")
    sp.add_argument("--gaps", help="comma-separated gap list")
    sp.add_argument("--partition", help="comma-separated partition (virtual class)")
    sp.add_argument("--unshifted", action="store_true", default=None)
    sp.add_argument("--kappa0-substitute", action="store_true", default=None)

    sp = add("pullback", run_pullback, "Schubert-class pullback")
    sp.add_argument("--partition", required=True)

    sp = add("psum", run_psum, "power-sum pullback")
    sp.add_argument("--power", type=int, required=True)
    sp.add_argument("--paper-sign", action="store_true", default=None)

    sp = add("relations", run_relations, "relation ideal generators")
    sp.add_argument("--max-weight", dest="max_degree", type=int)

    sp = add("hilbert", run_hilbert, "Hilbert sandwich table")
    sp.add_argument("--max-degree", type=int)

    sp = add("schur-eval", run_schur_eval, "evaluate a Schur polynomial")
    sp.set_defaults(genus="1")  # echoed in the envelope; no file or flag changes it
    sp.add_argument("--kind", choices=("factorial", "shifted"), default="shifted")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--values", help="comma-separated rational arguments")
    sp.add_argument("--variables", type=int, help="number of symbolic arguments")

    return parser


def _joined_values(argv: list[str]) -> list[str]:
    """argv with "--values V" written "--values=V" where V is "-" and then a
    digit or ".": argparse takes such a V for an option unless it is a plain
    negative number, so "--values -1,2" would stop as a usage error.  The
    flag may be any of VALUES_FLAGS.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in VALUES_FLAGS and token[:1] == "-" and token[1:2] in tuple("0123456789."):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        build_config(args)
        payload, warnings, table = args.run(args)
        envelope = make_envelope(args, payload, warnings)
        with contextlib.suppress(BrokenPipeError):
            _emit(envelope, args, table)
        return 0
    except UsageError as exc:
        print(f"wtaut: usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"wtaut: resource error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # DataError is a ValueError
        print(f"wtaut: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # Move the 13,100 objects the imports leave out of the collector's reach,
    # so that the full collections at interpreter shutdown, 2-3 ms each, pass
    # them by.  A genus-6 class run fell from 77.3 to 71.3 ms of wall time
    # (medians of 60 alternating runs, Python 3.11.7, 2 vCPUs).  Freezing
    # here, not in main, leaves the heap of a caller of main() alone.
    gc.freeze()
    sys.exit(main())
