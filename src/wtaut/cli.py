"""Command-line surface: deterministic JSON/CSV/LaTeX reports.

Subcommands: semigroups, class, pullback, psum, relations, hilbert,
schur-eval.  Exit codes: 0 success, 2 usage, 3 data, 4 resource.  The
genus safety cap honours the WTAUT_MAX_GENUS environment variable, and a
key=value config file can pre-set any long option (explicit flags win).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import DataError, ResourceError, UsageError
from .exactalg import MultiPoly, xvar
from .pullback import kstar_power_sum, kstar_schubert, mumford_reduce, smooth_power_sum
from .schur import factorial_schur, generic_arguments, in_roots, shifted_schur
from .semigroups import (
    DEFAULT_MAX_GENUS,
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
    semigroup_record,
)
from .tautring import relation_generators, sandwich_report
from .wcycles import push_to_unpointed, virtual_class, weierstrass_class

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
FORMATS = ("json", "csv", "latex")

KAPPA_INDEX_NOTE = (
    "odd power sums carry kappa_(2r-1); the published index 2r is off by one in degree"
)
EVEN_SIGN_NOTE = (
    "even power sums use the derived negative sign; pass --paper-sign for the published form"
)
UNSHIFTED_NOTE = "unshifted evaluation differs from the divisor-normalized convention"
LOWER_RING_NOTE = (
    "lower bound is computed in Q[lambda_1..lambda_g, psi]; psi is kept in the quotient"
)


class RunConfig(NamedTuple):
    """Effective options for one run."""

    genus_low: int
    genus_high: int
    max_degree: int = 6
    mode: str = "CM"
    fmt: str = "json"
    unshifted: bool = False
    paper_sign: bool = False
    kappa0_substitute: bool = False
    output: str | None = None
    max_genus: int = DEFAULT_MAX_GENUS
    source_date: time.struct_time | None = None

    def echo(self) -> dict:
        return {
            "genus": self.genus_low
            if self.genus_low == self.genus_high
            else f"{self.genus_low}-{self.genus_high}",
            "max_degree": self.max_degree,
            "mode": self.mode,
            "format": self.fmt,
            "unshifted": self.unshifted,
            "paper_sign": self.paper_sign,
            "kappa0_substitute": self.kappa0_substitute,
        }


def _source_date() -> time.struct_time | None:
    """The UTC time SOURCE_DATE_EPOCH names, if set, so that envelopes are reproducible.

    Years past 9999 are refused: the stamp writes the year in four digits.
    """
    text = os.environ.get("SOURCE_DATE_EPOCH")
    if not text:
        return None
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"bad SOURCE_DATE_EPOCH {text[:20]!r}: not a count of seconds")
    try:
        stamp = time.gmtime(int(text))
    except (ValueError, OverflowError, OSError) as exc:
        raise DataError(f"bad SOURCE_DATE_EPOCH {text[:20]!r}: {exc}") from exc
    if stamp.tm_year > 9999:
        raise DataError(f"bad SOURCE_DATE_EPOCH {text[:20]!r}: year {stamp.tm_year} is out of range")
    return stamp


def make_envelope(command: str, config: RunConfig, payload, warnings: list[str]) -> dict:
    return {
        "tool": "wtaut",
        "version": __version__,
        "command": command,
        "config": config.echo(),
        "warnings": sorted(warnings),
        "payload": payload,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", config.source_date or time.gmtime()),
    }


def _parse_genus(text: str) -> tuple[int, int]:
    if "-" in text.lstrip("-"):
        head, _, tail = text.partition("-") if not text.startswith("-") else (text, "", "")
        if head and tail:
            low, high = int(head), int(tail)
            if low > high:
                raise argparse.ArgumentTypeError("empty genus range")
            return low, high
    value = int(text)
    return value, value


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(piece) for piece in text.split(",")]


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_KEYS = {
    "genus": str,
    "max_degree": int,
    "mode": str,
    "format": str,
    "output": str,
    "unshifted": lambda v: v.lower() in ("1", "true", "yes"),
    "paper_sign": lambda v: v.lower() in ("1", "true", "yes"),
    "kappa0_substitute": lambda v: v.lower() in ("1", "true", "yes"),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, conv in _CONFIG_KEYS.items():
            if key in raw:
                file_values[key] = conv(raw[key])

    def pick(name: str, default):
        cli_value = getattr(args, name, None)
        if cli_value is not None and cli_value is not False:
            return cli_value
        if name in file_values:
            return file_values[name]
        return default

    genus_text = pick("genus", None)
    if genus_text is None:
        raise UsageError("a genus is required")
    try:
        low, high = _parse_genus(str(genus_text))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad genus {genus_text!r}: {exc}") from exc
    max_genus = int(os.environ.get("WTAUT_MAX_GENUS", DEFAULT_MAX_GENUS))
    if high > max_genus:
        raise ResourceError(
            f"genus {high} exceeds the cap {max_genus}; raise WTAUT_MAX_GENUS to override"
        )
    if low < 0:
        raise UsageError("genus must be non-negative")
    config = RunConfig(
        genus_low=low,
        genus_high=high,
        max_degree=int(pick("max_degree", 6)),
        mode=str(pick("mode", "CM")).upper().replace("SMOOTH", "smooth"),
        fmt=str(pick("format", "json")),
        unshifted=bool(pick("unshifted", False)),
        paper_sign=bool(pick("paper_sign", False)),
        kappa0_substitute=bool(pick("kappa0_substitute", False)),
        output=pick("output", None),
        max_genus=max_genus,
        source_date=_source_date(),
    )
    if config.mode not in ("CM", "smooth"):
        raise DataError("mode must be CM or smooth")
    if config.fmt not in FORMATS:
        raise DataError(f"format must be one of {', '.join(FORMATS)}, not {config.fmt!r}")
    if config.max_degree < 1:
        raise DataError("the degree cutoff must be at least 1")
    if config.max_degree > MAX_DEGREE_CAP:
        raise ResourceError(
            f"degree cutoff {config.max_degree} too large; use at most {MAX_DEGREE_CAP}"
        )
    return config


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

    A MultiPoly is written as the object {"terms": [{"coeff", "exps"},
    ...], "text": canonical_str()}, both from one walk over its sorted
    terms.  Besides MultiPoly it knows str, int, bool, None, lists and
    dicts with str keys; anything else raises TypeError.
    """
    chunks: list[str] = []
    _json_chunks(obj, "\n", chunks)
    return "".join(chunks)


def _json_chunks(obj, nl: str, out: list[str]) -> None:
    """Append the text of obj to out; nl is the line break and indent of its line."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, MultiPoly):
        out.append(_poly_json(obj, nl))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
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


def _poly_json(p: MultiPoly, nl: str) -> str:
    """The {"terms", "text"} object of p; its records and text come from one walk."""
    i1, i2, i3, i4 = (nl + "  " * k for k in range(1, 5))
    records, pieces = [], []
    for coeff, pairs, piece in p.rendered_terms():
        exps = ",".join([f"{i4}{encode_basestring_ascii(name)}: {e}" for name, e in pairs])
        exps = f"{{{exps}{i3}}}" if exps else "{}"
        records.append(f'{i2}{{{i3}"coeff": {encode_basestring_ascii(coeff)},{i3}"exps": {exps}{i2}}}')
        pieces.append(piece)
    terms = f"[{','.join(records)}{i1}]" if records else "[]"
    text = encode_basestring_ascii(MultiPoly.joined_text(pieces))
    return f'{{{i1}"terms": {terms},{i1}"text": {text}{nl}}}'


def _latex_table(headers: list[str], rows: list[list[str]], caption: str) -> str:
    lines = ["\\begin{table}", f"% {caption}", "\\begin{tabular}{" + "l" * len(headers) + "}"]
    lines.append(" & ".join(headers) + " \\\\ \\hline")
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.extend(["\\end{tabular}", "\\end{table}"])
    return "\n".join(lines) + "\n"


def _csv_lines(headers: list[str], rows: list[list[str]], meta: dict) -> str:
    import csv  # only CSV output needs it: at the top every run would pay for it

    out = io.StringIO()
    out.writelines(f"# {k}={v}\n" for k, v in sorted(meta.items()))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


# -- subcommand payloads -----------------------------------------------------


def _x_roots(g: int) -> tuple:
    """x_1..x_g, the Chern roots of the dual Hodge bundle."""
    return tuple(xvar(i) for i in range(1, g + 1))


def run_semigroups(config: RunConfig):
    payload = []
    for g in range(config.genus_low, config.genus_high + 1):
        records = [semigroup_record(h) for h in enumerate_semigroups(g, config.max_genus)]
        payload.append({"genus": g, "count": len(records), "semigroups": records})
    warnings: list[str] = []

    def tables():
        rows = [
            [str(rec["genus"]), "{" + " ".join(map(str, rec["gaps"])) + "}",
             " ".join(map(str, rec["sequence_head"])),
             " ".join(map(str, rec["partition_hprime"]))]
            for block in payload
            for rec in block["semigroups"]
        ]
        return ["genus", "gaps", "sequence_head", "partition"], rows, {"genus": config.echo()["genus"]}

    return payload, warnings, tables


def run_class(config: RunConfig, gaps: list[int] | None, partition: list[int] | None):
    if (gaps is None) == (partition is None):
        raise DataError("choose exactly one selector: --gaps or --partition")
    payload = []
    warnings = ["normalization: up-to-constant"]
    if config.unshifted:
        warnings.append(UNSHIFTED_NOTE)
    for g in range(config.genus_low, config.genus_high + 1):
        if gaps is not None:
            semigroup = NumericalSemigroup.from_gaps(gaps)
            if semigroup.genus != g:
                raise DataError(
                    f"gap list has genus {semigroup.genus}, not the requested {g}"
                )
            cycle = weierstrass_class(semigroup, unshifted=config.unshifted)
        else:
            cycle = virtual_class(Partition.of(partition), g, unshifted=config.unshifted)
        record = cycle.record()
        record["class_unpointed"] = push_to_unpointed(
            cycle, substitute_kappa0=config.kappa0_substitute
        )
        record["genus"] = g
        payload.append(record)

    def tables():
        rows = [
            [
                str(rec["genus"]),
                "{" + " ".join(map(str, rec["gaps"] or [])) + "}" if rec["gaps"] else "-",
                "(" + ",".join(map(str, rec["partition"])) + ")",
                str(rec["codim"]),
                rec["class_pointed"].latex(),
                rec["class_unpointed"].latex(),
            ]
            for rec in payload
        ]
        headers = ["genus", "gaps", "partition", "codim", "pointed class", "unpointed class"]
        return headers, rows, {"normalization": "up-to-constant"}

    return payload, warnings, tables


def run_pullback(config: RunConfig, partition: list[int]):
    mu = Partition.of(partition)
    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("pullback needs genus at least 1")
        value = kstar_schubert(mu, g)
        payload.append(
            {
                "genus": g,
                "partition": list(mu),
                "weight": mu.weight,
                "mode": config.mode,
                "value_x": in_roots(value, _x_roots(g)),  # of the class before any reduction
                "value_lambda": mumford_reduce(value, g) if config.mode == "smooth" else value,
            }
        )

    def tables():
        parts = "(" + ",".join(map(str, mu)) + ")"
        rows = [[str(rec["genus"]), parts, rec["value_lambda"].latex()] for rec in payload]
        return ["genus", "partition", "class"], rows, {"mode": config.mode}

    return payload, warnings, tables


def run_psum(config: RunConfig, power: int):
    if power < 1:
        raise DataError("the power must be at least 1")
    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("power sums need genus at least 1")
        value = kstar_power_sum(power, g)
        record = {
            "genus": g,
            "power": power,
            "mode": config.mode,
            "value_x": in_roots(value, _x_roots(g)),
            "value_lambda": value,
        }
        if config.mode == "smooth":
            record["value_kappa_psi"] = smooth_power_sum(power, g, paper_sign=config.paper_sign)
            if power % 2:
                warnings.append(KAPPA_INDEX_NOTE)
            else:
                warnings.append(EVEN_SIGN_NOTE)
        payload.append(record)

    def tables():
        rows = [[str(rec["genus"]), str(power), rec["value_lambda"].latex()] for rec in payload]
        return ["genus", "power", "class"], rows, {"mode": config.mode}

    return payload, list(set(warnings)), tables


def run_relations(config: RunConfig):
    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("relations need genus at least 1")
        payload.append(
            {
                "genus": g,
                "max_weight": config.max_degree,
                "generators": [
                    {
                        "partition": list(mu),
                        "weight": mu.weight,
                        "value": poly,
                    }
                    for mu, poly in relation_generators(g, config.max_degree)
                ],
            }
        )

    def tables():
        rows = [
            [
                "(" + ",".join(map(str, gen["partition"])) + ")",
                str(gen["weight"]),
                gen["value"].latex(),
            ]
            for block in payload
            for gen in block["generators"]
        ]
        return ["partition", "weight", "relation"], rows, {}

    return payload, warnings, tables


def run_hilbert(config: RunConfig):
    payload = []
    warnings = [LOWER_RING_NOTE]
    for g in range(config.genus_low, config.genus_high + 1):
        report = sandwich_report(g, config.max_degree, config.max_genus)
        payload.append(
            {
                "genus": g,
                "max_degree": config.max_degree,
                "rows": report.rows(),
                "generator_counts": list(report.generator_counts),
            }
        )

    def tables():
        rows = [
            [str(block["genus"]), str(r["degree"]), str(r["lower"]), str(r["upper"])]
            for block in payload
            for r in block["rows"]
        ]
        meta = {"max_degree": config.max_degree, "genus": config.echo()["genus"]}
        return ["genus", "degree", "lower", "upper"], rows, meta

    return payload, warnings, tables


def run_schur_eval(config: RunConfig, kind: str, partition: list[int],
                   values: list[str] | None, variables: int | None):
    mu = Partition.of(partition)
    if (values is None) == (variables is None):
        raise DataError("choose exactly one of --values or --variables")
    if values is not None and len(values) > MAX_SCHUR_VALUES:
        raise ResourceError(f"{len(values)} values; use at most {MAX_SCHUR_VALUES}")
    if variables is not None and variables < 0:
        raise DataError(f"{variables} variables; the count must not be negative")
    if variables is not None and variables > MAX_SCHUR_VARIABLES:
        raise ResourceError(f"{variables} variables; use at most {MAX_SCHUR_VARIABLES}")
    try:
        args = [Fraction(v) for v in values] if values is not None else generic_arguments(variables)
    except ZeroDivisionError as exc:  # Fraction("1/0")
        raise DataError(f"a value has a zero denominator: {exc}") from None
    fn = factorial_schur if kind == "factorial" else shifted_schur
    result = fn(mu, args)
    payload = {
        "kind": kind,
        "partition": list(mu),
        "arguments": [str(v) for v in values] if values is not None else f"z1..z{variables}",
        "value": result,
    }

    def tables():
        rows = [[kind, "(" + ",".join(map(str, mu)) + ")", result.latex()]]
        return ["kind", "partition", "value"], rows, {}

    return payload, [], tables


# -- driver ------------------------------------------------------------------


def _emit(envelope: dict, config: RunConfig, tables) -> None:
    """Write the envelope as JSON, or the rows of tables() as CSV or LaTeX.

    tables is a zero-argument callable returning (headers, rows, meta),
    so JSON output never builds the rows.
    """
    with _exact_digits():
        if config.fmt == "json":
            text = json_text(envelope) + "\n"
        elif config.fmt == "csv":
            headers, rows, meta = tables()
            text = _csv_lines(headers, rows, meta)
        else:
            headers, rows, meta = tables()
            text = _latex_table(headers, rows, caption=envelope["command"])
    if config.output:
        _write_output(Path(config.output), text)
    else:
        sys.stdout.write(text)


def _write_output(target: Path, text: str) -> None:
    """Replace target whole by text, with the mode the umask gives a new file."""
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".wtaut-")
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, target)
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
    parser.add_argument("--config", help="key=value config file; flags win")

    def add_common(sub):
        sub.add_argument("--genus", help="genus or range A-B")
        sub.add_argument("--format", dest="format", choices=FORMATS)
        sub.add_argument("--output", help="write to this path (atomically)")
        sub.add_argument("--mode", choices=("CM", "smooth"))

    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("semigroups", help="enumerate numerical semigroups")
    add_common(sp)

    sp = subs.add_parser("class", help="Weierstrass or virtual cycle class")
    add_common(sp)
    sp.add_argument("--gaps", help="comma-separated gap list")
    sp.add_argument("--partition", help="comma-separated partition (virtual class)")
    sp.add_argument("--unshifted", action="store_true", default=None)
    sp.add_argument("--kappa0-substitute", dest="kappa0_substitute",
                    action="store_true", default=None)

    sp = subs.add_parser("pullback", help="Schubert-class pullback")
    add_common(sp)
    sp.add_argument("--partition", required=True)

    sp = subs.add_parser("psum", help="power-sum pullback")
    add_common(sp)
    sp.add_argument("--power", type=int, required=True)
    sp.add_argument("--paper-sign", dest="paper_sign", action="store_true", default=None)

    sp = subs.add_parser("relations", help="relation ideal generators")
    add_common(sp)
    sp.add_argument("--max-weight", dest="max_degree", type=int)

    sp = subs.add_parser("hilbert", help="Hilbert sandwich table")
    add_common(sp)
    sp.add_argument("--max-degree", dest="max_degree", type=int)

    sp = subs.add_parser("schur-eval", help="evaluate a Schur polynomial")
    add_common(sp)
    sp.add_argument("--kind", choices=("factorial", "shifted"), default="shifted")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--values", help="comma-separated rational arguments")
    sp.add_argument("--variables", type=int, help="number of symbolic arguments")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "schur-eval" and getattr(args, "genus", None) is None:
            args.genus = "1"  # genus is irrelevant for plain Schur evaluation
        config = build_config(args)
        if args.subcommand == "semigroups":
            payload, warnings, tables = run_semigroups(config)
        elif args.subcommand == "class":
            gaps = _parse_int_list(args.gaps) if args.gaps else None
            partition = _parse_int_list(args.partition) if args.partition else None
            payload, warnings, tables = run_class(config, gaps, partition)
        elif args.subcommand == "pullback":
            payload, warnings, tables = run_pullback(config, _parse_int_list(args.partition))
        elif args.subcommand == "psum":
            payload, warnings, tables = run_psum(config, args.power)
        elif args.subcommand == "relations":
            payload, warnings, tables = run_relations(config)
        elif args.subcommand == "hilbert":
            payload, warnings, tables = run_hilbert(config)
        elif args.subcommand == "schur-eval":
            values = args.values.split(",") if args.values else None
            payload, warnings, tables = run_schur_eval(
                config, args.kind, _parse_int_list(args.partition), values, args.variables
            )
        else:  # pragma: no cover
            parser.error(f"unknown subcommand {args.subcommand}")
            return 2
        envelope = make_envelope(args.subcommand, config, payload, warnings)
        try:
            _emit(envelope, config, tables)
        except BrokenPipeError:
            return 0
        return 0
    except UsageError as exc:
        print(f"wtaut: usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"wtaut: resource error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"wtaut: data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"wtaut: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
