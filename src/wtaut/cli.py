"""Command-line surface: deterministic JSON/CSV/LaTeX reports.

Subcommands: semigroups, class, pullback, psum, relations, hilbert,
schur-eval.  Exit codes: 0 success, 2 usage, 3 data, 4 resource.  The
genus safety cap honours the WTAUT_MAX_GENUS environment variable, and a
key=value config file can pre-set any long option (explicit flags win).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import DataError, ResourceError, UsageError
from .exactalg import MultiPoly
from .pullback import kstar_power_sum, kstar_schubert, mumford_reduce, smooth_power_sum
from .schur import factorial_schur, generic_arguments, shifted_schur
from .semigroups import (
    DEFAULT_MAX_GENUS,
    NumericalSemigroup,
    Partition,
    enumerate_semigroups,
    semigroup_record,
)
from .tautring import sandwich_report
from .wcycles import push_to_unpointed, virtual_class, weierstrass_class

MAX_DEGREE_CAP = 16

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


@dataclass
class RunConfig:
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
    extra: dict = field(default_factory=dict)

    def echo(self) -> dict:
        data = {
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
        data.update(self.extra)
        return data


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def make_envelope(command: str, config: RunConfig, payload, warnings: list[str]) -> dict:
    return {
        "tool": "wtaut",
        "version": __version__,
        "command": command,
        "config": config.echo(),
        "warnings": sorted(warnings),
        "payload": payload,
        "generated_at": _utc_now(),
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
    values: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
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
    )
    if config.mode not in ("CM", "smooth"):
        raise DataError("mode must be CM or smooth")
    if config.max_degree < 1:
        raise DataError("the degree cutoff must be at least 1")
    if config.max_degree > MAX_DEGREE_CAP:
        raise ResourceError(
            f"degree cutoff {config.max_degree} too large; use at most {MAX_DEGREE_CAP}"
        )
    return config


# -- polynomial rendering ----------------------------------------------------


def poly_payload(p: MultiPoly) -> dict:
    return {"text": p.canonical_str(), "terms": p.to_json()}


def _latex_table(headers: list[str], rows: list[list[str]], caption: str) -> str:
    lines = ["\\begin{table}", f"% {caption}", "\\begin{tabular}{" + "l" * len(headers) + "}"]
    lines.append(" & ".join(headers) + " \\\\ \\hline")
    for row in rows:
        lines.append(" & ".join(row) + " \\\\")
    lines.extend(["\\end{tabular}", "\\end{table}"])
    return "\n".join(lines) + "\n"


def _csv_lines(headers: list[str], rows: list[list[str]], meta: dict) -> str:
    out = io.StringIO()
    out.writelines(f"# {k}={v}\n" for k, v in sorted(meta.items()))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return out.getvalue()


# -- subcommand payloads -----------------------------------------------------


def run_semigroups(config: RunConfig):
    payload = []
    for g in range(config.genus_low, config.genus_high + 1):
        records = [semigroup_record(h) for h in enumerate_semigroups(g, config.max_genus)]
        payload.append({"genus": g, "count": len(records), "semigroups": records})
    warnings: list[str] = []
    table_rows = [
        [str(rec["genus"]), "{" + " ".join(map(str, rec["gaps"])) + "}",
         " ".join(map(str, rec["sequence_head"])),
         " ".join(map(str, rec["partition_hprime"]))]
        for block in payload
        for rec in block["semigroups"]
    ]
    tables = (
        ["genus", "gaps", "sequence_head", "partition"],
        table_rows,
        {"genus": config.echo()["genus"]},
    )
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
        record["class_pointed"] = poly_payload(cycle.class_pointed)
        unpointed = push_to_unpointed(cycle, substitute_kappa0=config.kappa0_substitute)
        record["class_unpointed"] = poly_payload(unpointed)
        record["genus"] = g
        payload.append(record)
    rows = [
        [
            str(rec["genus"]),
            "{" + " ".join(map(str, rec["gaps"] or [])) + "}" if rec["gaps"] else "-",
            "(" + ",".join(map(str, rec["partition"])) + ")",
            str(rec["codim"]),
            MultiPoly.from_json(rec["class_pointed"]["terms"]).latex(),
            MultiPoly.from_json(rec["class_unpointed"]["terms"]).latex(),
        ]
        for rec in payload
    ]
    tables = (
        ["genus", "gaps", "partition", "codim", "pointed class", "unpointed class"],
        rows,
        {"normalization": "up-to-constant"},
    )
    return payload, warnings, tables


def run_pullback(config: RunConfig, partition: list[int]):
    mu = Partition.of(partition)
    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("pullback needs genus at least 1")
        cls = kstar_schubert(mu, g)
        value_lambda = cls.value_lambda
        if config.mode == "smooth":
            value_lambda = mumford_reduce(value_lambda, g)
        payload.append(
            {
                "genus": g,
                "partition": list(mu.parts),
                "weight": mu.weight,
                "mode": config.mode,
                "value_x": poly_payload(cls.value_x),
                "value_lambda": poly_payload(value_lambda),
            }
        )
    rows = [
        [str(rec["genus"]), "(" + ",".join(map(str, rec["partition"])) + ")",
         MultiPoly.from_json(rec["value_lambda"]["terms"]).latex()]
        for rec in payload
    ]
    return payload, warnings, (["genus", "partition", "class"], rows, {"mode": config.mode})


def run_psum(config: RunConfig, power: int):
    if power < 1:
        raise DataError("the power must be at least 1")
    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("power sums need genus at least 1")
        record = {"genus": g, "power": power, "mode": config.mode}
        cls = kstar_power_sum(power, g)
        record["value_x"] = poly_payload(cls.value_x)
        record["value_lambda"] = poly_payload(cls.value_lambda)
        if config.mode == "smooth":
            value = smooth_power_sum(power, g, paper_sign=config.paper_sign)
            record["value_kappa_psi"] = poly_payload(value)
            if power % 2:
                warnings.append(KAPPA_INDEX_NOTE)
            else:
                warnings.append(EVEN_SIGN_NOTE)
        payload.append(record)
    rows = [
        [str(rec["genus"]), str(power),
         MultiPoly.from_json(rec["value_lambda"]["terms"]).latex()]
        for rec in payload
    ]
    return payload, list(set(warnings)), (["genus", "power", "class"], rows, {"mode": config.mode})


def run_relations(config: RunConfig):
    from .tautring import relation_generators

    payload = []
    warnings: list[str] = []
    for g in range(config.genus_low, config.genus_high + 1):
        if g < 1:
            raise DataError("relations need genus at least 1")
        gens = relation_generators(g, config.max_degree)
        payload.append(
            {
                "genus": g,
                "max_weight": config.max_degree,
                "generators": [
                    {
                        "partition": list(mu.parts),
                        "weight": mu.weight,
                        "value": poly_payload(poly),
                    }
                    for mu, poly in gens
                ],
            }
        )
    rows = [
        ["(" + ",".join(map(str, rec["partition"])) + ")", str(rec["weight"]),
         MultiPoly.from_json(rec["value"]["terms"]).latex()]
        for block in payload
        for rec in block["generators"]
    ]
    return payload, warnings, (["partition", "weight", "relation"], rows, {})


def run_hilbert(config: RunConfig):
    payload = []
    warnings = [LOWER_RING_NOTE]
    for g in range(config.genus_low, config.genus_high + 1):
        report = sandwich_report(g, config.max_degree)
        payload.append(
            {
                "genus": g,
                "max_degree": config.max_degree,
                "rows": report.rows(),
                "generator_counts": list(report.generator_counts),
            }
        )
    rows = [
        [str(block["genus"]), str(r["degree"]), str(r["lower"]), str(r["upper"])]
        for block in payload
        for r in block["rows"]
    ]
    meta = {"max_degree": config.max_degree, "genus": config.echo()["genus"]}
    return payload, warnings, (["genus", "degree", "lower", "upper"], rows, meta)


def run_schur_eval(config: RunConfig, kind: str, partition: list[int],
                   values: list[str] | None, variables: int | None):
    mu = Partition.of(partition)
    if (values is None) == (variables is None):
        raise DataError("choose exactly one of --values or --variables")
    if values is not None:
        args = [Fraction(v) for v in values]
    else:
        args = generic_arguments(variables)
    fn = factorial_schur if kind == "factorial" else shifted_schur
    result = fn(mu, args)
    payload = {
        "kind": kind,
        "partition": list(mu.parts),
        "arguments": [str(v) for v in values] if values is not None else f"z1..z{variables}",
        "value": poly_payload(result),
    }
    rows = [[kind, "(" + ",".join(map(str, mu.parts)) + ")", result.latex()]]
    return payload, [], (["kind", "partition", "value"], rows, {})


# -- driver ------------------------------------------------------------------


def _emit(envelope: dict, config: RunConfig, tables) -> None:
    if config.fmt == "json":
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    elif config.fmt == "csv":
        headers, rows, meta = tables
        text = _csv_lines(headers, rows, meta)
    elif config.fmt == "latex":
        headers, rows, meta = tables
        text = _latex_table(headers, rows, caption=envelope["command"])
    else:
        raise DataError(f"unknown format {config.fmt!r}")
    if config.output:
        target = Path(config.output)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), prefix=".wtaut-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtaut",
        description="Exact Weierstrass-cycle and tautological-ring calculator.",
    )
    parser.add_argument("--config", help="key=value config file; flags win")

    def add_common(sub):
        sub.add_argument("--genus", help="genus or range A-B")
        sub.add_argument("--format", dest="format", choices=("json", "csv", "latex"))
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
