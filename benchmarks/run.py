"""The wtaut benchmark: whole CLI runs, timed from outside and checked.

Usage (from the repository root):

    python3 benchmarks/run.py --workload hilbert-g3-d12 --seed 1 --seconds 15 --trace 0

Each CLI invocation runs in a fresh child process, one at a time from a
single client (a closed loop).  A pass runs every invocation of the
workload once, in the order the seed picks; passes repeat until
--seconds have gone by, and the median pass is reported.

The benchmark needs 2 CPUs.  On the shared host it was made on, the
speed of both changes by up to a half within minutes, and by a quarter
from one second to the next; times taken one after the other do not
follow each other.  So a probe process, pinned to the second CPU, does a
fixed piece of exact arithmetic (no wtaut code) over and over while the
benchmark runs and counts the pieces, and everything timed runs pinned
to the first CPU.  wall_s and setup_s scale each timed interval by the
probe's rate during it over PROBE_RATE: they read as seconds on a host
where the probe does PROBE_RATE pieces a second.  The unscaled times are
printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced passes with traced ones (benchmarks/traced_cli.py, spans
around each layer's entry point) and reports the per-layer metrics,
including the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import (
    Invocation,
    build_workloads,
    load_references,
    ordered,
    passes_check,
    setup_invocation,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_CLI = HERE / "traced_cli.py"

# Setup time is the median of runs of the no-maths invocation, this many
# before each pass and after the last, so they span the run as the passes do.
SETUP_BATCH = 4

# The probe's median rate beside the workloads on the host the benchmark
# was defined on: 2 vCPUs, Python 3.11.7.
PROBE_RATE = 320.0

_RANK = "wall_s on hilbert-g3-d12; about flat on hilbert-g5-d10; absent on the other two"
_RELGEN = "wall_s on hilbert-g5-d10"
_PULLBACK = (
    "wall_s and peak_rss_mb on classes-g6 and pullback-smooth-g6, wall_s on hilbert-g5-d10; "
    "about flat on hilbert-g3-d12"
)
_MUMFORD = "wall_s on pullback-smooth-g6 only"
_CACHE = "explains moves in pullback.*"

# Per-layer metric of BENCHMARK.json -> the span or cache it is read from
# (None: derived from the pass) and the end-to-end metric and workload it
# should move.
LAYER_METRICS = {
    "exactalg.rank_s": ("exactalg.rank", _RANK),
    "exactalg.rank_calls": ("exactalg.rank", _RANK),
    "exactalg.rank_cells": ("exactalg.rank", _RANK),
    "exactalg.rank_yield": ("exactalg.rank", _RANK),
    "tautring.relgen_s": ("tautring.relgen", _RELGEN),
    "tautring.relgen_calls": ("tautring.relgen", _RELGEN),
    "tautring.upper_s": ("tautring.upper", _RELGEN),
    "tautring.lower_s": ("tautring.lower", _RELGEN),
    "pullback.homogenize_s": ("pullback.homogenize", _PULLBACK),
    "pullback.homogenize_calls": ("pullback.homogenize", _PULLBACK),
    "pullback.xroot_terms": ("pullback.homogenize", _PULLBACK),
    "pullback.to_lambda_s": ("pullback.to_lambda", _PULLBACK),
    "pullback.lambda_terms": ("pullback.to_lambda", _PULLBACK),
    "pullback.kstar_s": ("pullback.kstar", _PULLBACK),
    "pullback.kstar_calls": ("pullback.kstar", _PULLBACK),
    "wcycles.class_s": ("wcycles.class", _PULLBACK),
    "wcycles.class_calls": ("wcycles.class", _PULLBACK),
    "pullback.mumford_s": ("pullback.mumford", _MUMFORD),
    "pullback.mumford_calls": ("pullback.mumford", _MUMFORD),
    "cli.self_s": ("cli", "wall_s, output_mb and peak_rss_mb on pullback-smooth-g6"),
    "cli.startup_s": (None, "setup_s on every workload, wall_s on classes-g6"),
    "semigroups.enumerate_s": ("semigroups.enumerate", "none expected; reported so that a regression shows"),
    "cache.t_mu_hit_ratio": ("cache.t_mu", _CACHE),
    "cache.eprod_hit_ratio": ("cache.eprod", _CACHE),
    "cache.mumford_hit_ratio": ("cache.mumford", _CACHE),
    "trace.overhead_ratio": (None, "none; the cost of tracing itself"),
}


@dataclass
class Child:
    wall: float
    rss_kb: int
    ok: bool
    output_bytes: int
    trace: dict | None = None


@dataclass
class Pass:
    wall: float = 0.0
    peak_rss_kb: int = 0
    output_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    trace: dict = field(default_factory=lambda: {"spans": {}, "absent": set(), "caches": {}})

    def add(self, child: Child) -> None:
        self.wall += child.wall
        self.peak_rss_kb = max(self.peak_rss_kb, child.rss_kb)
        self.output_bytes += child.output_bytes
        self.attempted += 1
        self.failed += not child.ok
        if child.trace is not None:
            merge_trace(self.trace, child.trace)


def merge_trace(into: dict, trace: dict) -> None:
    for name, stat in trace["spans"].items():
        agg = into["spans"].setdefault(name, {})
        for key, value in stat.items():
            agg[key] = agg.get(key, 0) + value
    into["absent"].update(trace["absent"])
    for name, counts in trace["caches"].items():
        prev = into["caches"].get(name, [0, 0])
        into["caches"][name] = (
            None if counts is None or prev is None else [prev[0] + counts[0], prev[1] + counts[1]]
        )


def _probe_loop(parent: int, cpu: int, count) -> None:
    """Dict and Fraction arithmetic, as wtaut does, until the parent is gone."""
    os.sched_setaffinity(0, {cpu})
    while os.getppid() == parent:
        acc: dict = {}
        for i in range(600):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 11)
        count.value += 1


class Probe:
    """Pins this process to one CPU and a probe process to another (see the module docstring)."""

    def __enter__(self) -> "Probe":
        work_cpu, probe_cpu = sorted(os.sched_getaffinity(0))[:2]
        ctx = multiprocessing.get_context("fork")
        self.count = ctx.RawValue("Q", 0)
        self.proc = ctx.Process(
            target=_probe_loop, args=(os.getpid(), probe_cpu, self.count), daemon=True
        )
        self.proc.start()
        os.sched_setaffinity(0, {work_cpu})  # child processes inherit it
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.join()

    def mark(self) -> tuple[float, int]:
        return perf_counter(), self.count.value

    def scaled(self, wall: float, since: tuple[float, int]) -> float:
        """wall, taken since the mark, at the speed where the probe does PROBE_RATE pieces a second."""
        now, count = self.mark()
        return wall * (count - since[1]) / (now - since[0]) / PROBE_RATE


class Runner:
    """Runs CLI invocations as child processes of this one, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, invocation: Invocation, traced: bool = False) -> Child:
        if traced:
            read_fd, write_fd = os.pipe()
            cmd = [sys.executable, str(TRACED_CLI), str(write_fd), *invocation.argv]
            fds = (write_fd,)
        else:
            cmd = [sys.executable, "-m", "wtaut.cli", *invocation.argv]
            fds = ()
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=self.env, cwd=self.root, pass_fds=fds
        )
        try:
            if traced:
                os.close(write_fd)
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = passes_check(invocation, proc.returncode, stdout)
        trace = None
        if traced:
            with os.fdopen(read_fd, "rb") as fh:
                raw = fh.read()
            try:
                trace = json.loads(raw)
            except ValueError:
                ok = False
        return Child(wall, usage.ru_maxrss, ok, len(stdout), trace)

    def run_pass(self, invocations: list[Invocation], traced: bool = False) -> Pass:
        result = Pass()
        for invocation in invocations:
            result.add(self.run(invocation, traced))
        return result


def _stat(trace: dict, span: str, key: str):
    """A span's total over the pass; None when its function is gone or never ran."""
    stat = trace["spans"].get(span)
    return None if stat is None else stat.get(key)


def _ratio(num, den):
    return num / den if num is not None and den else None


def _hit_ratio(counts):
    return None if counts is None else _ratio(counts[0], counts[0] + counts[1])


def layer_values(p: Pass, untraced_wall: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None marks an absent metric."""
    t = p.trace
    main_s = _stat(t, "cli", "total_s")
    rank = "exactalg.rank"
    values = {
        "exactalg.rank_cells": _stat(t, rank, "cells"),
        "exactalg.rank_yield": _ratio(_stat(t, rank, "rank"), _stat(t, rank, "rows")),
        "pullback.xroot_terms": _stat(t, "pullback.homogenize", "terms"),
        "pullback.lambda_terms": _stat(t, "pullback.to_lambda", "terms"),
        "cli.startup_s": None if main_s is None else p.wall - main_s,
        "trace.overhead_ratio": p.wall / untraced_wall,
    }
    for name, (span, _) in LAYER_METRICS.items():
        if name.startswith("cache."):
            values[name] = _hit_ratio(t["caches"].get(span.removeprefix("cache.")))
        elif name not in values:
            values[name] = _stat(t, span, "self_s" if name.endswith("_s") else "calls")
    return values


def _median_or_none(values):
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure_end_to_end(
    runner: Runner, probe: Probe, invocations, setup: Invocation, seconds: float, spec: dict
):
    setups: list[Child] = []
    passes: list[Pass] = []
    scaled_setups: list[float] = []
    scaled_passes: list[float] = []

    def setup_batch():
        for _ in range(SETUP_BATCH):
            since = probe.mark()
            setups.append(runner.run(setup))
            scaled_setups.append(probe.scaled(setups[-1].wall, since))

    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        setup_batch()
        since = probe.mark()
        passes.append(runner.run_pass(invocations))
        scaled_passes.append(probe.scaled(passes[-1].wall, since))
    setup_batch()
    wall = statistics.median(p.wall for p in passes)
    setup_wall = statistics.median(c.wall for c in setups)
    metrics = {
        "wall_s": statistics.median(scaled_passes),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": max(p.peak_rss_kb for p in passes) / 1024,
        "output_mb": statistics.median(p.output_bytes for p in passes) / 1e6,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    setup_failed = sum(not c.ok for c in setups)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    lines = [f"  {name:<16}{metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"  {'fail_ratio':<16}{failed / attempted!r} ratio  ({failed} of {attempted})")
    lines.append(f"  passes {len(passes)}; setup runs {len(setups)}, {setup_failed} failed")
    lines.append(f"  unscaled: wall {wall!r} s, setup {setup_wall!r} s")
    return (
        {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        attempted + len(setups),
        failed + setup_failed,
        lines,
    )


def measure_layers(runner: Runner, invocations, seconds: float, spec: dict):
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.run_pass(invocations))
        traced.append(runner.run_pass(invocations, traced=True))
    untraced_wall = statistics.median(p.wall for p in plain)
    per_pass = [layer_values(p, untraced_wall) for p in traced]
    gone = set().union(*(p.trace["absent"] for p in traced))
    metrics, absent, lines = {}, {}, []
    for metric in spec["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        span, moves = LAYER_METRICS[name]
        value = _median_or_none(v[name] for v in per_pass)
        if value is None:
            # the result line holds only numbers, so the "absent" line
            # says which of its zeros were not measured
            absent[name] = "function gone" if span in gone else "not reached"
            metrics[name] = {"value": 0, "unit": unit}
            shown = f"absent ({absent[name]})"
        else:
            metrics[name] = {"value": value, "unit": unit}
            shown = f"{value!r} {unit}"
        lines.append(f"  {name:<26}{shown:<30} moves: {moves}")
    lines.append(f"  traced passes {len(traced)}, untraced passes {len(plain)}")
    lines.append("absent " + json.dumps(absent, sort_keys=True))
    everything = plain + traced
    return (
        metrics,
        sum(p.attempted for p in everything),
        sum(p.failed for p in everything),
        lines,
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())  # metric names and units
    refs = load_references()
    workloads = build_workloads(refs)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wtaut" / "cli.py").is_file():
        print(f"benchmark: no wtaut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("benchmark: needs 2 CPUs, one for the work and one for the probe", file=sys.stderr)
        return 2

    # SIGTERM raises SystemExit, so that the finally blocks stop every child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(ROOT)
    setup = setup_invocation(refs)
    host = {"start": host_record()}
    invocations = ordered(workloads[args.workload], args.seed)
    with Probe() as probe:
        warmup = runner.run(setup)  # writes bytecode caches, which users also keep
        if args.trace:
            metrics, attempted, failed, lines = measure_layers(runner, invocations, args.seconds, spec)
        else:
            metrics, attempted, failed, lines = measure_end_to_end(
                runner, probe, invocations, setup, args.seconds, spec
            )
    attempted += 1
    failed += not warmup.ok
    host["end"] = host_record()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print("host " + json.dumps(host, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
