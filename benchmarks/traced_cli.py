"""Run the wtaut CLI once with spans around the public entry point of each layer.

Usage:  python3 benchmarks/traced_cli.py <fd> <cli arguments...>

The CLI output goes to stdout exactly as in an untraced run.  At exit,
per-span totals (calls, self and total seconds, counts taken from
arguments and return values) and the hit counts of the program's
caches are written as one JSON object to the inherited file descriptor
<fd>.  Each invocation is a fresh interpreter, so caches start cold as
in the untraced run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _terms(poly) -> dict:
    count = getattr(poly, "term_count", None)
    return {"terms": count()} if callable(count) else {}


def _matrix_shape(args, rank) -> dict:
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return {"rows": rows, "cells": rows * cols, "rank": rank}


# span name -> (module under wtaut, function, counts from (args, result))
SPANS = {
    "exactalg.rank": ("exactalg", "rank_over_q", _matrix_shape),
    "tautring.relgen": ("tautring", "relation_generators", None),
    "tautring.upper": ("tautring", "hilbert_quotient_upper", None),
    "tautring.lower": ("tautring", "hilbert_quotient_lower", None),
    "pullback.homogenize": ("pullback", "homogenize_and_pin", lambda a, r: _terms(r)),
    "pullback.to_lambda": ("pullback", "to_lambda_basis", lambda a, r: _terms(r)),
    "pullback.kstar": ("pullback", "kstar_schubert", None),
    "pullback.mumford": ("pullback", "mumford_reduce", None),
    "wcycles.class": ("wcycles", "weierstrass_class", None),
    "semigroups.enumerate": ("semigroups", "enumerate_semigroups", None),
}

# cache name -> (module under wtaut, lru_cache-wrapped function)
CACHES = {
    "t_mu": ("schur", "_t_mu_table"),
    "eprod": ("pullback", "_elementary_product_table"),
    "mumford": ("pullback", "_mumford_pivots"),
}


class Tracer:
    """Nested spans aggregated per name; self time excludes child spans."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time: list[float] = []

    def _record(self, name: str, duration: float, child: float, counts: dict) -> None:
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        stat["calls"] += 1
        stat["total_s"] += duration
        stat["self_s"] += duration - child
        for key, value in counts.items():
            stat[key] = stat.get(key, 0) + value

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        self._child_time.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            duration = perf_counter() - start
            child = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
        self._record(name, duration, child, count(args, result) if count else {})
        return result

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper


def install(tracer: Tracer) -> list[str]:
    """Wrap each span's function in every wtaut namespace that binds it.

    `from .pullback import ...` copies a name into other modules, so each
    binding is replaced.  Returns the spans whose function no longer exists.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "wtaut" or n.startswith("wtaut.")]
    absent = []
    for name, (module, function, count) in SPANS.items():
        original = getattr(sys.modules.get(f"wtaut.{module}"), function, None)
        if original is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original, count)
        for namespace in modules:
            for attr in [a for a, v in vars(namespace).items() if v is original]:
                setattr(namespace, attr, wrapper)
    return absent


def cache_counts(absent: list[str]) -> dict:
    """[hits, misses] per cache; a cache that no longer exists joins `absent`."""
    out = {}
    for name, (module, function) in CACHES.items():
        info = getattr(getattr(sys.modules.get(f"wtaut.{module}"), function, None), "cache_info", None)
        if callable(info):
            out[name] = [info().hits, info().misses]
        else:
            out[name] = None
            absent.append(f"cache.{name}")
    return out


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    import wtaut.cli

    tracer = Tracer()
    absent = install(tracer)
    code = 1
    try:
        code = tracer.call("cli", wtaut.cli.main, (argv,))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        caches = cache_counts(absent)
        report = {"spans": tracer.stats, "absent": absent, "caches": caches}
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
