"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 benchmarks/spread.py --seeds 1 2 3 4 5 6 7 8 9 10

Runs benchmarks/run.py once per seed and workload of BENCHMARK.json,
round-robin over the workloads within each seed so that slow drift of
the host speed spreads over all of them rather than landing on one.  For every workload and
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, with
the host record (Python version, nproc, load average) of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    values: dict = {w: {} for w in workloads}
    tally = {w: [0, 0] for w in workloads}  # failed, attempted
    runs = []
    for seed in args.seeds:
        for workload in workloads:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
            runs.append({"workload": workload, "seed": seed, "host": host, **result})
            tally[workload][0] += result["failed"]
            tally[workload][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[f"{workload} {name}"] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "within_third": spread < bounds[name] / 3,
            }
            print(f"{workload:<20}{name:<14}median {median:<12.6g} spread {spread:.4f} "
                  f"bound {bounds[name]}{'' if spread < bounds[name] / 3 else '  (over a third)'}")
        failed, attempted = tally[workload]
        print(f"{workload:<20}{'fail_ratio':<14}{failed / attempted} ratio ({failed} of {attempted})")
    print(json.dumps({"summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
