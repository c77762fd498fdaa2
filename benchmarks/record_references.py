"""Record the reference outputs the benchmark's correctness gate compares with.

Run from the repository root:  python3 benchmarks/record_references.py
It runs every workload invocation once through the CLI and rewrites
benchmarks/references.json.  Only re-record when a change is meant to
alter the mathematics, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import (
    HILBERT_ARGV,
    PULLBACK_ARGV,
    REFERENCES,
    SETUP_ARGV,
    class_argv,
    content_record,
    hilbert_rows,
)

ROOT = Path(__file__).resolve().parent.parent


def cli_payload(argv) -> object:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "wtaut.cli", *argv], env=env, cwd=ROOT,
        capture_output=True, check=True,
    )
    return json.loads(out.stdout)["payload"]


def main() -> None:
    semigroups = cli_payload(("semigroups", "--genus", "6"))
    refs: dict = {"setup": content_record(cli_payload(SETUP_ARGV)["value"]), "classes-g6": {}}
    for record in semigroups[0]["semigroups"]:
        gaps = ",".join(map(str, record["gaps"]))
        [cls] = cli_payload(class_argv(gaps))
        refs["classes-g6"][gaps] = {
            "class_pointed": content_record(cls["class_pointed"]),
            "class_unpointed": content_record(cls["class_unpointed"]),
        }
    for name, argv in HILBERT_ARGV.items():
        refs[name] = hilbert_rows(cli_payload(argv))
    [pullback] = cli_payload(PULLBACK_ARGV)
    refs["pullback-smooth-g6"] = content_record(pullback["value_lambda"])
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
