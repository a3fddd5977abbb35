"""Self-test of the benchmark: traced runs repeat their exact counts.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload, runs `run.py --trace 1` twice with the same seed, one
after the other, and fails unless both runs are correct, print exactly
the per-layer metrics of BENCHMARK.json with their units, and agree on
every count (every metric whose unit is `count` or `bytes`; among them
the node, cycle, arc-query, Ramsey-check and rejection counts below).
Run from the repository root.  Takes about three minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NAMED_COUNTS = (
    "seedsearch.nodes",
    "seedsearch.first_seed_nodes.5_2",
    "seedsearch.first_seed_nodes.3_3",
    "seedsearch.first_seed_nodes.6_2",
    "seedsearch.first_seed_nodes.4_3",
    "debruijn.enumerate.cycles",
    "redei.arc_queries",
    "ramsey.check.calls",
    "debruijn.decode.rejected",
)


def traced_run(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        "1",
        "--trace",
        "1",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in args.workload or names:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for label, run in (("first", first), ("second", second)):
            if not run["correct"]:
                problems.append(f"{workload}: {label} run not correct")
            printed = {k: v["unit"] for k, v in run["metrics"].items()}
            if printed != units:
                problems.append(f"{workload}: {label} run prints {sorted(set(printed) ^ set(units))}")
        counts = [k for k, unit in units.items() if unit in ("count", "bytes")]
        missing = [k for k in NAMED_COUNTS if k not in counts]
        if missing:
            problems.append(f"missing named counts {missing}")
        for key in counts:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{workload}: {key} differs, {a} then {b}")
        shown = ", ".join(f"{k}={first['metrics'][k]['value']}" for k in NAMED_COUNTS)
        print(f"{workload}: {shown}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
