"""Median, quartiles and spread of repeated benchmark runs.

    python3 perfbench/summarize.py <workload>=<results.jsonl> ...

Each results file holds the last stdout line of several `run.py` runs of
one workload, one JSON object per line.  Prints, per workload and
metric, the values, their median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
the figure BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(rows: list[dict]) -> dict:
    out = {
        "runs": len(rows),
        "all_correct": all(r["correct"] for r in rows),
        "attempted": [r["attempted"] for r in rows],
        "failed": [r["failed"] for r in rows],
        "metrics": {},
    }
    for name, first in rows[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in rows]
        median = statistics.median(values)
        entry = {"unit": first["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        out["metrics"][name] = entry
    return out


def main(argv: list[str]) -> int:
    if not argv or any("=" not in arg for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    result = {}
    for arg in argv:
        workload, path = arg.split("=", 1)
        with open(path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        result[workload] = summarize(rows)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
