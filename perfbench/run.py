"""ordo benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from `src/`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a human summary goes to stderr.

Set-up (import ordo, generate the seeded inputs, warm up) is repeated
SETUP_REPEATS times, re-importing ordo from source each time; `setup_s`
is the median.  The timed phase then runs whole passes over the inputs
until `--seconds` of measured pass time (at least one pass) and reports
the median pass.  Every pass's outputs are checked against their known
answers after its clock stops.

Times are scaled to a fixed reference computation run in the same
process (see refclock.py), because the host's speed drifts by a quarter
within minutes; stderr shows the raw times and the scale factors.

With `--trace 0` the metrics are the end-to-end ones: `wall_s`,
`cpu_s`, `setup_s`, `peak_rss_mb`.  With `--trace 1` the run makes one
untraced pass and one traced pass and reports the per-layer metrics in
raw seconds, including `trace.overhead_s` (traced minus untraced pass
wall time); the spans are written to `perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

# each run is one single-threaded process: keep numpy's BLAS pool at one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# compile ordo from source on every import, as a fresh checkout does
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_EDGE_S = 0.1


def load_ordo() -> SimpleNamespace:
    """Import every ordo module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == "ordo" or m.startswith("ordo.")]:
        del sys.modules[name]
    import ordo.cli  # noqa: F401  (imports the other eight modules)

    return SimpleNamespace(**spans.loaded_modules())


def setup(workload, seed: int, workdir: str):
    """Set up SETUP_REPEATS times; the last set-up's modules and inputs are kept."""
    times = []
    ordo = inputs = None
    for _ in range(SETUP_REPEATS):
        ordo = inputs = None  # let the previous repeat's inputs go first
        for entry in os.listdir(workdir):
            os.unlink(os.path.join(workdir, entry))
        gc.collect()

        def body():
            ordo = load_ordo()
            inputs = workload.generate(seed, workdir)
            workload.warm(inputs, ordo)
            return ordo, inputs

        (ordo, inputs), *clock = refclock.timed(body, edge_s=SETUP_EDGE_S)
        times.append(clock)
    return ordo, inputs, times


def timed_pass(workload, inputs, ordo, sampled: bool = True):
    """One pass: (checked outcome, outputs, (wall, cpu, raw wall, raw cpu, factor))."""
    gc.collect()
    outputs, *clock = refclock.timed(lambda: workload.run(inputs, ordo), sampled=sampled)
    return workload.check(inputs, outputs), outputs, clock


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, inputs, ordo, seconds: float):
    """Whole passes until `seconds` of measured pass time; one at least."""
    clocks, tallies = [], []
    while not clocks or sum(c[2] for c in clocks) < seconds:
        tally, _, clock = timed_pass(workload, inputs, ordo)
        clocks.append(clock)
        tallies.append(tally)
    return clocks, tallies


def traced_metrics(name, workload, inputs, ordo, seed: int):
    """Per-layer metrics from one untraced and one traced pass, in raw
    seconds: no reference slices run inside these passes, where they
    would land in the spans and in the report's own entry timings."""
    tally, outputs, plain = timed_pass(workload, inputs, ordo, sampled=False)
    tallies = [tally]
    report_metrics = workloads.report_metrics(outputs.get("report"), plain[2])
    del outputs
    run_id = f"{name}-seed{seed}-pid{os.getpid()}-{time.time_ns()}"
    tracer = spans.Tracer(run_id)
    tracer.install(vars(ordo))
    try:
        tally, _, traced = timed_pass(workload, inputs, ordo, sampled=False)
    finally:
        tracer.uninstall()
    tallies.append(tally)

    m = tracer.group_metrics()
    m.update(report_metrics)
    seed_self = m["seedsearch.self_s"]
    m["seedsearch.nodes_per_s"] = m["seedsearch.nodes"] / seed_self if seed_self else 0.0
    nodes = m["seedsearch.nodes"]
    seeds = m.pop("seedsearch.seeds")
    m["seedsearch.seeds_per_node"] = seeds / nodes if nodes else 0.0
    for n, k in spans.FIRST_SEED_PARAMS:
        key = f"{n}_{k}"
        m[f"seedsearch.first_seed_nodes.{key}"] = tracer.first_seed_nodes.get(key, 0)
    enum_self = m["debruijn.enumerate.self_s"]
    cycles = m["debruijn.enumerate.cycles"]
    m["debruijn.enumerate.cycles_per_s"] = cycles / enum_self if enum_self else 0.0
    m["trace.overhead_s"] = traced[2] - plain[2]
    attempted = sum(t.attempted for t in tallies)
    m["failed_ratio"] = sum(t.failed for t in tallies) / attempted

    out_dir = BENCH_DIR / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(str(out_dir / f"{run_id}.jsonl"))
    for label, clock in (("untraced", plain), ("traced", traced)):
        print(f"{label} pass {clock[0]:.3f} s ({clock[2]:.3f} raw, x{clock[4]:.3f})", file=sys.stderr)
    return m, tallies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordo" / "__init__.py").is_file():
        print(f"error: no ordo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        ordo, inputs, setup_times = setup(workload, args.seed, workdir)
        if args.trace:
            metrics, tallies = traced_metrics(args.workload, workload, inputs, ordo, args.seed)
            units = {name: unit_of(name) for name in metrics}
        else:
            clocks, tallies = measure(workload, inputs, ordo, args.seconds)
            metrics = {
                "wall_s": statistics.median(c[0] for c in clocks),
                "cpu_s": statistics.median(c[1] for c in clocks),
                "setup_s": statistics.median(c[0] for c in setup_times),
                "peak_rss_mb": peak_rss_mb(),
            }
            for label, rows in (("set-up", setup_times), ("pass", clocks)):
                shown = ", ".join(f"{r[0]:.3f} s ({r[2]:.3f} raw, x{r[4]:.3f})" for r in rows)
                print(f"{label} wall times: {shown}", file=sys.stderr)
            units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for tally in tallies:
        for message in tally.messages:
            print(f"FAILED: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(tallies)} pass(es), "
        f"{attempted} operations checked, {failed} failed "
        f"(failed_ratio {failed / attempted:.4f})",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or ".entry_s." in metric:
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric.endswith("_per_node"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
