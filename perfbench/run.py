"""The repository's benchmark: one workload per run, checked outputs.

    python3 perfbench/run.py --workload figure_sweep --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced and one traced unit of the workload and
reports the per-layer metrics (see ``layers.py``).  The last line of
standard output is the JSON result; the lines before it name every
metric with its unit, record the host and the effective configuration,
and list any failed check.  The full report, and the spans of a traced
run, are written under ``.perfbench/results/``.  Exit status 1 means an
output check failed; 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
from time import perf_counter

import harness
import layers
from tracer import Tracer

WORKLOADS = ("figure_sweep", "table2_dbt", "service_load", "policy_search")

#: End-to-end metric -> unit; every run with ``--trace 0`` reports all.
END_TO_END = {"sim_accesses_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


class Context:
    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.notes: list[str] = []


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    try:
        harness.prepare_environment()
    except harness.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workload = importlib.import_module(args.workload)
    ctx = Context(args.seed, args.seconds)

    workload.load()
    import_s = harness.import_seconds(args.workload)
    try:
        workload.prepare(ctx)
    except harness.SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    setup_times = []
    state = None
    for _ in range(harness.SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        started = perf_counter()
        state = workload.setup(ctx)
        setup_times.append(perf_counter() - started)

    def run_unit():
        return workload.unit(state, args.seconds)

    tracer = None
    try:
        if args.trace:
            untraced = harness.timed_unit(run_unit)
            tracer = Tracer()
            layers.instrument(tracer)
            tracer.start()
            try:
                traced = harness.timed_unit(run_unit)
            finally:
                tracer.stop()
                tracer.close()
            units = [untraced, traced]
        else:
            units = harness.measure(run_unit, args.seconds)
        rss = harness.peak_rss_mb()
        problems, failed = workload.verify(ctx, state, units)
    finally:
        workload.teardown(state)

    attempted = sum(unit.attempted for unit in units)
    if args.trace:
        metrics = layers.metrics(tracer, traced, untraced,
                                 workload.layers(tracer, traced))
    else:
        values = {
            "sim_accesses_per_s": statistics.median(u.rate for u in units),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    extras = {"failed_share": (failed / attempted, "ratio"),
              **workload.report(units)}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": harness.host_record(workload.CONFIG),
        "units": [{"seconds": u.seconds, "accesses": u.accesses,
                   "attempted": u.attempted} for u in units],
        "import_s": import_s, "setup_repeats_s": setup_times,
        "metrics": metrics,
        "extras": {name: {"value": value, "unit": unit}
                   for name, (value, unit) in extras.items()},
        "notes": ctx.notes, "problems": problems,
    }
    write_results(args, record, tracer)
    print_report(record)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 1 if problems else 0


def write_results(args, record: dict, tracer) -> None:
    out = harness.WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.json")


def print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"seconds {record['seconds']:g} trace {record['trace']}")
    print(f"host {json.dumps(record['host'], sort_keys=True)}")
    print(f"units {len(record['units'])}: "
          + ", ".join(f"{u['seconds']:.2f}s" for u in record["units"]))
    for name, metric in {**record["metrics"], **record["extras"]}.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    for note in record["notes"]:
        print(f"note: {note}")
    for problem in record["problems"][:20]:
        print(f"CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
