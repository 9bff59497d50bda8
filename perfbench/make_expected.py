"""Regenerate the committed expected outputs the benchmark checks.

    python3 perfbench/make_expected.py figure_sweep table2_dbt policy_search

Run it only when a change is meant to alter a workload's results, and
say so in the change; the benchmark compares every run against these
files.  service_load has none: it is checked for conservation.
"""

from __future__ import annotations

import importlib
import sys

import harness
from run import Context


def main(names) -> int:
    harness.prepare_environment()
    for name in names:
        workload = importlib.import_module(name)
        ctx = Context(seed=0, seconds=0.0)
        workload.load()
        workload.prepare(ctx)
        state = workload.setup(ctx)
        try:
            outputs = workload.unit(state, 0.0).outputs
        finally:
            workload.teardown(state)
        path = harness.write_expected(name, workload.expected_payload(outputs))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
