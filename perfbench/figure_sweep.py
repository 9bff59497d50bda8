"""figure_sweep: the scale-1.0 grid behind Figures 6-8 and 10-15.

Why: ``full_sweep`` over all 20 benchmarks, the whole FLUSH / N-unit /
FIFO ladder and every standard pressure is the paper's main result and
the repo's heaviest simulation path.  It runs on the C one-pass kernel
with the inline engine (a two-worker pool spreads by more than a tenth
from run to run on a 2-CPU host).  Stresses: workload build, the
one-pass kernel and its Python unlink re-fold, the sweep-cache store.
Idle: isa, dbt, service, search.

Each repeat gets a fresh, empty sweep-cache directory, so the grid is
stored but never found.  ``--seed`` picks the benchmark whose cells are
re-derived through the reference model after the timed region.
"""

from __future__ import annotations

import os
import random

from harness import (
    SetupError,
    Unit,
    check_with_doctored,
    close_enough,
    fresh_dir,
    load_expected,
)

NAME = "figure_sweep"
SCALE = 1.0
#: Benchmarks small enough to re-derive all 55 cells through the slow
#: reference model in a few seconds.
REFERENCE_CHOICES = ("mcf", "bzip2")
#: Eq. 2-4 overheads are float sums; a future closed-form accounting
#: may reassociate them, so they match to this relative tolerance.
FLOAT_RTOL = 1e-9
INT_FIELDS = (
    "accesses", "hits", "misses", "inserted_bytes", "eviction_invocations",
    "evicted_blocks", "evicted_bytes", "unlink_operations", "links_removed",
    "links_established_intra", "links_established_inter",
    "peak_backpointer_bytes", "preemptive_flushes",
)
FLOAT_FIELDS = ("miss_overhead", "eviction_overhead", "unlink_overhead")

CONFIG = {"scale": SCALE, "jobs": 1, "kernel_engine": "c",
          "one_pass": True, "sweep_cache": "fresh per repeat",
          "benchmarks": 20, "unit_counts": "1..512", "fine": True,
          "pressures": [2, 4, 6, 8, 10]}


def load() -> None:
    global ckernel, sweep, registry
    from repro.analysis import ckernel, sweep
    from repro.workloads import registry


def prepare(ctx) -> None:
    # A silent fall-back to the Python engine would measure another
    # program, so the C kernel is required; compiling it here keeps the
    # compile out of every timed region and out of setup_s.
    os.environ["REPRO_KERNEL_ENGINE"] = "c"
    if ckernel.load() is None:
        raise SetupError(f"C kernel unavailable: {ckernel.load_error()}")


def setup(ctx):
    sweep.clear_sweep_cache()
    return {"root": fresh_dir("sweep-cache"), "repeat": 0}


def teardown(state) -> None:
    pass


def unit(state, seconds: float) -> Unit:
    state["repeat"] += 1
    cache = state["root"] / str(state["repeat"])
    os.environ["REPRO_SWEEP_CACHE_DIR"] = str(cache)
    sweep.clear_sweep_cache()
    result = sweep.full_sweep(scale=SCALE, jobs=1, use_cache=True)
    cells = {cell_key(*point): row(stats)
             for point, stats in result.stats.items()}
    return Unit(accesses=sum(values[0] for values in cells.values()),
                attempted=len(cells), outputs=cells,
                extra={"stored": len(list(cache.glob("*.pkl")))})


def cell_key(benchmark: str, policy: str, pressure: float) -> str:
    return f"{benchmark}|{policy}|{pressure:g}"


def row(stats) -> list:
    """One cell's integer counters, then its Eq. 2-4 overheads."""
    return ([getattr(stats, name) for name in INT_FIELDS]
            + [getattr(stats, name) for name in FLOAT_FIELDS])


def check(cells: dict, expected: dict) -> list[tuple[str, str]]:
    """``(cell, problem)`` for every cell that differs from the
    committed grid, is missing from it or is not in it."""
    problems = []
    want = expected["cells"]
    problems += [(key, "missing") for key in sorted(set(want) - set(cells))]
    problems += [(key, "not in the expected grid")
                 for key in sorted(set(cells) - set(want))]
    width = len(INT_FIELDS)
    for key in sorted(set(cells) & set(want)):
        got, ref = cells[key], want[key]
        for index, name in enumerate(INT_FIELDS):
            if got[index] != ref[index]:
                problems.append((key, f"{name}: {got[index]} != "
                                      f"{ref[index]}"))
        for offset, name in enumerate(FLOAT_FIELDS):
            a, b = got[width + offset], ref[width + offset]
            if not close_enough(a, b, FLOAT_RTOL):
                problems.append((key, f"{name}: {a!r} != {b!r}"))
    return problems


def doctor(cells: dict) -> dict:
    """A copy with one counter and one overhead off by a little."""
    bad = {key: list(values) for key, values in cells.items()}
    key = sorted(bad)[len(bad) // 2]
    bad[key][INT_FIELDS.index("misses")] += 1
    bad[key][len(INT_FIELDS)] *= 1 + 1e-6
    return bad


def reference_check(ctx, cells: dict) -> list[tuple[str, str]]:
    """``(cell, problem)`` for the cells of one benchmark that differ
    from their re-derivation through the reference model."""
    from repro.core.pressure import (
        STANDARD_PRESSURE_FACTORS,
        pressured_capacity,
    )
    from repro.core.refmodel import reference_ladder

    name = random.Random(ctx.seed).choice(REFERENCE_CHOICES)
    workload = registry.build_workload(registry.get_benchmark(name),
                                       scale=SCALE)
    ctx.notes.append(f"reference model re-derived {name}")
    rows = {}
    for pressure in STANDARD_PRESSURE_FACTORS:
        capacity = pressured_capacity(workload.superblocks, pressure)
        for policy, build in reference_ladder():
            stats = build(workload.superblocks, capacity).run(
                workload.trace, benchmark=name).stats
            rows[cell_key(name, policy, pressure)] = row(stats)
    mine = {key: values for key, values in cells.items() if key in rows}
    return check(mine, {"cells": rows})


def expected_payload(cells: dict) -> dict:
    return {"scale": SCALE, "int_fields": list(INT_FIELDS),
            "float_fields": list(FLOAT_FIELDS), "cells": cells}


def verify(ctx, state, units) -> tuple[list[str], int]:
    """(problems, failed cells): every repeat against the committed
    grid, each repeat's grid stored, and one benchmark re-derived
    through the reference model."""
    expected = load_expected(NAME)
    problems: list[str] = []
    failed = 0
    for index, unit_ in enumerate(units):
        found, bad_cells = check_with_doctored(check, unit_.outputs,
                                               expected, doctor)
        if index == len(units) - 1:
            for key, problem in reference_check(ctx, unit_.outputs):
                found.append(f"{key} reference model: {problem}")
                bad_cells.add(key)
        failed += len(bad_cells)
        problems += found
        if unit_.extra["stored"] < 1:
            problems.append("sweep grid was not stored in the fresh cache")
    return problems, failed


def report(units) -> dict:
    return {}


def layers(tracer, unit_) -> dict:
    return {}