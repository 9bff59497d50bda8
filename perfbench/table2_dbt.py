"""table2_dbt: a fixed subset of Table 2 through the DBT runtime.

Why: Table 2 (slowdown from disabling superblock chaining) is the only
result that executes guest code, and it dominates the cold paper
reproduction.  Each program runs through ``DBTRuntime`` with chaining
on and off, as ``experiments.table2`` does, at a reduced instruction
budget.  Stresses: ``isa.interpreter`` (about 80 % of the time: operand
strings are re-parsed on every step), DBT translation and dispatch.
Idle: the sweep kernel, the service, the search.

The programs are generated from Table 2's fixed specs, so every run
executes the same guest code; ``--seed`` only shuffles the order in
which the programs run.  ``sim_accesses_per_s`` counts code-cache
accesses: superblock entries into the DBT's cache.
"""

from __future__ import annotations

import random
import statistics

from harness import Unit, check_with_doctored, load_expected

NAME = "table2_dbt"
#: gzip and mcf bracket the paper's slowdowns (3357 % and 447 %); gcc
#: is the program the ROADMAP profile was taken on.
PROGRAMS = ("gzip", "gcc", "mcf")
INSTRUCTIONS = 200_000
RUNTIME_KWARGS = {"max_trace_blocks": 64, "max_trace_bytes": 4096,
                  "record_entries": False}
COUNTERS = (
    "guest_instructions", "superblocks_formed", "cache_entries",
    "chained_transitions", "unchained_exits", "eviction_invocations",
    "evicted_blocks", "interpreted_blocks", "interpreted_instructions",
    "bb_instructions", "native_instructions", "bb_blocks", "bb_cache_bytes",
    "halted",
)

CONFIG = {"programs": list(PROGRAMS), "max_guest_instructions": INSTRUCTIONS,
          "chaining": [True, False], **RUNTIME_KWARGS}


def load() -> None:
    global DBTRuntime, TABLE2_SPECS, generate_program
    from repro.dbt.runtime import DBTRuntime
    from repro.workloads.generator import TABLE2_SPECS, generate_program


def prepare(ctx) -> None:
    pass


def setup(ctx):
    order = list(PROGRAMS)
    random.Random(ctx.seed).shuffle(order)
    specs = {spec.name: spec for spec in TABLE2_SPECS}
    return {"programs": [(name, generate_program(specs[name]))
                         for name in order]}


def teardown(state) -> None:
    pass


def unit(state, seconds: float) -> Unit:
    outputs = {}
    for name, program in state["programs"]:
        for chaining in (True, False):
            result = DBTRuntime(program, chaining_enabled=chaining,
                                **RUNTIME_KWARGS).run(INSTRUCTIONS)
            record = {field: getattr(result, field) for field in COUNTERS}
            record["total_work"] = result.total_work
            outputs[f"{name}|{'chained' if chaining else 'unchained'}"] = (
                record)
    return Unit(accesses=sum(r["cache_entries"] for r in outputs.values()),
                attempted=len(outputs), outputs=outputs)


def check(outputs: dict, expected: dict) -> list[tuple[str, str]]:
    """``(run, problem)`` for every run whose counters or total work
    differ from the committed values (exactly: the DBT is
    deterministic), or that is missing or not expected."""
    problems = []
    want = expected["runs"]
    problems += [(key, "missing") for key in sorted(set(want) - set(outputs))]
    problems += [(key, "not in the expected runs")
                 for key in sorted(set(outputs) - set(want))]
    for key in sorted(set(outputs) & set(want)):
        for field, value in want[key].items():
            if outputs[key].get(field) != value:
                problems.append((key, f"{field}: "
                                      f"{outputs[key].get(field)!r} != "
                                      f"{value!r}"))
    return problems


def doctor(outputs: dict) -> dict:
    bad = {key: dict(record) for key, record in outputs.items()}
    bad[sorted(bad)[0]]["unchained_exits"] += 1
    return bad


def expected_payload(outputs: dict) -> dict:
    return {"max_guest_instructions": INSTRUCTIONS, "runs": outputs}


def verify(ctx, state, units) -> tuple[list[str], int]:
    expected = load_expected(NAME)
    problems: list[str] = []
    failed = 0
    for unit_ in units:
        found, bad_runs = check_with_doctored(check, unit_.outputs,
                                              expected, doctor)
        failed += len(bad_runs)
        problems += found
    return problems, failed


def report(units) -> dict:
    """guest_instr_per_s, and Table 2's slowdowns next to the paper's."""
    from repro.analysis.experiments import PAPER_TABLE2_SLOWDOWNS

    rate = statistics.median(
        sum(r["guest_instructions"] for r in unit_.outputs.values())
        / unit_.seconds for unit_ in units)
    extras = {"guest_instr_per_s": (rate, "1/s")}
    outputs = units[-1].outputs
    for name in PROGRAMS:
        on = outputs[f"{name}|chained"]["total_work"]
        off = outputs[f"{name}|unchained"]["total_work"]
        extras[f"table2.{name}.slowdown_pct"] = (
            (off / on - 1.0) * 100.0, "%")
        extras[f"table2.{name}.paper_pct"] = (
            PAPER_TABLE2_SLOWDOWNS[name], "%")
    return extras


def layers(tracer, unit_) -> dict:
    return {}
