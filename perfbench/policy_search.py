"""policy_search: a fixed-seed eviction-policy search.

Why: ``run_search`` with the default ``SearchConfig`` drives the same
``run_sweep_parallel`` entry point as the sweeps, but down the replay
path (``core.simulator``) instead of the one-pass kernel, so a change
to the shared sweep engine or the simulator loops that helps one path
and costs the other shows up here.  Stresses: victim scoring in
``search.priority`` / ``search.expr`` (about 80 % of the time), the
replay simulator, slab checkpoints.  Idle: the one-pass kernel, the
interpreter, the service.

The search's own seed is fixed (the config default) so its winner can
be checked; ``--seed`` does not change its inputs.  Each repeat gets a
fresh search root, so nothing is resumed.  ``sim_accesses_per_s``
counts the accesses of every policy evaluated: distinct candidates
scored (plus the 8-unit baseline) times the fitness-set trace length.
"""

from __future__ import annotations

from harness import Unit, check_with_doctored, fresh_dir, load_expected
from tracer import Tracer

NAME = "policy_search"
GENERATIONS = 2

CONFIG = {"search_config": "SearchConfig() defaults",
          "generations": GENERATIONS, "jobs": 1, "root": "fresh per repeat"}


def load() -> None:
    global driver, parallel, sweep
    from repro.analysis import parallel, sweep
    from repro.search import driver


def prepare(ctx) -> None:
    CONFIG["search_config"] = driver.SearchConfig().token()


def setup(ctx):
    sweep.clear_sweep_cache()
    # The search reports no access count, so count at its one call into
    # the sweep engine (three calls per search; no timing).
    counter = Tracer()
    counter.count(driver, "run_sweep_parallel", "candidates",
                  per_result=lambda result: len(result.policy_names))
    counter.count(driver, "run_sweep_parallel", "accesses",
                  per_result=lambda result: sum(
                      stats.accesses for stats in result.stats.values()))
    return {"root": fresh_dir("search"), "repeat": 0, "counter": counter}


def teardown(state) -> None:
    state["counter"].close()


def unit(state, seconds: float) -> Unit:
    state["repeat"] += 1
    counts = state["counter"].counts
    counts.clear()
    sweep.clear_sweep_cache()
    # The sweep engine memoizes built workloads per process; a search
    # process builds its fitness set once, so every repeat does too.
    parallel._WORKLOAD_MEMO.clear()
    report = driver.run_search(driver.SearchConfig(), GENERATIONS,
                               root=state["root"] / str(state["repeat"]),
                               jobs=1)
    return Unit(accesses=counts["accesses"], attempted=counts["candidates"],
                outputs=outcome(report))


def outcome(report: dict) -> dict:
    search = report["search"]
    return {"best_expression": search["best"]["expression_text"],
            "best_miss_rate": search["best"]["miss_rate"],
            "baseline_miss_rate": search["baseline"]["miss_rate"],
            "beats_fifo8": report["beats_fifo8"],
            "generations": search["generations_completed"]}


def check(outputs: dict, expected: dict) -> list[tuple[str, str]]:
    return [("search", f"{field}: {outputs.get(field)!r} != {value!r}")
            for field, value in expected.items()
            if outputs.get(field) != value]


def doctor(outputs: dict) -> dict:
    return {**outputs, "best_miss_rate": outputs["best_miss_rate"] + 1e-9}


def expected_payload(outputs: dict) -> dict:
    return outputs


def verify(ctx, state, units) -> tuple[list[str], int]:
    expected = load_expected(NAME)
    problems: list[str] = []
    failed = 0
    for unit_ in units:
        found, wrong = check_with_doctored(check, unit_.outputs, expected,
                                           doctor)
        # A wrong winner cannot be traced to one candidate's
        # evaluation, so all of the repeat's evaluations count as failed.
        if wrong:
            failed += unit_.attempted
        problems += found
    return problems, failed


def report(units) -> dict:
    return {"best_miss_rate": (units[-1].outputs["best_miss_rate"], "ratio")}


def layers(tracer, unit_) -> dict:
    return {}
