"""The per-layer metrics of the traced run and the spans behind them.

Every traced run instruments every layer, whatever the workload: a
layer the workload leaves idle reports 0, which is itself the
prediction the workload's docstring makes.  ``*_s`` layer metrics are
self times (span time minus child spans), so on one thread they add up
to the traced wall time minus ``unaccounted_s``.

Which end-to-end metric each layer should move, and on which workload
(cite these pairs when claiming a gain):

=====================================  ======================================
layer metric                           end-to-end metric (workload)
=====================================  ======================================
workloads.build_s                      sim_accesses_per_s (figure_sweep),
                                       setup_s (table2_dbt, service_load)
kernel.one_pass_grid_s,                sim_accesses_per_s, peak_rss_mb
ckernel.run_geometries_s, kernel.cells (figure_sweep)
sweepcache.store_s, checkpoint.io_s    sim_accesses_per_s (figure_sweep,
                                       policy_search)
dbt.run_s, isa.step_s, isa.steps,      sim_accesses_per_s and
dbt.translate_s, dbt.superblocks,      guest_instr_per_s (table2_dbt)
dbt.unchained_exits
protocol.encode_s, protocol.decode_s,  sim_accesses_per_s, request_p50_ms
protocol.validate_s                    (service_load)
tenancy.access_many_s,                 sim_accesses_per_s (service_load)
tenancy.accesses, service.arena_share
session.wait_s, session.refused_share  request_p99_ms (service_load)
search.evaluate_s, simulator.process_s sim_accesses_per_s (policy_search)
search.blocks_scored, search.evictions,
search.blocks_per_eviction
trace_overhead, unaccounted_s          none: the trace's own cost and reach
=====================================  ======================================
"""

from __future__ import annotations

#: Span name -> per-layer metric reporting its self time.
SPANS = (
    "workloads.build",
    "kernel.one_pass_grid",
    "ckernel.run_geometries",
    "sweepcache.store",
    "checkpoint.io",
    "dbt.run",
    "isa.step",
    "dbt.translate",
    "protocol.encode",
    "protocol.decode",
    "protocol.validate",
    "tenancy.access_many",
    "search.evaluate",
    "simulator.process",
)

#: Per-layer metric -> (unit, better).  Order is the report order.
PER_LAYER = {
    "workloads.build_s": ("s", "lower"),
    "kernel.one_pass_grid_s": ("s", "lower"),
    "ckernel.run_geometries_s": ("s", "lower"),
    "kernel.cells": ("count", "higher"),
    "sweepcache.store_s": ("s", "lower"),
    "checkpoint.io_s": ("s", "lower"),
    "dbt.run_s": ("s", "lower"),
    "isa.step_s": ("s", "lower"),
    "isa.steps": ("count", "higher"),
    "dbt.translate_s": ("s", "lower"),
    "dbt.superblocks": ("count", "lower"),
    "dbt.unchained_exits": ("count", "lower"),
    "protocol.encode_s": ("s", "lower"),
    "protocol.decode_s": ("s", "lower"),
    "protocol.validate_s": ("s", "lower"),
    "tenancy.access_many_s": ("s", "lower"),
    "tenancy.accesses": ("count", "higher"),
    "service.arena_share": ("ratio", "higher"),
    "session.wait_s": ("s", "lower"),
    "session.refused_share": ("ratio", "lower"),
    "search.evaluate_s": ("s", "lower"),
    "simulator.process_s": ("s", "lower"),
    "search.blocks_scored": ("count", "lower"),
    "search.evictions": ("count", "lower"),
    "search.blocks_per_eviction": ("ratio", "lower"),
    "trace_overhead": ("ratio", "lower"),
    "unaccounted_s": ("s", "lower"),
}


def instrument(tracer) -> None:
    """Wrap the public entry point of every layer."""
    from repro.analysis import ckernel, sweepcache
    from repro.analysis.checkpoint import CheckpointStore
    from repro.analysis.kernel import one_pass_grid
    from repro.core.simulator import CodeCacheSimulator
    from repro.dbt import runtime
    from repro.isa.interpreter import Interpreter
    from repro.search import driver
    from repro.search.priority import PriorityFunctionPolicy
    from repro.service import protocol
    from repro.service.tenancy import SharedArena
    from repro.workloads import registry

    def add(name, amount):
        def hook(counts, value, *_):
            counts[name] += amount(value)
        return hook

    tracer.wrap_function(registry.build_workload, "workloads.build")
    tracer.wrap_function(registry.build_suite, "workloads.build")
    tracer.wrap_function(
        one_pass_grid, "kernel.one_pass_grid",
        on_call=add("kernel.cells", lambda args: len(args[2]) * len(args[3])))
    tracer.wrap(ckernel, "run_geometries", "ckernel.run_geometries")
    tracer.wrap(sweepcache, "store", "sweepcache.store")
    for method in ("load", "store", "load_blob", "store_blob"):
        tracer.wrap(CheckpointStore, method, "checkpoint.io")

    def dbt_counts(counts, result):
        counts["dbt.superblocks"] += result.superblocks_formed
        counts["dbt.unchained_exits"] += result.unchained_exits

    tracer.wrap(runtime.DBTRuntime, "run", "dbt.run", on_result=dbt_counts)
    tracer.wrap(Interpreter, "step", "isa.step")
    tracer.wrap_function(runtime.translate, "dbt.translate")

    tracer.wrap(protocol, "encode", "protocol.encode")
    tracer.wrap(protocol, "decode_line", "protocol.decode")
    tracer.wrap(protocol, "validate_request", "protocol.validate")
    tracer.wrap(SharedArena, "access_many", "tenancy.access_many",
                on_call=add("tenancy.accesses", lambda args: len(args[2])))

    tracer.wrap(driver, "run_sweep_parallel", "search.evaluate")
    tracer.wrap(CodeCacheSimulator, "process", "simulator.process")
    tracer.count(PriorityFunctionPolicy, "score_of", "search.blocks_scored")
    tracer.count(PriorityFunctionPolicy, "insert", "search.evictions",
                 per_result=len)


def metrics(tracer, traced, untraced, derived: dict) -> dict:
    """Every per-layer metric for one traced run.

    *traced* and *untraced* are the same workload unit run with and
    without tracing; *derived* holds the workload's own layer figures.
    """
    values = {name: 0.0 for name in PER_LAYER}
    for span in SPANS:
        values[f"{span}_s"] = tracer.layer_seconds(span)
    for name, count in tracer.counts.items():
        values[name] = float(count)
    values["isa.steps"] = float(tracer.calls.get("isa.step", 0))
    scored = values["search.blocks_scored"]
    evictions = values["search.evictions"]
    values["search.blocks_per_eviction"] = (
        scored / evictions if evictions else 0.0)
    values.update(derived)
    values["trace_overhead"] = (
        (traced.seconds / traced.accesses)
        / (untraced.seconds / untraced.accesses) - 1.0)
    values["unaccounted_s"] = tracer.unaccounted()
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
