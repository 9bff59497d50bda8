"""Extension (paper Section 2.3): several programs sharing one cache.

"Users tend to execute several programs at once, [so] code cache sizes
are likely to be a limitation."  This bench timeslices three workloads
over one shared cache sized for roughly a third of their combined
footprint and re-asks the paper's question there: which granularity
holds up best when the pressure comes from multiprogramming rather than
from a single large application?
"""

from repro.analysis.kernel import ladder_kernel_configs, one_pass_sweep
from repro.analysis.report import ExperimentResult
from repro.workloads.multiprogram import combine_workloads
from repro.workloads.registry import build_workload, get_benchmark

from conftest import SCALE

PROGRAMS = ("gzip", "crafty", "gap")
UNIT_COUNTS = (1, 2, 4, 8, 16, 32, 64)
SHARE_FRACTION = 8  # shared cache = combined footprint / 8


def _run_extension():
    workloads = [
        build_workload(get_benchmark(name), scale=SCALE)
        for name in PROGRAMS
    ]
    combined = combine_workloads(workloads, timeslice=800, seed=11)
    capacity = combined.max_cache_bytes // SHARE_FRACTION
    rows = []
    series = {}
    ladder = one_pass_sweep(combined.superblocks, combined.trace, capacity,
                            ladder_kernel_configs(UNIT_COUNTS),
                            benchmark="multiprogram")
    for policy_name, stats in ladder.items():
        rows.append((policy_name, stats.miss_rate,
                     stats.eviction_invocations,
                     stats.total_overhead / 1e6))
        series[policy_name] = {
            "miss": stats.miss_rate,
            "overhead": stats.total_overhead,
        }
    flush = series["FLUSH"]["overhead"]
    for data in series.values():
        data["relative"] = data["overhead"] / flush
    return ExperimentResult(
        experiment_id="extension-multiprogramming",
        title=f"Three programs ({', '.join(PROGRAMS)}) sharing one cache "
              f"(combined footprint / {SHARE_FRACTION})",
        columns=("Policy", "Miss rate", "Evictions", "Overhead (M instr)"),
        rows=rows,
        series=series,
    )


def test_extension_multiprogramming(benchmark, save_result):
    result = benchmark.pedantic(_run_extension, rounds=1, iterations=1)
    save_result(result)
    series = result.series
    # The paper's conclusion carries over to the multiprogrammed cache:
    # FLUSH is the worst granularity and a medium grain beats it clearly.
    assert series["FLUSH"]["relative"] == 1.0
    medium = min(series[name]["relative"]
                 for name in ("4-unit", "8-unit", "16-unit"))
    assert medium < 0.98
    assert medium <= series["FIFO"]["relative"] * 1.10
    # Miss rates still decline FLUSH -> fine.
    assert series["FIFO"]["miss"] < series["FLUSH"]["miss"]
