"""Robustness: the conclusion across the calibration constants.

Figures 10-15 rest on Equations 2-4's coefficients.  Because overhead
attribution is linear in the counters each run records, the whole
granularity contest can be *re-priced* exactly under scaled coefficients
without re-simulating.  This bench checks that the medium-grain
conclusion survives 2x swings of the eviction fixed cost, the miss cost
and the unlink cost.
"""

from repro.analysis.kernel import ladder_kernel_configs, one_pass_sweep
from repro.analysis.report import ExperimentResult
from repro.analysis.sensitivity import overhead_model_sensitivity
from repro.core.pressure import pressured_capacity
from repro.workloads.registry import build_workload, get_benchmark

from conftest import SCALE

BENCHMARKS = ("crafty", "vortex", "winzip")
PRESSURE = 10
UNIT_COUNTS = (1, 2, 4, 8, 16, 32, 64)


def _run_study():
    per_policy: dict[str, list] = {}
    for name in BENCHMARKS:
        workload = build_workload(get_benchmark(name), scale=SCALE)
        blocks = workload.superblocks
        capacity = pressured_capacity(blocks, PRESSURE)
        ladder = one_pass_sweep(blocks, workload.trace, capacity,
                                ladder_kernel_configs(UNIT_COUNTS),
                                benchmark=name)
        for policy_name, stats in ladder.items():
            per_policy.setdefault(policy_name, []).append(stats)
    points = overhead_model_sensitivity(per_policy)
    rows = [
        (point.label, point.winner, point.flush_relative,
         point.fifo_relative, "yes" if point.medium_wins else "no")
        for point in points
    ]
    return ExperimentResult(
        experiment_id="robustness-model",
        title=f"Granularity contest under scaled Equations 2-4 "
              f"({'+'.join(BENCHMARKS)}, cache = maxCache/{PRESSURE})",
        columns=("Coefficient scaling", "Winner", "FLUSH/best",
                 "FIFO/best", "Medium within 2%"),
        rows=rows,
        series={point.label: point.medium_wins for point in points},
        notes="Re-priced exactly from one set of recorded runs; no "
              "re-simulation.",
    )


def test_robustness_model(benchmark, save_result):
    result = benchmark.pedantic(_run_study, rounds=1, iterations=1)
    save_result(result)
    wins = sum(1 for value in result.series.values() if value)
    assert result.series["paper"]  # medium wins at the paper's constants
    assert wins >= len(result.series) - 1  # and survives 2x swings
