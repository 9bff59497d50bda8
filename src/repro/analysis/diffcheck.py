"""Differential checking: production simulator vs. the reference model.

``python -m repro.analysis diff-check`` replays the same synthetic
traces through the optimized :class:`~repro.core.simulator.
CodeCacheSimulator` and the first-principles :class:`~repro.core.
refmodel.ReferenceSimulator`, across the paper's whole granularity
ladder, and diffs them at two grains:

* **per access** — hit/miss verdict, the evicted-block tuples of every
  eviction invocation, and the number of links unpatched must match
  exactly; the first divergence is reported with its trace position.
* **final stats** — every counter and every Equation 2-4 overhead must
  match exactly (the overheads are closed forms over the counters, so
  equal counters give equal overheads).
* **unobserved replay** — each cell is replayed once more with no
  observer and links untracked, the way Figures 6-11 replay, so the
  simulator's batched fast loop is diffed too.  Links never change
  residency, so its residency counters must equal the reference run's.

A clean diff means the fast implementation and the obviously-correct
one agree access for access on every rung — the strongest correctness
statement this repo can make short of the original DynamoRIO logs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.cache import ConfigurationError
from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.policies import STANDARD_UNIT_COUNTS
from repro.core.pressure import pressured_capacity
from repro.core.refmodel import AccessOutcome, reference_ladder
from repro.core.simulator import CodeCacheSimulator
from repro.analysis.sweep import ladder_policy_factories, run_sweep
from repro.workloads.registry import all_benchmarks, build_workload

#: Benchmarks the CLI diffs by default: the three smallest SPEC
#: populations, so the quadratic reference model stays fast.
DEFAULT_BENCHMARKS = ("gzip", "mcf", "bzip2")

#: Default trace length per benchmark.  The reference model recomputes
#: occupancy by summation on every insertion, so diff runs use shorter
#: traces than sweeps; pass ``trace_accesses`` to override.
DEFAULT_TRACE_ACCESSES = 6000

DEFAULT_PRESSURES = (2.0, 10.0)

_COMPARED_FIELDS = (
    "accesses", "hits", "misses", "inserted_bytes",
    "eviction_invocations", "evicted_blocks", "evicted_bytes",
    "unlink_operations", "links_removed",
    "links_established_intra", "links_established_inter",
    "peak_backpointer_bytes", "preemptive_flushes",
    "miss_overhead", "eviction_overhead", "unlink_overhead",
)

#: What an unobserved, link-untracked replay must still agree on.
_RESIDENCY_FIELDS = (
    "accesses", "hits", "misses", "inserted_bytes",
    "eviction_invocations", "evicted_blocks", "evicted_bytes",
    "preemptive_flushes",
)


@dataclass(frozen=True)
class DiffMismatch:
    """One disagreement between the two implementations."""

    benchmark: str
    policy: str
    pressure: float
    kind: str  # "access" or "stats"
    detail: str
    access_index: int | None = None


@dataclass
class DiffReport:
    """Outcome of one differential run over a (benchmark, policy,
    pressure) grid."""

    runs: int = 0
    accesses_compared: int = 0
    mismatches: list[DiffMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self, precision: int = 4) -> str:
        lines = [
            f"diff-check: {self.runs} run(s), "
            f"{self.accesses_compared} access outcomes compared",
        ]
        if self.ok:
            lines.append("  PASS: production and reference simulators "
                         "agree access for access")
        else:
            lines.append(f"  FAIL: {len(self.mismatches)} mismatch(es)")
            for m in self.mismatches:
                where = (f" at access {m.access_index}"
                         if m.access_index is not None else "")
                lines.append(
                    f"  {m.benchmark} / {m.policy} / pressure "
                    f"{m.pressure:g} [{m.kind}]{where}: {m.detail}"
                )
        return "\n".join(lines)


def _spec_by_name(name: str):
    by_name = {spec.name: spec for spec in all_benchmarks()}
    if name not in by_name:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; choose from "
            f"{', '.join(sorted(by_name))}"
        )
    return by_name[name]


def _diff_outcomes(optimized: list[AccessOutcome],
                   reference: list[AccessOutcome]) -> tuple[str, int] | None:
    """First per-access divergence as ``(detail, index)``, or ``None``."""
    if len(optimized) != len(reference):
        return (
            f"outcome counts differ: {len(optimized)} vs {len(reference)}",
            None,
        )
    for opt, ref in zip(optimized, reference):
        if opt.sid != ref.sid:
            return f"trace desync: sid {opt.sid} vs {ref.sid}", opt.index
        if opt.hit != ref.hit:
            return (
                f"sid {opt.sid}: optimized says "
                f"{'hit' if opt.hit else 'miss'}, reference says "
                f"{'hit' if ref.hit else 'miss'}",
                opt.index,
            )
        if opt.evictions != ref.evictions:
            return (
                f"sid {opt.sid}: evictions differ: {opt.evictions} vs "
                f"{ref.evictions}",
                opt.index,
            )
        if opt.links_removed != ref.links_removed:
            return (
                f"sid {opt.sid}: links_removed {opt.links_removed} vs "
                f"{ref.links_removed}",
                opt.index,
            )
    return None


def _diff_stats(optimized: SimulationStats, reference: SimulationStats,
                fields: tuple[str, ...] = _COMPARED_FIELDS) -> list[str]:
    problems = []
    for name in fields:
        a, b = getattr(optimized, name), getattr(reference, name)
        if a != b:
            problems.append(f"{name}: {a!r} vs {b!r}")
    return problems


def diff_check(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = DEFAULT_PRESSURES,
    unit_counts: tuple[int, ...] = STANDARD_UNIT_COUNTS,
    include_fine: bool = True,
    include_lru: bool = False,
    include_preempt: bool = False,
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    check_level: str | None = None,
    progress=None,
) -> DiffReport:
    """Replay every (benchmark, policy, pressure) cell through both
    simulators and report the differences.

    ``check_level`` additionally runs the production side under the
    invariant checker (``None`` defers to ``REPRO_CHECK_LEVEL``), so a
    single command exercises both halves of the sanitizer.
    ``include_lru`` extends the ladder with the Section 3.3 LRU arena,
    diffing true-LRU victim order and first-fit fragmentation against
    the reference byte arena; ``include_preempt`` extends it with
    Dynamo's preemptive flush, diffing the phase detector's flush
    timing and accounting against the op-for-op reference detector.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if trace_accesses is None:
        trace_accesses = DEFAULT_TRACE_ACCESSES
    if trace_accesses < 1:
        raise ConfigurationError("trace_accesses must be >= 1")
    if not pressures or min(pressures) < 1:
        raise ConfigurationError("pressure factors must be >= 1")
    production = ladder_policy_factories(unit_counts, include_fine,
                                         include_lru=include_lru,
                                         include_preempt=include_preempt)
    reference = reference_ladder(include_fine, tuple(unit_counts),
                                 include_lru=include_lru,
                                 include_preempt=include_preempt)
    report = DiffReport()
    for benchmark in benchmarks:
        spec = _spec_by_name(benchmark)
        workload = build_workload(spec, scale=scale,
                                  trace_accesses=trace_accesses)
        superblocks = workload.superblocks
        trace = workload.trace.tolist()
        for pressure in pressures:
            capacity = pressured_capacity(superblocks, pressure)
            for (name, factory), (ref_name, build) in zip(production,
                                                          reference):
                assert name == ref_name, "ladders out of step"
                outcomes: list[AccessOutcome] = []

                def observe(index, sid, hit, evictions, links_removed):
                    outcomes.append(AccessOutcome(
                        index, sid, hit, evictions, links_removed))

                context = {"benchmark": benchmark, "scale": scale,
                           "pressure": pressure, "seed": spec.seed}
                simulator = CodeCacheSimulator(
                    superblocks, factory(), capacity,
                    overhead_model=overhead_model,
                    track_links=track_links,
                    check_level=check_level,
                    check_context=context,
                )
                opt_stats = simulator.process(trace, benchmark=benchmark,
                                              observer=observe)
                opt_stats.policy_name = name
                fast_stats = CodeCacheSimulator(
                    superblocks, factory(), capacity,
                    overhead_model=overhead_model, track_links=False,
                    check_level=check_level, check_context=context,
                ).process(trace, benchmark=benchmark)
                ref_run = build(superblocks, capacity,
                                model=overhead_model,
                                track_links=track_links)
                ref_result = ref_run.run(trace, benchmark=benchmark)
                report.runs += 1
                report.accesses_compared += len(outcomes)
                divergence = _diff_outcomes(outcomes, ref_result.outcomes)
                if divergence is not None:
                    detail, index = divergence
                    report.mismatches.append(DiffMismatch(
                        benchmark, name, pressure, "access", detail, index))
                for problem in _diff_stats(opt_stats, ref_result.stats):
                    report.mismatches.append(DiffMismatch(
                        benchmark, name, pressure, "stats", problem))
                for problem in _diff_stats(fast_stats, ref_result.stats,
                                           _RESIDENCY_FIELDS):
                    report.mismatches.append(DiffMismatch(
                        benchmark, name, pressure, "stats",
                        f"unobserved replay: {problem}"))
            if progress is not None:
                progress(f"diffed {benchmark} @ pressure {pressure:g}")
    return report


@dataclass
class KernelCheckReport:
    """Outcome of a one-pass-kernel vs replay equivalence run."""

    runs: int = 0
    cells: int = 0
    mismatches: list[DiffMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self, precision: int = 4) -> str:
        lines = [
            f"kernel-check: {self.runs} sweep run(s), "
            f"{self.cells} grid cell(s) compared",
        ]
        if self.ok:
            lines.append("  PASS: one-pass kernel and replay engine are "
                         "field-identical")
        else:
            lines.append(f"  FAIL: {len(self.mismatches)} mismatch(es)")
            for m in self.mismatches:
                lines.append(
                    f"  {m.benchmark} / {m.policy} / pressure "
                    f"{m.pressure:g}: {m.detail}"
                )
        return "\n".join(lines)


def kernel_check(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = DEFAULT_PRESSURES,
    unit_counts: tuple[int, ...] = STANDARD_UNIT_COUNTS,
    include_fine: bool = True,
    overhead_model: OverheadModel = PAPER_MODEL,
    progress=None,
) -> KernelCheckReport:
    """One-pass kernel vs replay equivalence over a sweep grid.

    Runs the same (benchmark, policy, pressure) grid twice per
    link-tracking mode — once through the one-pass kernel, once through
    full replay — and requires every statistics field to be *exactly*
    equal.  The kernel's contract is bit-identity (including IEEE-754
    double accumulation order), so unlike :func:`diff_check` no float
    tolerance applies.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if trace_accesses is None:
        trace_accesses = DEFAULT_TRACE_ACCESSES
    if trace_accesses < 1:
        raise ConfigurationError("trace_accesses must be >= 1")
    if not pressures or min(pressures) < 1:
        raise ConfigurationError("pressure factors must be >= 1")
    factories = ladder_policy_factories(unit_counts, include_fine)
    report = KernelCheckReport()
    for benchmark in benchmarks:
        spec = _spec_by_name(benchmark)
        workload = build_workload(spec, scale=scale,
                                  trace_accesses=trace_accesses)
        for track_links in (True, False):
            # check_level="off" on both sides: the kernel has no
            # invariant hooks, so an inherited REPRO_CHECK_LEVEL would
            # silently turn this into replay-vs-replay.
            kernel = run_sweep([workload], factories, pressures=pressures,
                               overhead_model=overhead_model,
                               track_links=track_links,
                               check_level="off", one_pass=True)
            replay = run_sweep([workload], factories, pressures=pressures,
                               overhead_model=overhead_model,
                               track_links=track_links,
                               check_level="off", one_pass=False)
            report.runs += 2
            for point, want in replay.stats.items():
                got = kernel.stats[point]
                report.cells += 1
                got_dict = dataclasses.asdict(got)
                want_dict = dataclasses.asdict(want)
                if got_dict != want_dict:
                    diffs = {key: (got_dict[key], want_dict[key])
                             for key in got_dict
                             if got_dict[key] != want_dict[key]}
                    report.mismatches.append(DiffMismatch(
                        benchmark, point[1], point[2], "stats",
                        f"links={track_links}: kernel vs replay {diffs}"))
        if progress is not None:
            progress(f"kernel-checked {benchmark}")
    return report
