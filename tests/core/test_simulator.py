"""Unit tests for the trace-driven code cache simulator."""

from dataclasses import asdict, replace

import pytest

from repro.core.adaptive import AdaptiveUnitPolicy
from repro.core.lru import LruPolicy
from repro.core.metrics import SimulationStats, repriced_overhead
from repro.core.overhead import FREE_MODEL, PAPER_MODEL
from repro.core.placement import LinkAwarePlacementPolicy
from repro.core.policies import (
    FineGrainedFifoPolicy,
    FlushPolicy,
    GenerationalPolicy,
    PreemptiveFlushPolicy,
    UnitFifoPolicy,
)
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator, simulate
from repro.core.superblock import Superblock, SuperblockSet
from repro.search.expr import Binary, Feature, Unary
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import build_workload, get_benchmark
from repro.workloads.traces import loop_trace, scan_trace


def _uniform_blocks(count=10, size=100, self_loops=False):
    return SuperblockSet([
        Superblock(sid, size, links=((sid,) if self_loops else ()))
        for sid in range(count)
    ])


class TestHitMissAccounting:
    def test_loop_that_fits_misses_once_per_block(self):
        blocks = _uniform_blocks(4)
        stats = simulate(blocks, FlushPolicy(), 400,
                         loop_trace([0, 1, 2, 3], 50))
        assert stats.accesses == 200
        assert stats.misses == 4
        assert stats.hits == 196
        assert stats.eviction_invocations == 0

    def test_cyclic_scan_thrashes_every_policy(self):
        # The classic FIFO pathology: loop over more blocks than fit.
        blocks = _uniform_blocks(6)
        for policy in (FlushPolicy(), UnitFifoPolicy(2),
                       FineGrainedFifoPolicy()):
            stats = simulate(blocks, policy, 400, scan_trace(6, 30))
            assert stats.miss_rate == 1.0

    def test_hits_plus_misses_equals_accesses(self):
        blocks = _uniform_blocks(8)
        stats = simulate(blocks, UnitFifoPolicy(2), 500, scan_trace(8, 10))
        assert stats.hits + stats.misses == stats.accesses

    def test_stats_labels(self):
        blocks = _uniform_blocks(2)
        stats = simulate(blocks, FlushPolicy(), 400, [0, 1],
                         benchmark="toy")
        assert stats.benchmark == "toy"
        assert stats.policy_name == "FLUSH"


class TestOverheadCharging:
    def test_miss_overhead_exact(self):
        blocks = _uniform_blocks(1, size=230)
        stats = simulate(blocks, FlushPolicy(), 400, [0, 0, 0])
        assert stats.miss_overhead == pytest.approx(
            PAPER_MODEL.miss_cost(230)
        )
        assert stats.eviction_overhead == 0.0

    def test_eviction_overhead_exact(self):
        blocks = _uniform_blocks(3, size=100)
        # Capacity 200: inserting block 2 flushes blocks 0 and 1.
        stats = simulate(blocks, FlushPolicy(), 200, [0, 1, 2])
        assert stats.eviction_invocations == 1
        assert stats.evicted_bytes == 200
        assert stats.eviction_overhead == pytest.approx(
            PAPER_MODEL.eviction_cost(200)
        )

    def test_unlink_overhead_charged_for_surviving_sources(self):
        blocks = SuperblockSet([
            Superblock(0, 100, links=(1,)),
            Superblock(1, 100),
            Superblock(2, 100),
        ])
        policy = UnitFifoPolicy(2)
        stats = simulate(blocks, policy, 200, [0, 1, 2])
        # Units of 100 bytes: 0 in unit0, 1 in unit1, inserting 2 evicts
        # unit 0... the link 0->1 has source 0 evicted, so no unlink cost;
        # arrange the reverse instead.
        blocks2 = SuperblockSet([
            Superblock(0, 100),
            Superblock(1, 100, links=(0,)),
            Superblock(2, 100),
        ])
        stats2 = simulate(blocks2, UnitFifoPolicy(2), 200, [0, 1, 2])
        assert stats2.unlink_operations == 1
        assert stats2.links_removed == 1
        assert stats2.unlink_overhead == pytest.approx(
            PAPER_MODEL.unlink_cost(1)
        )
        assert stats.unlink_overhead == 0.0

    def test_free_model_charges_nothing(self):
        blocks = _uniform_blocks(6)
        free = simulate(blocks, FlushPolicy(), 300, scan_trace(6, 5),
                        overhead_model=FREE_MODEL)
        paper = simulate(blocks, FlushPolicy(), 300, scan_trace(6, 5))
        # The model prices the counters; it never changes them.
        assert free.overhead_model == FREE_MODEL
        assert free.misses > 0 and free.eviction_invocations > 0
        assert replace(free, overhead_model=PAPER_MODEL) == paper
        assert free.total_overhead == 0.0
        assert paper.total_overhead == repriced_overhead(free, PAPER_MODEL)
        assert paper.total_overhead > 0

    def test_track_links_off_skips_link_accounting(self):
        blocks = SuperblockSet([
            Superblock(0, 100, links=(1,)),
            Superblock(1, 100, links=(0,)),
            Superblock(2, 100),
        ])
        stats = simulate(blocks, UnitFifoPolicy(2), 200, [0, 1, 2, 0, 1],
                         track_links=False)
        assert stats.links_established == 0
        assert stats.unlink_overhead == 0.0
        assert stats.peak_backpointer_bytes == 0


class TestPolicyBehaviourDifferences:
    def test_fine_fifo_beats_flush_on_skewed_trace(self):
        # A hot head plus a cold scan: FLUSH repeatedly kills the hot
        # block, fine FIFO keeps it longer.
        blocks = _uniform_blocks(12)
        trace = []
        for i in range(600):
            trace.append(0)
            trace.append(1 + (i % 11))
        flush = simulate(blocks, FlushPolicy(), 500, trace)
        fine = simulate(blocks, FineGrainedFifoPolicy(), 500, trace)
        assert fine.misses < flush.misses

    def test_coarser_units_mean_fewer_invocations(self):
        blocks = _uniform_blocks(20)
        trace = scan_trace(20, 20)
        flush = simulate(blocks, FlushPolicy(), 1000, trace)
        medium = simulate(blocks, UnitFifoPolicy(5), 1000, trace)
        fine = simulate(blocks, FineGrainedFifoPolicy(), 1000, trace)
        assert flush.eviction_invocations < medium.eviction_invocations
        assert medium.eviction_invocations < fine.eviction_invocations

    def test_preemptive_policy_reports_flushes(self):
        blocks = _uniform_blocks(30)
        policy = PreemptiveFlushPolicy(fast_alpha=0.2, slow_alpha=0.001,
                                       spike_ratio=1.5,
                                       min_fill_fraction=0.2,
                                       warmup_accesses=20,
                                       cooldown_accesses=20)
        stats = simulate(blocks, policy, 1500, scan_trace(30, 20))
        assert stats.preemptive_flushes == policy.preemptive_flushes
        assert stats.preemptive_flushes > 0


class TestSimulatorConstruction:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CodeCacheSimulator(_uniform_blocks(2), FlushPolicy(), 0)

    def test_simulator_reuse_accumulates_cache_state(self):
        blocks = _uniform_blocks(4)
        simulator = CodeCacheSimulator(blocks, FlushPolicy(), 400)
        first = simulator.process([0, 1, 2, 3])
        second = simulator.process([0, 1, 2, 3])
        assert first.misses == 4
        assert second.misses == 0  # still resident from the first pass


#: One factory per kind of access loop the simulator has to get right:
#: FIFO ladder rungs (fast loop), access-watching policies (PREEMPT,
#: GEN, ADAPT, LRU, priority) and link-aware placement.
_LOOP_POLICIES = {
    "FLUSH": lambda blocks: FlushPolicy(),
    "8-unit": lambda blocks: UnitFifoPolicy(8),
    "FINE": lambda blocks: FineGrainedFifoPolicy(),
    "PREEMPT": lambda blocks: PreemptiveFlushPolicy(
        warmup_accesses=50, cooldown_accesses=50,
        fast_alpha=0.2, slow_alpha=0.01),
    "GEN": lambda blocks: GenerationalPolicy(),
    "ADAPT": lambda blocks: AdaptiveUnitPolicy(epoch_accesses=300),
    "LRU": lambda blocks: LruPolicy(),
    "PLACE": lambda blocks: LinkAwarePlacementPolicy(blocks, 8),
    "PRIORITY": lambda blocks: PriorityFunctionPolicy(
        Binary("sub", Feature("hotness"), Unary("log1p", Feature("age"))),
        blocks),
}

#: The counters :meth:`CodeCacheSimulator.step` accumulates itself (the
#: link totals are filled in by ``process`` from the link manager).
_STEP_COUNTERS = (
    "accesses", "hits", "misses", "inserted_bytes",
    "eviction_invocations", "evicted_blocks", "evicted_bytes",
    "unlink_operations", "links_removed", "preemptive_flushes",
)


@pytest.fixture(scope="module")
def loop_workload():
    return build_workload(get_benchmark("gzip"), scale=0.2,
                          trace_accesses=1500)


class TestAccessLoopsAgree:
    """The fast loop, the chunked light loop and the ``step`` loop (with
    and without an observer, checked or not) are one semantics."""

    def _simulator(self, workload, name, track_links, check_level):
        blocks = workload.superblocks
        simulator = CodeCacheSimulator(
            blocks, _LOOP_POLICIES[name](blocks),
            pressured_capacity(blocks, 4.0),
            track_links=track_links, check_level=check_level)
        if simulator.checker is not None:
            # Several check passes (and light chunks) within the trace.
            simulator.checker.cadence = 400
        return simulator

    def _run(self, workload, name, track_links, check_level,
             observer=None):
        simulator = self._simulator(workload, name, track_links,
                                    check_level)
        return simulator.process(workload.trace, benchmark="gzip",
                                 observer=observer)

    @pytest.mark.parametrize("name", sorted(_LOOP_POLICIES))
    @pytest.mark.parametrize("track_links", (False, True))
    def test_every_path_gives_the_same_stats(self, loop_workload, name,
                                             track_links):
        want = asdict(self._run(loop_workload, name, track_links, "off"))
        assert want["accesses"] == len(loop_workload.trace)
        assert want["eviction_invocations"] > 0
        for check_level in ("off", "light", "paranoid"):
            for observe in (False, True):
                seen = []
                got = self._run(
                    loop_workload, name, track_links, check_level,
                    observer=(lambda *outcome: seen.append(outcome))
                    if observe else None)
                assert asdict(got) == want, (check_level, observe)
                if observe:
                    assert len(seen) == want["accesses"]

    @pytest.mark.parametrize("name", sorted(_LOOP_POLICIES))
    @pytest.mark.parametrize("track_links", (False, True))
    def test_manual_step_loop_matches_process(self, loop_workload, name,
                                              track_links):
        observed = []
        want = self._run(
            loop_workload, name, track_links, "off",
            observer=lambda index, sid, hit, evictions, removed:
                observed.append((hit, evictions)))
        simulator = self._simulator(loop_workload, name, track_links, "off")
        stats = SimulationStats(policy_name=want.policy_name)
        stepped = []
        for sid in loop_workload.trace.tolist():
            hit, events = simulator.step(sid, stats)
            stepped.append((hit, tuple(event.blocks for event in events)))
        assert stepped == observed
        for field in _STEP_COUNTERS:
            assert getattr(stats, field) == getattr(want, field), field
        links = simulator.links
        if links is not None:
            assert links.established_intra == want.links_established_intra
            assert links.established_inter == want.links_established_inter

    def test_flush_of_the_accessed_block_makes_a_miss(self):
        # The hook's eviction makes the pre-hook residency probe stale:
        # the access must re-probe, miss and re-insert, on every path.
        class FlushOnZero(FlushPolicy):
            def on_access(self, sid, hit):
                event = self._cache.flush() if sid == 0 else None
                return [event] if event is not None else []

        blocks = _uniform_blocks(3)
        trace = [0, 1, 0, 2, 2]
        for check_level in ("off", "paranoid"):
            seen = []
            stats = CodeCacheSimulator(
                blocks, FlushOnZero(), 300, check_level=check_level,
            ).process(trace, observer=lambda *outcome: seen.append(outcome))
            assert [hit for _, _, hit, _, _ in seen] == [
                False, False, False, False, True]
            assert seen[2][3] == ((0, 1),)
            assert (stats.misses, stats.preemptive_flushes) == (4, 1)
            assert stats.eviction_invocations == 1

    def test_preempt_flushes_within_the_trace(self, loop_workload):
        # Keeps the PREEMPT rows above from passing vacuously.
        assert self._run(loop_workload, "PREEMPT", True,
                         "off").preemptive_flushes > 0
