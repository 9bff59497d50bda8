"""The trace-driven code cache simulator — the paper's core methodology.

The paper replayed DynamoRIO's verbose logs ("the actual code regions
that a code cache would manage including actual region sizes and
inter-region links") through a code cache simulator, then attached the
analytical overhead penalties of Equations 2-4.  This module is that
simulator: it consumes a stream of superblock accesses, maintains the
cache under a chosen eviction policy, tracks chaining links, and counts
every miss, eviction invocation and unlink operation; the stats record
prices those counters with the overhead model.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.core.cache import ConfigurationError
from repro.core.invariants import InvariantChecker, resolve_check_level
from repro.core.links import LinkManager
from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.policies import EvictionPolicy
from repro.core.superblock import SuperblockSet

#: Per-access observer: ``(index, sid, hit, evictions, links_removed)``
#: where ``evictions`` is a tuple of evicted-block tuples (one per
#: eviction invocation this access triggered) and ``links_removed`` is
#: the number of links unpatched servicing it.  The differential oracle
#: (:mod:`repro.analysis.diffcheck`) uses this to compare per-access
#: outcomes against the reference model.
AccessObserver = Callable[[int, int, bool, tuple, int], None]


class CodeCacheSimulator:
    """Replays a superblock access trace against one policy configuration.

    Parameters
    ----------
    superblocks:
        The workload's superblock population (sizes and link graph).
    policy:
        An (unconfigured) eviction policy; the simulator configures it
        for *capacity_bytes*.
    capacity_bytes:
        The bounded code cache size — typically ``maxCache / n`` for a
        cache pressure factor ``n`` (Section 4.2).
    overhead_model:
        Instruction-cost model; defaults to the paper's coefficients.
    track_links:
        When false, chaining links are ignored entirely: no link
        bookkeeping and no Equation 4 charges.  Figures 6-11 use this
        mode; Figures 13-15 enable it.
    check_level:
        Invariant-checking level (``off``/``light``/``paranoid``); when
        ``None``, ``REPRO_CHECK_LEVEL`` decides (default ``off``).  At
        ``off`` no checker is constructed and the hot paths are the
        exact production code.  See :mod:`repro.core.invariants`.
    check_context:
        Extra identity (spec seed, scale, ...) for the repro bundle an
        :class:`~repro.core.invariants.InvariantViolation` carries.
    configure_policy:
        When false, *policy* arrives already configured — the service
        tier's snapshot restore hands over a policy whose cache state
        was deserialized and must not be reset.
    """

    def __init__(
        self,
        superblocks: SuperblockSet,
        policy: EvictionPolicy,
        capacity_bytes: int,
        overhead_model: OverheadModel = PAPER_MODEL,
        track_links: bool = True,
        check_level: str | None = None,
        check_context: Mapping | None = None,
        configure_policy: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        self.superblocks = superblocks
        self.policy = policy
        self.capacity_bytes = capacity_bytes
        self.overhead_model = overhead_model
        if configure_policy:
            policy.configure(capacity_bytes, superblocks.max_block_bytes)
        self.links = LinkManager(superblocks, policy) if track_links else None
        level = resolve_check_level(check_level)
        self.check_level = level
        self.checker = checker = None if level == "off" else InvariantChecker(
            policy, superblocks, capacity_bytes, links=self.links,
            level=level, context=check_context,
        )
        #: Cadence countdown for :meth:`step`; restarts at each process.
        self._step_until_check = checker.cadence if checker is not None else 0
        #: Insertion order only matters to the paranoid FIFO check.
        self._note_insert = (checker.note_insert
                             if level == "paranoid" else None)
        #: Bound once: the arena's ``_ArenaBlocks.sizes()`` is its live
        #: dict, so tenants attached later are still seen.
        self._sizes = superblocks.sizes()
        #: Policies that don't watch accesses skip the hook entirely.
        self._watches_accesses = (
            type(policy).on_access is not EvictionPolicy.on_access
        )

    def process(self, trace: Iterable[int], benchmark: str = "",
                observer: AccessObserver | None = None) -> SimulationStats:
        """Replay *trace* (an iterable of superblock ids); return stats.

        With no observer, links or access-watching policy and checking
        ``off`` or ``light``, this is :meth:`_replay_fast` (at ``light``
        in cadence-sized chunks, checked in between).  Otherwise it
        loops over :meth:`step`, bare unless an observer wants outcomes.
        A checked trace always ends with a full pass.
        """
        stats = SimulationStats(policy_name=self.policy.name,
                                benchmark=benchmark,
                                overhead_model=self.overhead_model)
        if hasattr(trace, "tolist"):
            # Plain ints hash measurably faster than numpy scalars in
            # the dict lookups that dominate the hot loop.
            trace = trace.tolist()
        checker = self.checker
        links = self.links
        if links is not None:
            intra0, inter0 = links.established_intra, links.established_inter
        if checker is not None:
            if benchmark:
                checker.context.setdefault("benchmark", benchmark)
            self._step_until_check = checker.cadence
        if (observer is None and links is None
                and not self._watches_accesses
                and (checker is None or checker.level == "light")):
            if checker is None:
                self._replay_fast(trace, stats)
            else:
                if not isinstance(trace, list):
                    trace = list(trace)
                cadence = checker.cadence
                for start in range(0, len(trace), cadence):
                    chunk = trace[start:start + cadence]
                    self._replay_fast(chunk, stats)
                    checker.run_checks(stats,
                                       access_index=start + len(chunk))
        elif observer is None:
            step = self.step
            for sid in trace:
                step(sid, stats)
        else:
            step = self.step
            for index, sid in enumerate(trace, 1):
                removed_before = stats.links_removed
                hit, events = step(sid, stats)
                observer(index, sid, hit,
                         tuple(event.blocks for event in events),
                         stats.links_removed - removed_before)
        if checker is not None:
            checker.run_checks(stats, access_index=stats.accesses)
        if links is not None:
            # This call's share, so that per-window calls (see
            # repro.analysis.timeline) sum to the one-shot totals.
            stats.links_established_intra = links.established_intra - intra0
            stats.links_established_inter = links.established_inter - inter0
            stats.peak_backpointer_bytes = links.peak_backpointer_bytes
        return stats

    def step(self, sid: int, stats: SimulationStats,
             on_evictions=None, before_insert=None) -> tuple[bool, Sequence]:
        """Process a single access, accumulating into *stats*.

        The one instrumented definition of an access: :meth:`process`
        loops over it whenever it cannot use :meth:`_replay_fast`, and
        the multi-tenant service (:mod:`repro.service`) calls it once
        per access, each tenant owning its own :class:`SimulationStats`
        record.  Returns ``(hit, events)`` where *events* are all the
        eviction invocations this access triggered: a preemptive flush
        from ``on_access`` first, then the insertion's.

        Parameters
        ----------
        on_evictions:
            ``(events, stats) -> None`` override for eviction
            accounting.  The default charges everything to *stats*; a
            multi-tenant caller instead attributes each evicted block to
            its owning tenant.
        before_insert:
            ``(sid, size) -> None`` hook called on a miss after the size
            is known but before the policy inserts — the seam where
            tenancy quota reclaim frees the tenant's own space so the
            shared policy does not have to evict other tenants' blocks.

        The checker (when enabled) runs at its cadence against *stats*,
        and at ``paranoid`` records insertion order; callers that split
        stats across tenants should construct the simulator with
        ``check_level='off'`` and drive an external checker against
        merged stats instead.
        """
        policy = self.policy
        stats.accesses += 1
        events = ()
        if self._watches_accesses:
            hinted = policy.contains(sid)
            preemptive = policy.on_access(sid, hinted)
            if preemptive:
                stats.preemptive_flushes += len(preemptive)
                (on_evictions or self._account_evictions)(preemptive, stats)
                events = preemptive
                # The hook evicted blocks (e.g. a preemptive flush), so
                # the pre-hook residency probe is stale for this access.
                hit = policy.contains(sid)
            else:
                hit = hinted
        else:
            hit = policy.contains(sid)
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
            size = self._sizes[sid]
            if before_insert is not None:
                before_insert(sid, size)
            stats.inserted_bytes += size
            inserted = policy.insert(sid, size)
            if inserted:
                (on_evictions or self._account_evictions)(inserted, stats)
                events = [*events, *inserted] if events else inserted
            if self._note_insert is not None:
                self._note_insert(sid)
            if self.links is not None:
                self.links.on_insert(sid)
        checker = self.checker
        if checker is not None:
            self._step_until_check -= 1
            if self._step_until_check <= 0:
                self._step_until_check = checker.cadence
                checker.run_checks(stats, access_index=stats.accesses,
                                   sid=sid)
        return hit, events

    def _replay_fast(self, trace, stats: SimulationStats) -> None:
        """The production loop: no links, no access-watching policy, no
        per-access instrumentation.

        Accumulates into locals and writes the stats record once at the
        end, keeping the hot loop to two method calls per hit and free
        of attribute stores.
        """
        policy = self.policy
        sizes = self._sizes
        contains = policy.contains
        insert = policy.insert
        accesses = hits = misses = 0
        inserted_bytes = 0
        invocations = evicted_blocks = evicted_bytes = 0
        for sid in trace:
            accesses += 1
            if contains(sid):
                hits += 1
                continue
            misses += 1
            size = sizes[sid]
            inserted_bytes += size
            for event in insert(sid, size):
                invocations += 1
                evicted_blocks += len(event.blocks)
                evicted_bytes += event.bytes_evicted
        stats.accesses += accesses
        stats.hits += hits
        stats.misses += misses
        stats.inserted_bytes += inserted_bytes
        stats.eviction_invocations += invocations
        stats.evicted_blocks += evicted_blocks
        stats.evicted_bytes += evicted_bytes

    def _account_evictions(self, events, stats: SimulationStats) -> None:
        """Count a batch of eviction events and the unlinking they
        cause."""
        links = self.links
        for event in events:
            stats.eviction_invocations += 1
            stats.evicted_blocks += len(event.blocks)
            stats.evicted_bytes += event.bytes_evicted
            if links is not None:
                for record in links.on_evict(event.blocks):
                    stats.unlink_operations += 1
                    stats.links_removed += record.links_removed


def simulate(
    superblocks: SuperblockSet,
    policy: EvictionPolicy,
    capacity_bytes: int,
    trace: Iterable[int],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    benchmark: str = "",
    check_level: str | None = None,
    check_context: Mapping | None = None,
) -> SimulationStats:
    """One-shot convenience wrapper: build a simulator and replay *trace*."""
    simulator = CodeCacheSimulator(
        superblocks,
        policy,
        capacity_bytes,
        overhead_model=overhead_model,
        track_links=track_links,
        check_level=check_level,
        check_context=check_context,
    )
    return simulator.process(trace, benchmark=benchmark)
