"""The dynamic binary translator runtime: Figure 1, end to end.

This ties the substrate together into the execution model the paper
describes: interpret cold code while profiling, form superblocks at the
hotness threshold, cache them under a pluggable eviction policy, chain
their exits, and execute cached code "natively" (at full speed) until an
unchained exit returns control — through memory-protection toggles — to
the dispatcher.

All activity is charged to a :class:`~repro.dbt.costs.WorkMeter` in
simulated instructions, so a run yields both functional results (the
guest program's architectural state) and the timing/overhead data the
paper's Table 2 and calibration experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.invariants import InvariantChecker, resolve_check_level
from repro.core.overhead import ExecutionTimeModel
from repro.core.policies import EvictionPolicy, FlushPolicy
from repro.dbt.bbcache import BasicBlockCache
from repro.dbt.chaining import ChainingManager
from repro.dbt.costs import DEFAULT_COSTS, CostModel, WorkMeter
from repro.dbt.dispatch import DispatchTable
from repro.dbt.events import (
    EventLog,
    LinkPatched,
    SuperblockEntered,
    SuperblockEvicted,
    SuperblockFormed,
)
from repro.dbt.hotness import DEFAULT_HOT_THRESHOLD, HotnessProfile
from repro.dbt.memprotect import MemoryProtection
from repro.dbt.trace_selection import (
    DEFAULT_MAX_BLOCKS,
    DEFAULT_MAX_BYTES,
    select_superblock,
)
from repro.dbt.translator import (
    EXIT_STUB_BYTES,
    TranslatedSuperblock,
    translate,
    translated_size,
)
from repro.isa.cfg import build_cfg
from repro.isa.instructions import Opcode
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program

#: Meter categories used by the runtime itself.
INTERPRETATION = "interpretation"
NATIVE = "native"
DISPATCH = "dispatch"
EVICTION = "eviction"


class _RuntimeBlocks:
    """Ground-truth size map for the invariant checker.

    The DBT runtime forms superblocks as it runs, so — unlike the
    trace-driven simulator — there is no up-front population; the
    runtime registers each translated block's size with the checker at
    formation time and this adapter only supplies identity.
    """

    def __init__(self) -> None:
        self._sizes: dict[int, int] = {}

    def sizes(self) -> dict[int, int]:
        return self._sizes

    def __len__(self) -> int:
        return len(self._sizes)


class RuntimeObserver:
    """Callback surface for instrumenting a live run (the PAPI role).

    Subclass and override what you need; every hook receives the
    *measured work* of the routine that just ran, exactly as a counter
    probe around the real routine would.
    """

    def on_regeneration(self, guest_instructions: int, exit_count: int,
                        translated_bytes: int, work: float) -> None:
        """A superblock was (re)generated."""

    def on_eviction(self, block_count: int, bytes_evicted: int,
                    work: float) -> None:
        """One eviction invocation completed."""

    def on_unlink(self, links_removed: int, work: float) -> None:
        """Incoming links of one eviction candidate were unpatched."""


@dataclass
class RunResult:
    """Everything one DBT run produced."""

    guest_instructions: int = 0
    work: dict[str, float] = field(default_factory=dict)
    superblocks_formed: int = 0
    cache_entries: int = 0
    chained_transitions: int = 0
    unchained_exits: int = 0
    eviction_invocations: int = 0
    evicted_blocks: int = 0
    interpreted_blocks: int = 0
    #: Guest instructions by execution mode; the three sum to
    #: ``guest_instructions``.
    interpreted_instructions: int = 0
    bb_instructions: int = 0
    native_instructions: int = 0
    #: Basic-block cache statistics (zero when the cache is disabled).
    bb_blocks: int = 0
    bb_cache_bytes: int = 0
    halted: bool = False
    event_log: EventLog | None = None

    @property
    def total_work(self) -> float:
        return sum(self.work.values())

    def seconds(self, time_model: ExecutionTimeModel | None = None) -> float:
        """Simulated wall-clock time of the run."""
        model = time_model or ExecutionTimeModel()
        return model.seconds(self.total_work)


class DBTRuntime:
    """A complete dynamic optimization system over the guest ISA.

    Parameters
    ----------
    program:
        The guest program to run.
    policy:
        Code cache eviction policy; defaults to a FLUSH cache big enough
        that it never fills (DynamoRIO's unbounded default).
    cache_capacity:
        Code cache size in bytes; ``None`` means effectively unbounded.
    chaining_enabled:
        Disable to reproduce the Table 2 experiment.
    memory_protection:
        Whether unchained exits pay protection-toggle system calls.
    hot_threshold:
        Executions before a block head is considered hot (paper: 50).
    bb_cache:
        Keep a first-level basic-block cache, as DynamoRIO does
        (Section 2.2): each cold block is translated once, cheaply, and
        later executions avoid interpretation.  Disable to model a
        trace-cache-only system.
    record_entries:
        Record a :class:`SuperblockEntered` event per cache entry, so
        the run can drive the core simulator afterwards.  Disable for
        long timing-only runs.
    """

    def __init__(
        self,
        program: Program,
        policy: EvictionPolicy | None = None,
        cache_capacity: int | None = None,
        chaining_enabled: bool = True,
        memory_protection: bool = True,
        hot_threshold: int = DEFAULT_HOT_THRESHOLD,
        bb_cache: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        max_trace_blocks: int = DEFAULT_MAX_BLOCKS,
        max_trace_bytes: int = DEFAULT_MAX_BYTES,
        record_entries: bool = True,
        observer: "RuntimeObserver | None" = None,
        check_level: str | None = None,
        check_cadence: int | None = None,
    ) -> None:
        self.program = program
        self.cfg = build_cfg(program)
        self.costs = costs
        self.meter = WorkMeter()
        self.profile = HotnessProfile(hot_threshold)
        self.dispatch = DispatchTable()
        self.chaining = ChainingManager(costs, self.meter,
                                        enabled=chaining_enabled)
        self.memprotect = MemoryProtection(costs, self.meter,
                                           enabled=memory_protection)
        self.bb_cache = BasicBlockCache(costs, self.meter) if bb_cache \
            else None
        self.observer = observer
        self.max_trace_blocks = max_trace_blocks
        self.max_trace_bytes = max_trace_bytes
        self.record_entries = record_entries
        self.event_log = EventLog()
        largest = translated_size(
            max_trace_bytes, max_trace_blocks + 1
        ) + EXIT_STUB_BYTES
        if cache_capacity is None:
            cache_capacity = max(1 << 20, program.size_bytes * 16, largest)
        self.policy = policy or FlushPolicy()
        self.policy.configure(cache_capacity, largest)
        # Invariant checking over the live code cache (same tiers as the
        # trace-driven simulator): ``check_level`` explicit, else
        # REPRO_CHECK_LEVEL, else off.  The cadence counts cache
        # management operations (formations and evictions), not guest
        # instructions, and a final pass runs when the guest stops.
        level = resolve_check_level(check_level)
        self.check_level = level
        if level == "off":
            self.checker = None
        else:
            self.checker = InvariantChecker(
                self.policy, _RuntimeBlocks(), cache_capacity,
                level=level, cadence=check_cadence,
                context={"runtime": "dbt", "program": "guest"},
            )
        self._ops_until_check = (
            self.checker.cadence if self.checker is not None else 0
        )
        self._blocks_by_sid: dict[int, TranslatedSuperblock] = {}
        self._next_sid = 0
        self._result = RunResult(event_log=self.event_log)
        # Trace-head candidates, NET style: superblocks only start at
        # loop heads (backward-branch targets), call targets, and cache
        # exit targets — not at arbitrary interior blocks.
        self._head_candidates: set[int] = {program.entry_address}

    # -- Main loop -----------------------------------------------------------

    def run(self, max_guest_instructions: int = 2_000_000) -> RunResult:
        """Run the guest to completion or until the instruction budget."""
        interpreter = Interpreter(self.program)
        state = interpreter.state
        while (
            not state.halted
            and interpreter.instruction_count < max_guest_instructions
        ):
            sid = self.dispatch.lookup(state.pc)
            if sid is not None:
                self.meter.charge(DISPATCH, self.costs.dispatch_cost)
                self._execute_cached(sid, interpreter, max_guest_instructions)
            else:
                self._interpret_block(state.pc, interpreter)
        if self.checker is not None:
            # A run always ends with a full pass, whatever the cadence.
            self.checker.run_checks()
        result = self._result
        result.guest_instructions = interpreter.instruction_count
        result.halted = state.halted
        result.work = self.meter.breakdown()
        if self.bb_cache is not None:
            result.bb_blocks = len(self.bb_cache)
            result.bb_cache_bytes = self.bb_cache.total_bytes
        return result

    # -- Cold path: interpretation and formation ---------------------------

    def _interpret_block(self, pc: int, interpreter: Interpreter) -> None:
        block = self.cfg.block_at(pc)
        state = interpreter.state
        executed = interpreter.run_steps(len(block))
        bb_cache = self.bb_cache
        if bb_cache is not None and pc in bb_cache:
            bb_cache.charge_execution(executed)
            self._result.bb_instructions += executed
        else:
            self.meter.charge(
                INTERPRETATION,
                self.costs.interp_per_instruction * executed,
            )
            self._result.interpreted_blocks += 1
            self._result.interpreted_instructions += executed
            if bb_cache is not None:
                bb_cache.translate(block)
        # Every interpreted block is profiled (the selector needs real
        # path counts), but only trace-head candidates form superblocks.
        self.profile.record(pc)
        if not state.halted:
            terminator = block.terminator
            if terminator.opcode is Opcode.CALL or (
                terminator.is_control and state.pc <= pc
            ):
                self._head_candidates.add(state.pc)
        if (
            pc in self._head_candidates
            and self.profile.is_hot(pc)
            and self.dispatch.peek(pc) is None
        ):
            self._form_superblock(pc)

    def _form_superblock(self, head: int) -> None:
        selected = select_superblock(
            self.cfg,
            head,
            self.profile,
            max_blocks=self.max_trace_blocks,
            max_bytes=self.max_trace_bytes,
        )
        sid = self._next_sid
        self._next_sid += 1
        translated = translate(selected, sid, self.costs, self.meter)
        if self.observer is not None:
            self.observer.on_regeneration(
                translated.guest_instructions,
                len(translated.exit_targets),
                translated.size_bytes,
                self.costs.regeneration_work(
                    translated.guest_instructions,
                    len(translated.exit_targets),
                ),
            )
        if self.checker is not None:
            self.checker.register_block(sid, translated.size_bytes)
            self.checker.note_insert(sid)
        for event in self.policy.insert(sid, translated.size_bytes):
            self._account_eviction(event)
        self.dispatch.add(head, sid)
        self._maybe_check()
        self._blocks_by_sid[sid] = translated
        for source, target in self.chaining.on_insert(translated,
                                                      self.dispatch):
            self.event_log.record_link(LinkPatched(source, target))
        self._result.superblocks_formed += 1
        self.event_log.record_formed(
            SuperblockFormed(
                sid=sid,
                head_pc=head,
                size_bytes=translated.size_bytes,
                block_starts=translated.block_starts,
            )
        )

    def _account_eviction(self, event) -> None:
        costs = self.costs
        self.meter.charge(
            EVICTION,
            costs.eviction_work(event.block_count, event.bytes_evicted),
        )
        self.dispatch.remove(event.blocks)
        unlink_work = self.chaining.on_evict(event.blocks)
        if self.observer is not None:
            self.observer.on_eviction(
                event.block_count,
                event.bytes_evicted,
                costs.eviction_work(event.block_count,
                                    event.bytes_evicted),
            )
            for item in unlink_work:
                self.observer.on_unlink(
                    item.links_removed,
                    costs.unlink_work(item.links_removed),
                )
        for sid in event.blocks:
            del self._blocks_by_sid[sid]
            self.event_log.record_evicted(SuperblockEvicted(sid))
        self._result.eviction_invocations += 1
        self._result.evicted_blocks += event.block_count
        self._maybe_check()

    def _maybe_check(self) -> None:
        """Cadence-bounded invariant pass over the live cache state."""
        if self.checker is None:
            return
        self._ops_until_check -= 1
        if self._ops_until_check <= 0:
            self._ops_until_check = self.checker.cadence
            self.checker.run_checks(
                access_index=self._result.superblocks_formed
            )

    # -- Hot path: cached execution --------------------------------------------

    def _execute_cached(self, sid: int, interpreter: Interpreter,
                        budget: int) -> None:
        costs = self.costs
        meter = self.meter
        state = interpreter.state
        result = self._result
        while True:
            result.cache_entries += 1
            if self.record_entries:
                self.event_log.record_entered(SuperblockEntered(sid))
            translated = self._blocks_by_sid[sid]
            starts = translated.block_starts
            index = 0
            while True:
                executed = interpreter.run_steps(
                    len(self.cfg.block_at(starts[index])))
                meter.charge(NATIVE,
                             costs.native_per_instruction * executed)
                result.native_instructions += executed
                if state.halted or interpreter.instruction_count >= budget:
                    return
                if index + 1 < len(starts) and state.pc == starts[index + 1]:
                    index += 1
                    continue
                break
            target_sid = self.dispatch.peek(state.pc)
            if target_sid is not None and self.chaining.has_link(
                sid, target_sid
            ):
                result.chained_transitions += 1
                sid = target_sid
                continue
            result.unchained_exits += 1
            self.memprotect.on_cache_exit()
            if not state.halted:
                self._head_candidates.add(state.pc)
            return
