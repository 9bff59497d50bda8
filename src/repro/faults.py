"""Deterministic, seedable fault injection for robustness testing.

Long sweeps die in boring ways: a worker process is OOM-killed, a
straggler never returns, a cache file is torn by a crash mid-write.
Reproducing those failures on demand is the only way to test the
recovery paths, so this module gives the production code a handful of
named *fault points* — places where a test can arrange for an exception,
a hang, or corrupted bytes to appear — without the production code
changing behaviour at all when no plan is armed.

Design constraints, in order:

* **Zero overhead when disarmed.**  :func:`fire` is a module-global
  ``None`` check plus one branch; no plan means no allocation, no dict
  lookup, no environment read after the first call.
* **Deterministic.**  Which call fails is selected by an explicit
  attempt/call index, and corrupt-bytes mode derives its damage from a
  seed via :class:`random.Random` (string seeding is stable across
  processes and ``PYTHONHASHSEED`` values).  The same plan always
  produces the same failures.
* **Cross-process.**  Sweep workers run in a process pool.  Arming a
  plan publishes it both in this process (module global) and through
  the ``REPRO_FAULT_PLAN`` environment variable as JSON, so forked and
  spawned workers observe the same plan; per-attempt triggering keys on
  the attempt number the parent passes in, never on per-process call
  counters, so retries that land on a different worker still see a
  coherent schedule.

Named fault points wired into production code:

========================  ====================================================
``sweep.worker``          entry of one sweep task attempt (parallel or inline)
``cache.load``            bytes of a sweep-cache entry, before unpickling
``cache.store``           bytes of a sweep-cache entry, before writing
``checkpoint.load``       bytes of a per-task checkpoint, before unpickling
``checkpoint.store``      bytes of a per-task checkpoint, before writing
``cache.occupancy``       simulator cache state: occupancy accounting drift
``cache.fifo``            simulator cache state: FIFO age-order scramble
``cache.links``           simulator cache state: one-sided link record
``cache.metrics``         simulator stats: hits/misses conservation break
``cache.generation``      generational policy: promote-count membership break
``cache.arena``           LRU byte arena: free-list/placement accounting break
``cache.placement``       link-aware placement: partition assignment break
``service.accept``        service connection accept / session admission
``service.session``       one queued access batch in a session's consumer
``service.flush``         a session's queue flush (stats/close/drain); in
                          ``corrupt`` mode, the serialized stats payload a
                          flush reports (the session must quarantine the
                          damaged bytes and recover from the arena record)
``service.snapshot``      bytes of an arena snapshot, before write / unpickle
``service.replay``        one write-ahead-log record during arena recovery
``service.standby``       one WAL record as it is mirrored to the standby
                          replica (``corrupt`` mode damages the standby copy
                          only — the failover path must detect the torn line)
``router.route``          the router's shard-selection step for one tenant
========================  ====================================================

The ``cache.*`` state points are consumed by the invariant checker
(:mod:`repro.core.invariants`): arming a ``raise`` spec at one of them
makes the checker *corrupt the live simulator state* deterministically
at its next check boundary, which the checker must then detect — the
sanitizer's built-in self-test.

Tests arm a plan with :func:`arm` (or the :func:`plan` context manager)
and the production code reports into :func:`fire`, or, from a task on
an event loop, into :func:`fire_async`.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from dataclasses import dataclass, field

#: Environment variable carrying the armed plan as JSON so pool workers
#: (fork or spawn) inherit it.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

#: Valid injection modes.
MODES = ("raise", "hang", "corrupt")

#: Fault points production code currently reports into.
POINTS = (
    "sweep.worker",
    "cache.load",
    "cache.store",
    "checkpoint.load",
    "checkpoint.store",
    "cache.occupancy",
    "cache.fifo",
    "cache.links",
    "cache.metrics",
    "cache.generation",
    "cache.arena",
    "cache.placement",
    "service.accept",
    "service.session",
    "service.flush",
    "service.snapshot",
    "service.replay",
    "service.standby",
    "router.route",
)

#: The simulator-state corruption points the invariant checker services.
STATE_POINTS = (
    "cache.occupancy",
    "cache.fifo",
    "cache.links",
    "cache.metrics",
    "cache.generation",
    "cache.arena",
    "cache.placement",
)


class InjectedFault(RuntimeError):
    """Raised by an armed ``raise``-mode fault spec.

    Carries enough context (point, key, call index) for tests to assert
    exactly which injection fired.
    """

    def __init__(self, point: str, key: str | None, index: int) -> None:
        super().__init__(
            f"injected fault at {point!r}"
            + (f" key={key!r}" if key is not None else "")
            + f" call #{index}"
        )
        self.point = point
        self.key = key
        self.index = index

    def __reduce__(self):
        # Default exception pickling would replay __init__ with the
        # formatted message as the only argument; spell the real
        # constructor arguments out so the fault survives the trip back
        # from a worker process instead of breaking the pool.
        return (type(self), (self.point, self.key, self.index))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``times`` selects *which* calls fire: the spec triggers on call (or
    attempt) indices ``1..times`` at its point, so ``times=1`` fails the
    first attempt and lets every retry through, while ``times=3``
    outlasts two retries.  ``keys`` restricts the spec to specific task
    keys (``None`` hits every key).
    """

    point: str
    mode: str = "raise"
    times: int = 1
    keys: tuple[str, ...] | None = None
    hang_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected one of {POINTS}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; expected one of {MODES}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches(self, point: str, key: str | None) -> bool:
        if point != self.point:
            return False
        return self.keys is None or key in self.keys


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults, armable in one call."""

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def to_json(self) -> str:
        return json.dumps([
            {
                "point": spec.point,
                "mode": spec.mode,
                "times": spec.times,
                "keys": list(spec.keys) if spec.keys is not None else None,
                "hang_seconds": spec.hang_seconds,
                "seed": spec.seed,
            }
            for spec in self.specs
        ])

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        specs = []
        for raw in json.loads(blob):
            keys = raw.get("keys")
            specs.append(FaultSpec(
                point=raw["point"],
                mode=raw.get("mode", "raise"),
                times=int(raw.get("times", 1)),
                keys=tuple(keys) if keys is not None else None,
                hang_seconds=float(raw.get("hang_seconds", 60.0)),
                seed=int(raw.get("seed", 0)),
            ))
        return cls(specs=tuple(specs))


# -- Module state ------------------------------------------------------------

_PLAN: FaultPlan | None = None
#: Set once the environment has been consulted, so the disarmed fast
#: path never re-reads ``os.environ``.
_ENV_SCANNED = False
#: Per-(point, key) call counters for specs fired without an explicit
#: attempt index.  Process-local by construction.
_CALLS: dict[tuple[str, str | None], int] = {}


def arm(plan: FaultPlan) -> None:
    """Arm *plan* in this process and (via the environment) in workers."""
    global _PLAN, _ENV_SCANNED
    _PLAN = plan
    _ENV_SCANNED = True
    _CALLS.clear()
    os.environ[ENV_FAULT_PLAN] = plan.to_json()


def disarm() -> None:
    """Remove any armed plan and forget per-point call counts."""
    global _PLAN, _ENV_SCANNED
    _PLAN = None
    _ENV_SCANNED = True
    _CALLS.clear()
    os.environ.pop(ENV_FAULT_PLAN, None)


@contextlib.contextmanager
def plan(*specs: FaultSpec):
    """``with faults.plan(FaultSpec(...)):`` — arm for the block only."""
    arm(FaultPlan(specs=tuple(specs)))
    try:
        yield
    finally:
        disarm()


def active_plan() -> FaultPlan | None:
    """The armed plan, consulting ``REPRO_FAULT_PLAN`` at most once.

    Worker processes reach here on their first :func:`fire`: under the
    ``fork`` start method they inherit the parent's module state, under
    ``spawn`` they re-import this module and pick the plan up from the
    environment instead.
    """
    global _PLAN, _ENV_SCANNED
    if _PLAN is None and not _ENV_SCANNED:
        _ENV_SCANNED = True
        blob = os.environ.get(ENV_FAULT_PLAN, "")
        if blob:
            _PLAN = FaultPlan.from_json(blob)
    return _PLAN


def fire(point: str, key: str | None = None,
         attempt: int | None = None, data: bytes | None = None):
    """Report one call at *point*; inject whatever the armed plan says.

    ``attempt`` is the 1-based attempt index supplied by callers with
    retry semantics (the sweep executor); without it, a process-local
    per-(point, key) counter numbers the calls.  ``data`` is returned
    unchanged unless a ``corrupt`` spec fires, in which case a
    deterministically damaged copy comes back.  ``raise`` specs raise
    :class:`InjectedFault`; ``hang`` specs sleep for ``hang_seconds``
    (long enough to trip any reasonable task timeout).
    """
    current = _PLAN if _ENV_SCANNED else active_plan()
    if current is None:
        return data
    hang, data, error = _match(current, point, key, attempt, data)
    if hang:
        time.sleep(hang)
    if error is not None:
        raise error
    return data


async def fire_async(point: str, key: str | None = None,
                     data: bytes | None = None):
    """:func:`fire` for a task on an event loop: the same plan, call
    counter and outcome, but a ``hang`` awaits ``asyncio.sleep``, so it
    stalls only the awaiting task, not the loop."""
    current = _PLAN if _ENV_SCANNED else active_plan()
    if current is None:
        return data
    hang, data, error = _match(current, point, key, None, data)
    if hang:
        import asyncio  # already loaded: the caller is on an event loop

        await asyncio.sleep(hang)
    if error is not None:
        raise error
    return data


def _match(current: FaultPlan, point: str, key: str | None,
           attempt: int | None, data: bytes | None):
    """Number this call and apply the plan's specs in order: returns
    ``(hang_seconds, data, error)`` — the hangs before the first
    ``raise``, *data* after any ``corrupt``, and the fault to raise once
    the hang is served (or ``None``)."""
    index = attempt
    if index is None:
        index = _CALLS.get((point, key), 0) + 1
        _CALLS[(point, key)] = index
    hang = 0.0
    for spec in current.specs:
        if not spec.matches(point, key) or index > spec.times:
            continue
        if spec.mode == "raise":
            return hang, data, InjectedFault(point, key, index)
        if spec.mode == "hang":
            hang += spec.hang_seconds
        elif spec.mode == "corrupt" and data is not None:
            data = corrupt_bytes(data, seed=spec.seed, key=key, index=index)
    return hang, data, None


def corrupt_bytes(data: bytes, seed: int = 0,
                  key: str | None = None, index: int = 1) -> bytes:
    """A deterministically damaged copy of *data*.

    Flips one byte per 64 (at least one) at positions drawn from a
    :class:`random.Random` seeded by ``(seed, key, index)`` — string
    seeding hashes with SHA-512 internally, so the damage is identical
    in every process regardless of ``PYTHONHASHSEED``.
    """
    if not data:
        return b"\xff"
    rng = random.Random(f"{seed}:{key}:{index}")
    damaged = bytearray(data)
    for _ in range(max(1, len(damaged) // 64)):
        position = rng.randrange(len(damaged))
        damaged[position] ^= 0xFF
    return bytes(damaged)
