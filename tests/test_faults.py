"""Deterministic fault-injection registry: arming, firing, determinism."""

import asyncio
import os
import time

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def _always_disarm():
    faults.disarm()
    yield
    faults.disarm()


class TestSpecs:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.FaultSpec(point="no.such.point")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.FaultSpec(point="sweep.worker", mode="explode")

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(point="sweep.worker", times=0)

    def test_plan_round_trips_through_json(self):
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec(point="sweep.worker", mode="raise", times=3,
                             keys=("abc", "def")),
            faults.FaultSpec(point="cache.load", mode="corrupt", seed=7),
            faults.FaultSpec(point="cache.store", mode="hang",
                             hang_seconds=1.5),
        ))
        assert faults.FaultPlan.from_json(plan.to_json()) == plan


class TestFiring:
    def test_disarmed_fire_is_a_passthrough(self):
        assert faults.fire("sweep.worker", key="k") is None
        payload = b"payload"
        assert faults.fire("cache.load", data=payload) is payload

    def test_raise_mode_fires_on_scheduled_attempts_only(self):
        with faults.plan(faults.FaultSpec(point="sweep.worker", times=2)):
            for attempt in (1, 2):
                with pytest.raises(faults.InjectedFault) as info:
                    faults.fire("sweep.worker", key="k", attempt=attempt)
                assert info.value.index == attempt
            # Attempt 3 outlasts the schedule.
            faults.fire("sweep.worker", key="k", attempt=3)

    def test_call_counter_numbers_calls_without_attempt(self):
        with faults.plan(faults.FaultSpec(point="cache.load", times=1)):
            with pytest.raises(faults.InjectedFault):
                faults.fire("cache.load", key="k")
            # Second call at the same key passes; other keys have their
            # own counters and still fail their first call.
            faults.fire("cache.load", key="k")
            with pytest.raises(faults.InjectedFault):
                faults.fire("cache.load", key="other")

    def test_keys_restrict_the_blast_radius(self):
        spec = faults.FaultSpec(point="sweep.worker", keys=("target",))
        with faults.plan(spec):
            faults.fire("sweep.worker", key="bystander", attempt=1)
            with pytest.raises(faults.InjectedFault):
                faults.fire("sweep.worker", key="target", attempt=1)

    def test_wrong_point_never_fires(self):
        with faults.plan(faults.FaultSpec(point="cache.store")):
            faults.fire("sweep.worker", key="k", attempt=1)
            faults.fire("cache.load", key="k")

    def test_hang_mode_sleeps(self):
        spec = faults.FaultSpec(point="sweep.worker", mode="hang",
                                hang_seconds=0.2)
        with faults.plan(spec):
            started = time.monotonic()
            faults.fire("sweep.worker", key="k", attempt=1)
            assert time.monotonic() - started >= 0.15

    def test_corrupt_mode_damages_data_deterministically(self):
        spec = faults.FaultSpec(point="cache.load", mode="corrupt", seed=3)
        payload = bytes(range(256)) * 8
        with faults.plan(spec):
            first = faults.fire("cache.load", key="k", attempt=1,
                                data=payload)
        with faults.plan(spec):
            again = faults.fire("cache.load", key="k", attempt=1,
                                data=payload)
        assert first != payload
        assert first == again  # same seed/key/index -> same damage

    def test_corrupt_damage_varies_with_seed_and_key(self):
        payload = bytes(range(256)) * 8
        by_seed = [
            faults.corrupt_bytes(payload, seed=seed, key="k", index=1)
            for seed in (0, 1)
        ]
        assert by_seed[0] != by_seed[1]
        by_key = [
            faults.corrupt_bytes(payload, seed=0, key=key, index=1)
            for key in ("a", "b")
        ]
        assert by_key[0] != by_key[1]

    def test_corrupt_empty_data_still_returns_garbage(self):
        assert faults.corrupt_bytes(b"") == b"\xff"


def _outcome(call):
    """What one fault-point call did: its returned data or its fault."""
    try:
        return ("data", call())
    except faults.InjectedFault as fault:
        return ("raise", fault.point, fault.key, fault.index)


class TestFireAsync:
    def test_disarmed_fire_async_is_a_passthrough(self):
        payload = b"payload"
        assert asyncio.run(
            faults.fire_async("service.flush", key="k", data=payload)
        ) is payload

    def test_hang_awaits_without_blocking_the_loop(self):
        spec = faults.FaultSpec(point="service.session", mode="hang",
                                hang_seconds=0.3)

        async def scenario():
            ticks = 0

            async def sibling():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0.01)
                    ticks += 1

            ticker = asyncio.create_task(sibling())
            started = time.monotonic()
            await faults.fire_async("service.session", key="k")
            elapsed = time.monotonic() - started
            ticker.cancel()
            return elapsed, ticks

        with faults.plan(spec):
            elapsed, ticks = asyncio.run(scenario())
        assert elapsed >= 0.25
        assert ticks >= 5  # the sibling ran during the hang

    @pytest.mark.parametrize("specs", [
        (faults.FaultSpec(point="service.flush", times=2),),
        (faults.FaultSpec(point="service.flush", mode="corrupt", times=2,
                          seed=5),),
        (faults.FaultSpec(point="service.flush", mode="corrupt", seed=1),
         faults.FaultSpec(point="service.flush", times=3, keys=("b",))),
    ])
    def test_raise_and_corrupt_match_fire(self, specs):
        payload = bytes(range(256))
        calls = [("a", payload), ("b", payload), ("a", payload),
                 ("b", None), ("a", payload), ("b", payload)]
        with faults.plan(*specs):
            expected = [
                _outcome(lambda k=k, d=d: faults.fire(
                    "service.flush", key=k, data=d))
                for k, d in calls
            ]
        with faults.plan(*specs):
            got = [
                _outcome(lambda k=k, d=d: asyncio.run(faults.fire_async(
                    "service.flush", key=k, data=d)))
                for k, d in calls
            ]
        assert got == expected
        assert expected != [("data", d) for _, d in calls]  # plan fired

    def test_call_counter_is_shared_with_fire(self):
        spec = faults.FaultSpec(point="service.flush", times=2)
        with faults.plan(spec):
            with pytest.raises(faults.InjectedFault) as first:
                faults.fire("service.flush", key="k")
            with pytest.raises(faults.InjectedFault) as second:
                asyncio.run(faults.fire_async("service.flush", key="k"))
            # Call 3 outlasts the schedule, whichever entry reports it.
            faults.fire("service.flush", key="k")
            asyncio.run(faults.fire_async("service.flush", key="k"))
        assert (first.value.index, second.value.index) == (1, 2)


class TestArming:
    def test_arm_publishes_to_the_environment(self):
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec(point="sweep.worker"),
        ))
        faults.arm(plan)
        try:
            blob = os.environ[faults.ENV_FAULT_PLAN]
            assert faults.FaultPlan.from_json(blob) == plan
        finally:
            faults.disarm()
        assert faults.ENV_FAULT_PLAN not in os.environ

    def test_env_plan_is_picked_up_lazily(self, monkeypatch):
        plan = faults.FaultPlan(specs=(
            faults.FaultSpec(point="cache.store"),
        ))
        monkeypatch.setenv(faults.ENV_FAULT_PLAN, plan.to_json())
        # Simulate a freshly spawned worker: no in-process plan, env
        # not yet scanned.
        faults._PLAN = None
        faults._ENV_SCANNED = False
        assert faults.active_plan() == plan
        with pytest.raises(faults.InjectedFault):
            faults.fire("cache.store", key="k")

    def test_plan_context_manager_disarms_on_exit(self):
        with faults.plan(faults.FaultSpec(point="sweep.worker")):
            assert faults.active_plan() is not None
        assert faults.active_plan() is None
