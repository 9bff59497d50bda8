"""Cross-tenant superblock sharing: content-keyed dedup, refcounted
residency, fractional attribution, deferred eviction — all under the
paranoid checker, plus durability and wire-shape coverage."""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ConfigurationError
from repro.core.policies import UnitFifoPolicy
from repro.service.persist import ArenaPersister, recover_arena
from repro.service.server import benchmark_population
from repro.service.tenancy import (
    SHARED_BASE,
    SharedArena,
    TenantQuota,
    content_digests,
)


def _arena(capacity=64 * 1024, sharing=True, **kwargs):
    return SharedArena(UnitFifoPolicy(8), capacity, sharing=sharing,
                       **kwargs)


def _population(count, seed=0, low=64, high=2048, tag="w"):
    rng = random.Random(seed)
    sizes = [rng.randrange(low, high) for _ in range(count)]
    digests = [f"{tag}:{seed}:{i}:{size}" for i, size in enumerate(sizes)]
    return sizes, digests


class TestDedupMapping:
    def test_identical_digests_map_to_one_gid(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(12)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert a.block_map == b.block_map
        assert all(gid >= SHARED_BASE for gid in a.block_map)
        assert len(arena.sharing.by_digest) == 12
        arena.check_now()

    def test_disjoint_digests_stay_disjoint(self):
        arena = _arena(check_level="paranoid")
        sizes_a, digests_a = _population(8, seed=1, tag="a")
        sizes_b, digests_b = _population(8, seed=2, tag="b")
        arena.attach("a", sizes_a, block_digests=digests_a)
        arena.attach("b", sizes_b, block_digests=digests_b)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert not set(a.block_map) & set(b.block_map)
        assert len(arena.sharing.by_digest) == 16
        arena.check_now()

    def test_missing_digests_degrade_to_private_namespace(self):
        """Sharing on, no digests: tenants fall back to per-tenant
        private content — exactly the legacy namespacing behaviour."""
        arena = _arena(check_level="paranoid")
        sizes = [512] * 8
        arena.attach("a", sizes)
        arena.attach("b", sizes)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert not set(a.block_map) & set(b.block_map)
        arena.check_now()

    def test_second_tenant_hit_joins_without_a_miss(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(4)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        assert not arena.access("a", 0)          # cold: a misses
        assert arena.access("b", 0)              # warm join: b hits
        assert arena.tenant_stats("b").misses == 0
        assert arena.tenant_stats("b").inserted_bytes == 0
        assert arena.to_dict()["sharing_stats"]["shared_joins"] == 1
        # Both hold the block; only one physical copy exists.
        assert arena.to_dict()["logical_bytes"] == 2 * sizes[0]
        assert arena.to_dict()["resident_bytes"] == sizes[0]
        arena.check_now()


class TestAttachValidation:
    def test_duplicate_digests_rejected(self):
        arena = _arena()
        with pytest.raises(ConfigurationError, match="duplicate"):
            arena.attach("a", [512, 512], block_digests=["d", "d"])

    def test_length_mismatch_rejected(self):
        arena = _arena()
        with pytest.raises(ConfigurationError, match="digests"):
            arena.attach("a", [512, 512], block_digests=["d"])

    def test_size_collision_rejected(self):
        arena = _arena()
        arena.attach("a", [512], block_digests=["d"])
        with pytest.raises(ConfigurationError, match="collision"):
            arena.attach("b", [1024], block_digests=["d"])

    def test_digests_without_sharing_rejected(self):
        arena = _arena(sharing=False)
        with pytest.raises(ConfigurationError, match="sharing"):
            arena.attach("a", [512], block_digests=["d"])


class TestAttribution:
    def test_join_halves_attribution(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(1, low=1000, high=1001)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access("a", 0)
        assert arena._tenants["a"].attributed_bytes == sizes[0]
        arena.access("b", 0)
        assert arena._tenants["a"].attributed_bytes == sizes[0] / 2
        assert arena._tenants["b"].attributed_bytes == sizes[0] / 2
        arena.check_now()

    def test_policy_eviction_splits_bytes_exactly(self):
        """Largest-remainder split: the per-owner eviction shares are
        integers that sum to the block size even when it does not
        divide evenly."""
        arena = _arena(capacity=8 * 1024, max_block_bytes=1024,
                       check_level="paranoid")
        # One shared block of odd size, three owners, then enough
        # private inserts to force it out.
        arena.attach("a", [1001], block_digests=["shared"])
        arena.attach("b", [1001], block_digests=["shared"])
        arena.attach("c", [1001], block_digests=["shared"])
        filler_sizes, filler_digests = _population(
            16, seed=9, low=900, high=1000, tag="filler"
        )
        arena.attach("filler", filler_sizes,
                     block_digests=filler_digests)
        for name in ("a", "b", "c"):
            arena.access(name, 0)
        for sid in range(16):
            arena.access("filler", sid)
        evicted = sum(arena.tenant_stats(n).evicted_bytes
                      for n in ("a", "b", "c"))
        assert evicted in (0, 1001)
        if evicted:
            shares = sorted(arena.tenant_stats(n).evicted_bytes
                            for n in ("a", "b", "c"))
            assert shares in ([333, 334, 334], [0, 0, 0])
            assert arena.to_dict()["sharing_stats"][
                "shared_policy_evictions"] >= 1
        arena.check_now()

    def test_deferred_release_until_last_owner(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(6, low=500, high=600)
        total = sum(sizes)
        for name in ("a", "b", "c"):
            arena.attach(name, sizes, block_digests=digests)
            for sid in range(6):
                arena.access(name, sid)
        # Co-owner departures charge no eviction anywhere.
        first = arena.detach("a")
        assert first.evicted_bytes == 0
        second = arena.detach("b")
        assert second.evicted_bytes == 0
        assert arena.resident_bytes == total
        stats = arena.to_dict()["sharing_stats"]
        assert stats["deferred_releases"] == 12
        # The last owner pays for the physical eviction.
        last = arena.detach("c")
        assert last.evicted_bytes == total
        assert arena.resident_bytes == 0
        assert arena.to_dict()["logical_bytes"] == 0
        arena.check_now()

    def test_quota_reclaim_uses_fractional_held_bytes(self):
        """A tenant holding only half of every shared block stays
        under a quota that its full resident footprint would bust."""
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(8, low=500, high=600)
        footprint = sum(sizes)
        arena.attach("a", sizes, block_digests=digests)
        quota = TenantQuota(quota_bytes=(footprint // 2) + 600)
        arena.attach("b", sizes, block_digests=digests, quota=quota)
        for sid in range(8):
            arena.access("a", sid)
        for sid in range(8):
            arena.access("b", sid)
        b = arena._tenants["b"]
        # All joins: b's attributed share is half its resident bytes.
        assert b.resident_bytes == footprint
        assert b.attributed_bytes == pytest.approx(footprint / 2)
        assert arena.tenant_stats("b").evicted_bytes == 0
        arena.check_now()


class TestOverheadAttribution:
    """Equation 2's inputs are split across tenants without loss: the
    owners carry the evicted bytes (largest-remainder splits included)
    and the inserters carry the invocations, so the per-tenant counters
    sum to the policy's own eviction events, dedup on and off."""

    @pytest.mark.parametrize("sharing", (True, False))
    def test_tenant_counters_sum_to_the_physical_evictions(self, sharing):
        arena = _arena(capacity=16 * 1024, sharing=sharing,
                       pressure_threshold=0.9, reclaim_fraction=0.7)
        physical = {"invocations": 0, "bytes": 0}
        policy = arena.policy

        def recording(method):
            def record(*args):
                events = method(*args)
                physical["invocations"] += len(events)
                physical["bytes"] += sum(e.bytes_evicted for e in events)
                return events
            return record

        policy.insert = recording(policy.insert)
        policy.evict_blocks = recording(policy.evict_blocks)
        sizes, digests = _population(24, seed=3, low=200, high=1500)
        names = ["t0", "t1", "t2"]
        for name in names:
            arena.attach(name, sizes,
                         block_digests=digests if sharing else None)
        rng = random.Random(11)
        for _ in range(800):
            arena.access(rng.choice(names), rng.randrange(24))
        records = [arena.detach(names[0])]
        records += [arena.tenant_stats(name) for name in names[1:]]

        assert physical["invocations"] > 0
        assert (sum(r.evicted_bytes for r in records)
                == physical["bytes"])
        assert (sum(r.eviction_invocations for r in records)
                == physical["invocations"])
        if sharing:
            assert arena.to_dict()["sharing_stats"][
                "shared_policy_evictions"] > 0
        merged = arena.unified_stats()
        cost = merged.overhead_model.eviction
        assert merged.eviction_overhead == (
            cost.slope * physical["bytes"]
            + cost.intercept * physical["invocations"])


class TestChurn:
    @pytest.mark.parametrize("tenants", (2, 4))
    def test_paranoid_random_churn_stays_conservation_clean(self, tenants):
        arena = _arena(capacity=16 * 1024, check_level="paranoid",
                       pressure_threshold=0.9, reclaim_fraction=0.7)
        sizes, digests = _population(24, seed=3, low=200, high=1500)
        names = [f"t{i}" for i in range(tenants)]
        for name in names:
            arena.attach(name, sizes, block_digests=digests)
        rng = random.Random(7)
        for _ in range(600):
            arena.access(rng.choice(names), rng.randrange(24))
        arena.check_now()
        merged = arena.unified_stats()
        assert (merged.inserted_bytes - merged.evicted_bytes
                == arena.resident_bytes)
        report = arena.to_dict()
        assert report["sharing_stats"]["dedup_ratio"] >= 1.0
        for name in list(names):
            arena.detach(name)
        arena.check_now()
        assert arena.resident_bytes == 0
        assert arena.to_dict()["logical_bytes"] == 0


class TestDurability:
    def test_sharing_state_round_trips_through_snapshot(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, report = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        assert not report["recovered"]
        sizes, digests = _population(8, low=500, high=600)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access_many("a", list(range(8)), tseq=1)
        arena.access_many("b", list(range(8)), tseq=1)
        assert arena.snapshot_now()
        persister.close()

        restarted_persister = ArenaPersister(
            tmp_path, snapshot_interval=10**9
        )
        restored, report = recover_arena(
            restarted_persister, policy="8-unit",
            capacity_bytes=64 * 1024, max_block_bytes=8192, sharing=True,
        )
        assert report["recovered"] and report["snapshot_loaded"]
        assert restored.sharing_enabled
        assert restored.resident_bytes == arena.resident_bytes
        for name in ("a", "b"):
            assert restored.tenant_stats(name) == arena.tenant_stats(name)
            assert (restored._tenants[name].block_map
                    == arena._tenants[name].block_map)
            assert (restored._tenants[name].attributed_bytes
                    == pytest.approx(
                        arena._tenants[name].attributed_bytes))
        want = {d: (e.gid, e.size, e.owners, e.mapped)
                for d, e in arena.sharing.by_digest.items()}
        got = {d: (e.gid, e.size, e.owners, e.mapped)
               for d, e in restored.sharing.by_digest.items()}
        assert got == want
        restored.check_now()
        restarted_persister.close()

    def test_wal_replay_reproduces_shared_joins(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        sizes, digests = _population(8, low=500, high=600)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access_many("a", list(range(8)), tseq=1)
        arena.access_many("b", list(range(8)), tseq=1)
        reference = {n: arena.tenant_stats(n) for n in ("a", "b")}
        joins = arena.to_dict()["sharing_stats"]["shared_joins"]
        assert joins == 8
        persister.close()  # no snapshot: recovery is WAL-only

        restarted_persister = ArenaPersister(
            tmp_path, snapshot_interval=10**9
        )
        restored, report = recover_arena(
            restarted_persister, policy="8-unit",
            capacity_bytes=64 * 1024, max_block_bytes=8192, sharing=True,
        )
        assert report["recovered"] and not report["snapshot_loaded"]
        for name in ("a", "b"):
            assert restored.tenant_stats(name) == reference[name]
        assert restored.to_dict()["sharing_stats"]["shared_joins"] == joins
        restored.check_now()
        restarted_persister.close()

    def test_fingerprint_separates_sharing_modes(self, tmp_path):
        """A sharing arena's snapshot must not load into a legacy
        worker (and vice versa) — the gid spaces are incompatible."""
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        sizes, digests = _population(4)
        arena.attach("a", sizes, block_digests=digests)
        arena.access_many("a", [0], tseq=1)
        assert arena.snapshot_now()
        persister.close()

        legacy_persister = ArenaPersister(tmp_path,
                                          snapshot_interval=10**9)
        with pytest.warns(RuntimeWarning):
            _, report = recover_arena(
                legacy_persister, policy="8-unit",
                capacity_bytes=64 * 1024, max_block_bytes=8192,
                sharing=False,
            )
        assert not report["snapshot_loaded"]
        record = legacy_persister.last_quarantine_record
        assert record["expected_fingerprint"]["sharing"] is False
        assert record["actual_fingerprint"]["sharing"] is True
        legacy_persister.close()


class TestServerIntegration:
    def test_benchmark_population_is_deterministic(self):
        sizes_a, digests_a = benchmark_population("gzip", 0.25)
        sizes_b, digests_b = benchmark_population("gzip", 0.25)
        assert sizes_a == sizes_b and digests_a == digests_b
        assert len(sizes_a) == len(digests_a)
        # Different benchmark or scale means different content.
        _, other = benchmark_population("gcc", 0.25)
        assert set(digests_a).isdisjoint(other)

    def test_content_digests_depend_on_seed(self):
        sizes, digests = benchmark_population("gzip", 0.25)
        from repro.workloads.registry import build_workload, get_benchmark
        spec = get_benchmark("gzip")
        workload = build_workload(spec, 0.25, 64, seed=spec.seed + 1)
        reseeded = content_digests(
            "gzip", 0.25, spec.seed + 1, workload.superblocks
        )
        assert digests != reseeded

    def test_sessions_share_one_copy_over_tcp(self):
        async def scenario():
            from repro.service.client import ServiceClient
            from repro.service.server import CacheService, ServiceConfig
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=256 * 1024,
                check_level="paranoid", sharing=True,
            ))
            await service.start()
            clients, blocks = [], None
            for name in ("a", "b"):
                client = await ServiceClient.connect(
                    "127.0.0.1", service.port
                )
                greeting = await client.hello(
                    name, benchmark="gzip", scale=0.1
                )
                assert greeting["sharing"] is True
                blocks = greeting["blocks"]
                clients.append(client)
            sids = list(range(min(24, blocks)))
            for client in clients:
                reply = await client.access(sids, sync=True)
                assert reply["ok"]
            report = service.arena.to_dict()
            assert report["sharing_stats"]["shared_joins"] == len(sids)
            assert report["logical_bytes"] == 2 * report["resident_bytes"]
            for client in clients:
                await client.close_session()
                await client.aclose()
            await service.drain()

        asyncio.run(scenario())


class TestDisjointNoOpProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sharing_is_noop_without_common_content(self, data):
        """On disjoint-content workloads, a sharing arena produces
        per-tenant stats identical to a legacy arena replaying the
        same interleaving."""
        tenant_count = data.draw(st.integers(2, 3), label="tenants")
        populations = []
        for t in range(tenant_count):
            count = data.draw(st.integers(2, 8), label=f"count{t}")
            sizes = data.draw(
                st.lists(st.integers(64, 2048), min_size=count,
                         max_size=count),
                label=f"sizes{t}",
            )
            digests = [f"tenant{t}/block{i}" for i in range(count)]
            populations.append((sizes, digests))
        steps = data.draw(
            st.lists(
                st.tuples(st.integers(0, tenant_count - 1),
                          st.integers(0, 63)),
                min_size=1, max_size=120,
            ),
            label="steps",
        )

        shared = _arena(capacity=8 * 1024, sharing=True,
                        check_level="paranoid")
        legacy = _arena(capacity=8 * 1024, sharing=False,
                        check_level="paranoid")
        for arena in (shared, legacy):
            for t, (sizes, digests) in enumerate(populations):
                arena.attach(
                    f"t{t}", sizes,
                    block_digests=(digests if arena.sharing_enabled
                                   else None),
                )
        for t, raw_sid in steps:
            sid = raw_sid % len(populations[t][0])
            assert (shared.access(f"t{t}", sid)
                    == legacy.access(f"t{t}", sid))
        for t in range(tenant_count):
            assert (shared.tenant_stats(f"t{t}")
                    == legacy.tenant_stats(f"t{t}"))
        assert shared.resident_bytes == legacy.resident_bytes
        assert (shared.to_dict()["sharing_stats"]["shared_joins"] == 0)
        shared.check_now()
        legacy.check_now()
