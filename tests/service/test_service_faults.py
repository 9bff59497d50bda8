"""Fault injection at the service points: a dying or hanging session
must fail alone — neighbours keep running, per-tenant stats stay
conserved, and the arena's invariants stay clean."""

import asyncio

import pytest

from repro import faults
from repro.service import protocol
from repro.service.server import CacheService, ServiceConfig
from repro.service.session import FAILED, SessionError


def _service(**overrides) -> CacheService:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01, check_level="light")
    defaults.update(overrides)
    return CacheService(ServiceConfig(**defaults))


class TestAcceptFaults:
    def test_accept_fault_rejects_hello(self):
        async def scenario():
            service = _service()
            with faults.plan(faults.FaultSpec(point="service.accept",
                                              keys=("doomed",))):
                with pytest.raises(faults.InjectedFault):
                    service.open_session("doomed", block_sizes=[512] * 4)
                # The failed admission left no residue; the same tenant
                # is admitted cleanly on retry (times=1 spent).
                session = service.open_session("doomed",
                                               block_sizes=[512] * 4)
                assert session.tenant == "doomed"

        asyncio.run(scenario())

    def test_accept_fault_surfaces_over_tcp(self):
        async def scenario():
            service = _service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                with faults.plan(faults.FaultSpec(point="service.accept")):
                    writer.write(protocol.encode(
                        {"op": "hello", "tenant": "t",
                         "block_sizes": [512] * 4}
                    ))
                    await writer.drain()
                    reply = protocol.decode_line(await reader.readline())
                assert not reply["ok"]
                assert reply["error"] == protocol.ERR_FAULT
            finally:
                writer.close()
                await writer.wait_closed()
            await service.drain()

        asyncio.run(scenario())


class TestSessionFaults:
    def test_failed_session_does_not_corrupt_neighbours(self):
        """The core isolation guarantee: tenant A's consumer dies on an
        injected fault mid-stream; tenant B's stream is untouched, A's
        stats are archived conserved, and the checker stays clean."""
        async def scenario():
            service = _service(check_level="paranoid")
            victim = service.open_session("victim",
                                          block_sizes=[512] * 16)
            bystander = service.open_session("bystander",
                                             block_sizes=[512] * 16)
            # The victim's first simulated batch dies inside the arena
            # pipeline; its queued follow-ups are drained unapplied.
            with faults.plan(faults.FaultSpec(point="service.session",
                                              keys=("victim",), times=1)):
                victim.submit(list(range(16)))
                victim.submit(list(range(16)))
                bystander.submit(list(range(16)))
                await bystander.flush()
                for _ in range(200):
                    if victim.state == FAILED:
                        break
                    await asyncio.sleep(0.01)
            assert victim.state == FAILED
            assert "InjectedFault" in victim.failure
            with pytest.raises(SessionError) as excinfo:
                victim.submit([0])
            assert excinfo.value.token == protocol.ERR_SESSION_FAILED

            # The bystander streams on as if nothing happened.
            bystander.submit(list(range(16)))
            stats = await bystander.stats()
            assert stats["accesses"] == 32
            assert stats["hits"] + stats["misses"] == 32

            # The victim's archived stats are internally conserved: it
            # was detached, so everything inserted was evicted.
            unified = service.arena.unified_stats()
            victim_accesses = unified.accesses - stats["accesses"]
            assert victim_accesses == victim.accesses_applied
            assert (unified.inserted_bytes - unified.evicted_bytes
                    == service.arena.resident_bytes)
            service.arena.check_now()  # clean paranoid pass
            await bystander.close()
            service.arena.check_now()

        asyncio.run(scenario())

    def test_hanging_session_stalls_only_itself(self):
        async def scenario():
            service = _service()
            slow = service.open_session("slow", block_sizes=[512] * 8)
            fast = service.open_session("fast", block_sizes=[512] * 8)
            with faults.plan(faults.FaultSpec(point="service.session",
                                              keys=("slow",), mode="hang",
                                              hang_seconds=0.4)):
                slow.submit(list(range(8)))
                await asyncio.sleep(0.05)  # the hang is now in flight
                # The neighbour completes a full round trip while the
                # slow tenant's consumer thread sleeps.
                fast.submit(list(range(8)))
                stats = await asyncio.wait_for(fast.stats(), timeout=0.3)
                assert stats["accesses"] == 8
                assert slow.batches_applied == 0
                # Once the hang elapses, the slow session recovers.
                await asyncio.wait_for(slow.flush(), timeout=2.0)
                assert slow.batches_applied == 1
            await service.drain()
            service.arena.check_now()

        asyncio.run(scenario())

    def test_flush_fault_surfaces_but_session_survives(self):
        async def scenario():
            service = _service()
            session = service.open_session("t", block_sizes=[512] * 4)
            session.submit([0, 1])
            with faults.plan(faults.FaultSpec(point="service.flush",
                                              times=1)):
                with pytest.raises(faults.InjectedFault):
                    await session.flush()
            # The fault hit the flush path, not the consumer: the
            # session is still open and a retried flush succeeds.
            stats = await session.stats()
            assert stats["accesses"] == 2
            await session.close()

        asyncio.run(scenario())

    def test_concurrent_tenants_with_one_faulted(self):
        """Many tenants streaming concurrently over TCP while one dies:
        total accounting across survivors + archived failures is exact."""
        from repro.service.client import ServiceClient

        async def one_tenant(port, name, batches):
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                await client.hello(name, block_sizes=[512] * 8)
                sent = 0
                for _ in range(batches):
                    reply = await client.access(list(range(8)))
                    if not reply["ok"]:
                        return name, sent, reply["error"]
                    sent += 8
                reply = await client.close_session()
                if not reply["ok"]:
                    return name, sent, reply["error"]
                return name, sent, None
            finally:
                await client.aclose()

        async def scenario():
            service = _service(check_level="paranoid")
            await service.start()
            with faults.plan(faults.FaultSpec(point="service.session",
                                              keys=("t2",), times=1)):
                results = await asyncio.gather(*(
                    one_tenant(service.port, f"t{i}", batches=6)
                    for i in range(4)
                ))
            survivors = [r for r in results if r[2] is None]
            assert len(survivors) == 3
            for name, sent, _ in survivors:
                assert sent == 48
            unified = service.arena.unified_stats()
            # Every access the arena *applied* is accounted once; the
            # faulted tenant applied some prefix of its stream.
            assert unified.accesses >= 3 * 48
            assert unified.accesses == unified.hits + unified.misses
            assert (unified.inserted_bytes - unified.evicted_bytes
                    == service.arena.resident_bytes)
            service.arena.check_now()
            await service.drain()

        asyncio.run(scenario())


class TestFlushCorruption:
    """The ``corrupt``-mode fault at ``service.flush``: a damaged stats
    payload must be caught by digest, quarantined, and recomputed from
    the authoritative arena record — never served."""

    # Note on times: ``Session.flush`` fires the point once with no
    # payload before ``_verified_stats`` fires it with one, so a spec
    # must budget that extra call.

    def test_corrupt_stats_quarantined_and_recovered(self, tmp_path):
        async def scenario():
            service = _service(snapshot_dir=str(tmp_path / "durable"))
            session = service.open_session("t", block_sizes=[512] * 16)
            session.submit(list(range(16)))
            clean = await session.stats()
            with faults.plan(faults.FaultSpec(point="service.flush",
                                              mode="corrupt", times=2,
                                              keys=("t",))):
                recovered = await session.stats()
            # The reply is the recomputed clean record, field for field.
            assert recovered == clean
            assert session.stats_quarantined == 1
            quarantine = service.persister.store.root / "quarantine"
            assert any("stats-t.corrupt" in p.name
                       for p in quarantine.iterdir())
            await service.drain()

        asyncio.run(scenario())

    def test_quarantine_warning_names_the_blob_and_reason(self, tmp_path):
        async def scenario():
            service = _service(snapshot_dir=str(tmp_path / "durable"))
            session = service.open_session("t", block_sizes=[512] * 16)
            session.submit(list(range(16)))
            with faults.plan(faults.FaultSpec(point="service.flush",
                                              mode="corrupt", times=2,
                                              keys=("t",))):
                with pytest.warns(RuntimeWarning) as caught:
                    await session.stats()
            messages = [str(w.message) for w in caught]
            assert ("quarantined corrupt flush payload for tenant 't': "
                    "blob stats-t.corrupt") in messages
            assert not any("sweep checkpoint" in m for m in messages)
            await service.drain()

        asyncio.run(scenario())

    def test_corruption_on_every_attempt_refuses_to_serve(self):
        async def scenario():
            service = _service()
            session = service.open_session("t", block_sizes=[512] * 16)
            session.submit(list(range(16)))
            with faults.plan(faults.FaultSpec(point="service.flush",
                                              mode="corrupt", times=10,
                                              keys=("t",))):
                with pytest.raises(SessionError) as excinfo:
                    await session.stats()
            assert excinfo.value.token == protocol.ERR_FAULT
            assert session.stats_quarantined == 3
            await service.drain()

        asyncio.run(scenario())

    def test_corrupt_flush_without_persister_still_recovers(self):
        async def scenario():
            service = _service()  # no snapshot_dir: nowhere to park bytes
            session = service.open_session("t", block_sizes=[512] * 16)
            session.submit(list(range(16)))
            clean = await session.stats()
            with faults.plan(faults.FaultSpec(point="service.flush",
                                              mode="corrupt", times=2,
                                              keys=("t",))):
                assert await session.stats() == clean
            assert session.stats_quarantined == 1
            await service.drain()

        asyncio.run(scenario())

    def test_corrupt_flush_surfaces_clean_stats_over_tcp(self, tmp_path):
        async def scenario():
            service = _service(snapshot_dir=str(tmp_path / "durable"))
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                writer.write(protocol.encode(
                    {"op": "hello", "tenant": "t",
                     "block_sizes": [512] * 16}
                ))
                await writer.drain()
                assert (protocol.decode_line(
                    await reader.readline()))["ok"]
                writer.write(protocol.encode(
                    {"op": "access", "sids": list(range(16)),
                     "sync": True}
                ))
                await writer.drain()
                assert (protocol.decode_line(
                    await reader.readline()))["ok"]
                with faults.plan(faults.FaultSpec(point="service.flush",
                                                  mode="corrupt",
                                                  times=2, keys=("t",))):
                    writer.write(protocol.encode({"op": "stats"}))
                    await writer.drain()
                    reply = protocol.decode_line(await reader.readline())
                assert reply["ok"]
                assert reply["tenant"]["accesses"] == 16
                assert reply["tenant"]["hits"] + reply["tenant"]["misses"] == 16
            finally:
                writer.close()
                await writer.wait_closed()
            await service.drain()

        asyncio.run(scenario())
