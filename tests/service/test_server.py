"""The service itself: admission control, the TCP protocol loop,
backpressure, and graceful drain."""

import asyncio
import threading

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import (
    CacheService,
    ServiceConfig,
    benchmark_sizes,
)
from repro.service.session import Session, SessionError
from repro.service.tenancy import SharedArena


def _service(**overrides) -> CacheService:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01)
    defaults.update(overrides)
    return CacheService(ServiceConfig(**defaults))


class TestAdmission:
    def test_session_limit_rejects_with_retry_after(self):
        async def scenario():
            service = _service(max_sessions=1)
            service.open_session("a", block_sizes=[512] * 4)
            with pytest.raises(SessionError) as excinfo:
                service.open_session("b", block_sizes=[512] * 4)
            assert excinfo.value.token == protocol.ERR_OVERLOADED
            assert excinfo.value.retry_after is not None
            assert service.sessions_rejected == 1

        asyncio.run(scenario())

    def test_duplicate_tenant_rejected(self):
        async def scenario():
            service = _service()
            service.open_session("a", block_sizes=[512] * 4)
            with pytest.raises(SessionError) as excinfo:
                service.open_session("a", block_sizes=[512] * 4)
            assert excinfo.value.token == protocol.ERR_BAD_REQUEST

        asyncio.run(scenario())

    def test_draining_rejects_new_sessions(self):
        async def scenario():
            service = _service()
            await service.drain()
            with pytest.raises(SessionError) as excinfo:
                service.open_session("late", block_sizes=[512] * 4)
            assert excinfo.value.token == protocol.ERR_DRAINING

        asyncio.run(scenario())

    def test_benchmark_name_resolves_sizes(self):
        sizes = benchmark_sizes("gzip", scale=0.25)
        assert sizes and all(s > 0 for s in sizes)
        async def scenario():
            service = _service()
            session = service.open_session("z", benchmark="gzip")
            assert session.tenant == "z"

        asyncio.run(scenario())


class TestSessionPipeline:
    def test_in_process_roundtrip(self):
        async def scenario():
            service = _service()
            session = service.open_session("t", block_sizes=[512] * 8)
            session.submit(list(range(8)))
            session.submit(list(range(8)))
            stats = await session.stats()
            assert stats["accesses"] == 16
            assert stats["misses"] == 8
            assert stats["hits"] == 8
            final = await session.close()
            assert final["accesses"] == 16

        asyncio.run(scenario())

    def test_backpressure_when_queue_full(self):
        async def scenario():
            service = _service(queue_batches=1)
            session = service.open_session("t", block_sizes=[512] * 8)
            # Freeze the consumer so the bounded queue actually fills.
            session._consumer.cancel()
            session.submit([0, 1])
            with pytest.raises(SessionError) as excinfo:
                session.submit([2, 3])
            assert excinfo.value.token == protocol.ERR_BACKPRESSURE
            assert excinfo.value.retry_after == 0.01

        asyncio.run(scenario())

    def test_closed_session_rejects_work(self):
        async def scenario():
            service = _service()
            session = service.open_session("t", block_sizes=[512] * 4)
            await session.close()
            with pytest.raises(SessionError) as excinfo:
                session.submit([0])
            assert excinfo.value.token == protocol.ERR_NO_SESSION

        asyncio.run(scenario())


class TestTcpProtocol:
    def test_full_conversation(self):
        async def scenario():
            service = _service(check_level="light")
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            try:
                pong = await client.ping()
                assert pong["ok"] and pong["version"] == 1
                greeting = await client.hello("t", block_sizes=[512] * 8)
                assert greeting["ok"]
                assert greeting["blocks"] == 8
                assert greeting["policy"] == "8-unit"
                for _ in range(3):
                    reply = await client.access(list(range(8)))
                    assert reply["ok"]
                stats = await client.stats()
                assert stats["tenant"]["accesses"] == 24
                assert stats["unified"]["accesses"] == 24
                assert stats["arena"]["tenants"] == 1
                farewell = await client.close_session()
                assert farewell["ok"]
                assert farewell["tenant"]["accesses"] == 24
                # Closed sessions leave the unified merge intact.
                assert farewell["unified"]["accesses"] == 24
            finally:
                await client.aclose()
            await service.drain()
            service.arena.check_now()

        asyncio.run(scenario())

    def test_arena_runs_on_the_loop_thread(self, monkeypatch):
        """The event loop owns the arena: every batch of a TCP round
        trip is simulated on the loop's own thread, never handed off."""
        threads = []
        access_many = SharedArena.access_many

        def recording(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return access_many(self, *args, **kwargs)

        monkeypatch.setattr(SharedArena, "access_many", recording)

        async def scenario():
            service = _service()
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            try:
                assert (await client.hello("t", block_sizes=[512] * 8))["ok"]
                for _ in range(3):
                    assert (await client.access(list(range(8))))["ok"]
                assert (await client.stats())["tenant"]["accesses"] == 24
            finally:
                await client.aclose()
            await service.drain()
            return threading.get_ident()

        loop_thread = asyncio.run(scenario())
        assert len(threads) == 3
        assert set(threads) == {loop_thread}

    def test_request_before_hello_rejected(self):
        async def scenario():
            service = _service()
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            try:
                reply = await client.request({"op": "access", "sids": [0]})
                assert not reply["ok"]
                assert reply["error"] == protocol.ERR_NO_SESSION
            finally:
                await client.aclose()
            await service.drain()

        asyncio.run(scenario())

    def test_malformed_line_answered_not_fatal(self):
        async def scenario():
            service = _service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = protocol.decode_line(await reader.readline())
                assert not reply["ok"]
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                # The connection is still usable afterwards.
                writer.write(protocol.encode({"op": "ping"}))
                await writer.drain()
                pong = protocol.decode_line(await reader.readline())
                assert pong["ok"]
            finally:
                writer.close()
                await writer.wait_closed()
            await service.drain()

        asyncio.run(scenario())

    def test_disconnect_without_close_detaches_tenant(self):
        async def scenario():
            service = _service()
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            await client.hello("t", block_sizes=[512] * 4)
            await client.access([0, 1, 2, 3])
            await client.aclose()  # vanish without a close op
            for _ in range(50):
                if not service.sessions:
                    break
                await asyncio.sleep(0.01)
            assert not service.sessions
            # The tenant's history still counts in the unified stats.
            assert service.arena.unified_stats().accesses == 4
            await service.drain()

        asyncio.run(scenario())

    def test_drain_closes_live_sessions(self):
        async def scenario():
            service = _service()
            await service.start()
            client = await ServiceClient.connect("127.0.0.1", service.port)
            await client.hello("t", block_sizes=[512] * 4)
            await client.access([0, 1])
            await service.drain()
            assert not service.sessions
            assert service.draining
            assert service.arena.unified_stats().accesses == 2
            await client.aclose()

        asyncio.run(scenario())
