"""One tenant's attachment to the service: a fault-isolated pipeline.

A :class:`Session` sits between the protocol layer and the
:class:`~repro.service.tenancy.SharedArena`.  Access batches land in a
*bounded* queue (the backpressure boundary: a full queue rejects the
batch with a retry hint instead of buffering without limit) and a
consumer task drains them through the arena inline, on the loop
thread.  The event loop is the arena's one owner (the arena is not
thread-safe).  The consumer yields after every batch, so one tenant's
backlog cannot hold the loop, and it awaits its fault points
(:func:`repro.faults.fire_async`), so an injected ``hang`` at
``service.session`` or ``service.flush`` stalls only this tenant.

Failure is contained by construction: any exception in the consumer —
including :class:`~repro.faults.InjectedFault` — marks the session
``failed``, detaches the tenant from the arena (evicting its resident
blocks and archiving its stats, which keeps the unified byte
conservation the invariant checker enforces), and drains the pending
queue.  Other tenants' sessions never observe anything.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json

from repro import faults
from repro.service import protocol

#: Default bound on queued (not yet simulated) batches per session.
DEFAULT_QUEUE_BATCHES = 64

#: Attempts to produce an uncorrupted stats payload before giving up.
STATS_RECOVER_ATTEMPTS = 3

OPEN = "open"
FAILED = "failed"
CLOSED = "closed"
PARKED = "parked"


class SessionError(Exception):
    """A session-level request failure, carrying its protocol token."""

    def __init__(self, token: str, detail: str,
                 retry_after: float | None = None) -> None:
        super().__init__(detail)
        self.token = token
        self.detail = detail
        self.retry_after = retry_after


class Session:
    """One tenant's queue-and-consumer pipeline over the shared arena."""

    def __init__(self, arena, tenant: str,
                 queue_batches: int = DEFAULT_QUEUE_BATCHES,
                 retry_after: float = 0.05) -> None:
        self.arena = arena
        self.tenant = tenant
        self.retry_after = retry_after
        self.state = OPEN
        self.failure: str | None = None
        self.hits = 0
        self.accesses_applied = 0
        self.batches_applied = 0
        self.stats_quarantined = 0
        self._queue: asyncio.Queue[tuple[list[int], int | None]] = (
            asyncio.Queue(maxsize=queue_batches)
        )
        self._consumer: asyncio.Task | None = None
        self._detached = False
        self._final_stats = None

    def start(self) -> None:
        self._consumer = asyncio.get_running_loop().create_task(
            self._consume(), name=f"session:{self.tenant}"
        )

    # -- The request side ---------------------------------------------------

    def submit(self, sids: list[int], seq: int | None = None) -> int:
        """Queue one access batch; returns the queue depth after it.

        ``seq`` is the client's per-tenant batch sequence number; the
        arena uses it for exactly-once application, so a batch resent
        after a failover is acknowledged but not reapplied.

        Raises :class:`SessionError` with ``backpressure`` (and a
        ``retry_after``) when the bounded queue is full, or
        ``session-failed`` once the consumer has died.
        """
        self._require_open()
        try:
            self._queue.put_nowait((list(sids), seq))
        except asyncio.QueueFull:
            raise SessionError(
                protocol.ERR_BACKPRESSURE,
                f"session queue full ({self._queue.maxsize} batches "
                f"pending); retry after {self.retry_after}s",
                retry_after=self.retry_after,
            ) from None
        return self._queue.qsize()

    async def flush(self) -> None:
        """Wait until every queued batch has been simulated (or the
        session failed trying)."""
        await faults.fire_async("service.flush", self.tenant)
        await self._queue.join()
        self._require_open()

    async def stats(self) -> dict:
        """Flush, then snapshot this tenant's stats record."""
        await self.flush()
        return await self._verified_stats(self.arena.tenant_stats(self.tenant))

    async def _verified_stats(self, record) -> dict:
        """Serialize *record* through the ``service.flush`` fault point
        with an integrity check: a ``corrupt``-mode fault damaging the
        payload is detected by digest comparison, the damaged bytes are
        quarantined (counted, and parked with the persister when one is
        attached), and the reply is recovered from the authoritative
        arena record instead of serving corrupted stats.
        """
        for _ in range(STATS_RECOVER_ATTEMPTS):
            fields = record.to_dict()
            payload = json.dumps(fields, sort_keys=True).encode("utf-8")
            digest = hashlib.sha256(payload).hexdigest()
            stamped = await faults.fire_async("service.flush", self.tenant,
                                              data=payload)
            if hashlib.sha256(stamped).hexdigest() == digest:
                return fields
            self.stats_quarantined += 1
            self._quarantine_stats_payload(stamped)
        raise SessionError(
            protocol.ERR_FAULT,
            f"stats payload for tenant {self.tenant!r} corrupted on "
            f"{STATS_RECOVER_ATTEMPTS} consecutive flushes; refusing to "
            f"serve it",
        )

    def _quarantine_stats_payload(self, payload: bytes) -> None:
        persister = getattr(self.arena, "persister", None)
        if persister is None:
            return
        name = f"stats-{self.tenant}.corrupt"
        if persister.store.store_blob(name, payload) is not None:
            persister.store.quarantine_blob(
                name, f"corrupt flush payload for tenant {self.tenant!r}"
            )

    async def close(self) -> dict:
        """Flush, detach from the arena, and return final stats."""
        if self.state == CLOSED:
            return self._final_stats.to_dict()
        self._require_open()
        await self._queue.join()
        if self.failure is not None:  # the last batch may have failed
            self._require_open()
        await self._stop_consumer()
        self._final_stats = self._detach()
        self.state = CLOSED
        return await self._verified_stats(self._final_stats)

    async def abort(self) -> None:
        """Tear the session down without flushing (connection lost)."""
        if self.state == CLOSED:
            return
        await self._stop_consumer()
        if self.state != FAILED:
            self._final_stats = self._detach()
            self.state = CLOSED

    async def park(self) -> None:
        """Stop the pipeline but keep the tenant attached to the arena.

        The persistence-enabled connection-loss path: queued batches are
        dropped unapplied (the client resends everything past its
        ``applied_seq`` watermark on resume), and the tenant's arena
        state — residency, stats, watermark — stays live for the next
        ``hello`` carrying ``resume``.
        """
        if self.state in (CLOSED, PARKED):
            return
        await self._stop_consumer()
        self._drain_pending()
        if self.state != FAILED:
            self.state = PARKED

    async def _stop_consumer(self) -> None:
        if self._consumer is not None:
            self._consumer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._consumer

    def _require_open(self) -> None:
        if self.state == FAILED:
            raise SessionError(
                protocol.ERR_SESSION_FAILED,
                f"session for tenant {self.tenant!r} failed: "
                f"{self.failure}",
            )
        if self.state in (CLOSED, PARKED):
            raise SessionError(
                protocol.ERR_NO_SESSION,
                f"session for tenant {self.tenant!r} is {self.state}",
            )

    # -- The consumer side --------------------------------------------------

    async def _consume(self) -> None:
        while True:
            batch, seq = await self._queue.get()
            try:
                await faults.fire_async("service.session", key=self.tenant)
                hits = self.arena.access_many(self.tenant, batch, tseq=seq)
            except asyncio.CancelledError:
                self._queue.task_done()
                raise
            except Exception as error:
                self._fail(error)
                self._queue.task_done()
                self._drain_pending()
                return
            self.hits += hits
            self.accesses_applied += len(batch)
            self.batches_applied += 1
            self._queue.task_done()
            # Queue.get() on a non-empty queue does not yield: without
            # this, one tenant's backlog would hold the loop until its
            # whole queue is simulated.
            await asyncio.sleep(0)

    def _fail(self, error: Exception) -> None:
        self.state = FAILED
        self.failure = f"{type(error).__name__}: {error}"
        # Detach immediately: the tenant's blocks leave the shared
        # cache and its stats are archived, so the arena's unified
        # conservation invariants stay intact for everyone else.
        self._final_stats = self._detach()

    def _drain_pending(self) -> None:
        while True:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._queue.task_done()

    def _detach(self):
        if self._detached:
            return self._final_stats
        self._detached = True
        return self.arena.detach(self.tenant)

    def describe(self) -> dict:
        return {
            "tenant": self.tenant,
            "state": self.state,
            "failure": self.failure,
            "queued_batches": self._queue.qsize(),
            "batches_applied": self.batches_applied,
            "accesses_applied": self.accesses_applied,
            "hits": self.hits,
            "stats_quarantined": self.stats_quarantined,
        }
