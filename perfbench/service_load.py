"""service_load: two tenants in a closed loop against the TCP service.

Why: the service is the only user-facing request path.  An in-process
``CacheService`` with its default 8-unit, 256 KiB arena serves two
tenants over two connections (the host has 2 CPUs), in a process held
to one CPU (see ``prepare``).  Each tenant sends
a batch of 256 accesses and waits for the reply before sending the
next, for the whole measured window, then flushes.  Stresses: the
``asyncio.to_thread`` hop into the arena, back-pressure refusals and
their 50 ms ``retry_after`` sleeps, JSON encode/decode/validate, the
arena's per-access step.  Idle: the sweep kernel, the interpreter, the
search.

The tenants' traces are built in set-up, before the clock starts
(``client.run_load`` counts ``build_workload`` inside its elapsed time,
so this workload drives the public ``ServiceClient`` itself).  Every
request is timed from this loop, refusals and retries included;
refusals are counted apart from failures.  ``--seed`` seeds the
tenants' workloads.  Outputs are checked for conservation only: the
known quota-preemption divergence from offline replay (ROADMAP) is out
of scope here.
"""

from __future__ import annotations

import asyncio
import os
import statistics
from time import perf_counter

from harness import Unit, check_with_doctored

NAME = "service_load"
BENCHMARKS = ("gzip", "vpr")
SCALE = 0.25
TRACE_ACCESSES = 200_000
BATCH = 256
#: Sends per request before a still-refused request counts as failed
#: (the library client's retry budget).
MAX_ATTEMPTS = 64

CONFIG = {"tenants": len(BENCHMARKS), "benchmarks": list(BENCHMARKS),
          "scale": SCALE, "trace_accesses": TRACE_ACCESSES, "batch": BATCH,
          "loop": "closed", "arena": "ServiceConfig() defaults",
          "window": "--seconds"}


def load() -> None:
    global ServiceClient, CacheService, ServiceConfig, protocol, registry
    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.service.server import CacheService, ServiceConfig
    from repro.workloads import registry


def prepare(ctx) -> None:
    # The arena runs in asyncio.to_thread workers, so every batch hops
    # between threads.  Spread over two CPUs, each hop waits on a
    # cross-CPU wake-up whose cost follows the host's other load: on
    # the reference host the rate swung between 190k and 440k
    # accesses/s from one minute to the next, against 405k-436k on one
    # CPU.  Threads started later inherit this affinity.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    CONFIG["cpu_affinity"] = [cpu]


class Tenant:
    def __init__(self, name: str, block_sizes: list[int],
                 batches: list[list[int]]) -> None:
        self.name = name
        self.block_sizes = block_sizes
        self.batches = batches
        self.next = 0
        self.acked = 0
        self.client = None


def setup(ctx):
    tenants = []
    for index, benchmark in enumerate(BENCHMARKS):
        workload = registry.build_workload(
            registry.get_benchmark(benchmark), scale=SCALE,
            trace_accesses=TRACE_ACCESSES, seed=ctx.seed * 16 + index)
        sizes = workload.superblocks.sizes()
        trace = workload.trace.tolist()
        tenants.append(Tenant(
            f"tenant-{index}:{benchmark}",
            [sizes[sid] for sid in range(len(sizes))],
            [trace[i:i + BATCH] for i in range(0, len(trace), BATCH)]))
    loop = asyncio.new_event_loop()
    service = CacheService(ServiceConfig())
    state = {"loop": loop, "service": service, "tenants": tenants}
    loop.run_until_complete(_open(service, tenants))
    return state


async def _open(service, tenants) -> None:
    await service.start()
    for tenant in tenants:
        tenant.client = await ServiceClient.connect("127.0.0.1",
                                                    service.port)
        reply = await tenant.client.hello(tenant.name,
                                          block_sizes=tenant.block_sizes)
        if not reply.get("ok"):
            raise RuntimeError(f"hello refused: {reply}")


def teardown(state) -> None:
    loop = state["loop"]

    async def close():
        for tenant in state["tenants"]:
            if tenant.client is not None:
                await tenant.client.aclose()
        await state["service"].drain()
        # Let the server's connection handlers see the clients' EOF.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=5)

    loop.run_until_complete(close())
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


def unit(state, seconds: float) -> Unit:
    loop = state["loop"]
    deadline = perf_counter() + seconds

    async def tenants():
        return await asyncio.gather(*(
            _tenant_loop(tenant, deadline) for tenant in state["tenants"]))

    runs = loop.run_until_complete(tenants())
    latencies = [value for run in runs for value in run["latencies"]]
    return Unit(
        accesses=sum(run["acked"] for run in runs),
        attempted=len(latencies),
        failed=sum(run["failed"] for run in runs),
        outputs=runs,
        extra={"latencies": latencies,
               "refusals": sum(run["refusals"] for run in runs),
               "sends": sum(run["sends"] for run in runs)})


async def _tenant_loop(tenant: Tenant, deadline: float) -> dict:
    retryable = (protocol.ERR_BACKPRESSURE, protocol.ERR_RATE_LIMITED)
    client = tenant.client
    latencies = []
    acked = refusals = sends = failed = 0
    while perf_counter() < deadline:
        batch = tenant.batches[tenant.next % len(tenant.batches)]
        tenant.next += 1
        message = {"op": "access", "sids": batch}
        started = perf_counter()
        for _ in range(MAX_ATTEMPTS):
            reply = await client.request(message)
            sends += 1
            if reply.get("ok") or reply.get("error") not in retryable:
                break
            refusals += 1
            await asyncio.sleep(reply.get("retry_after", 0.05))
        if reply.get("ok"):
            acked += len(batch)
        else:
            failed += 1
        latencies.append(perf_counter() - started)
    # The window ends when every acknowledged access has been simulated.
    flushed = await client.stats()
    if not flushed.get("ok"):
        failed += 1
    tenant.acked += acked
    return {"tenant": tenant.name, "latencies": latencies, "acked": acked,
            "refusals": refusals, "sends": sends, "failed": failed}


def finish(state) -> dict:
    """Close every session; the farewells carry the final stats."""
    loop = state["loop"]
    outputs = {"acked": {}, "tenants": {}, "unified": None}
    for tenant in state["tenants"]:
        reply = loop.run_until_complete(tenant.client.close_session())
        if not reply.get("ok"):
            raise RuntimeError(f"close refused: {reply}")
        outputs["acked"][tenant.name] = tenant.acked
        outputs["tenants"][tenant.name] = reply["tenant"]
        outputs["unified"] = reply["unified"]
    return outputs


def check(outputs: dict, expected=None) -> list[tuple[str, str]]:
    """``(tenant or "unified", problem)`` for every breach of
    conservation: each acknowledged access applied once, hits + misses
    = accesses per tenant, and Eq. 1 over the unified record equals the
    per-tenant sums."""
    problems = []
    tenants = outputs["tenants"]
    for name, stats in tenants.items():
        if stats["accesses"] != outputs["acked"][name]:
            problems.append((name, f"applied {stats['accesses']} "
                                   f"accesses, acknowledged "
                                   f"{outputs['acked'][name]}"))
        if stats["hits"] + stats["misses"] != stats["accesses"]:
            problems.append((name, "hits + misses != accesses"))
    unified = outputs["unified"]
    for field in ("accesses", "hits", "misses"):
        total = sum(stats[field] for stats in tenants.values())
        if unified[field] != total:
            problems.append(("unified", f"{field} {unified[field]} != "
                                        f"per-tenant sum {total}"))
    accesses = sum(stats["accesses"] for stats in tenants.values())
    misses = sum(stats["misses"] for stats in tenants.values())
    if accesses == 0 or unified["miss_rate"] != misses / accesses:
        problems.append(("unified", f"Eq. 1 miss rate "
                                    f"{unified['miss_rate']} != "
                                    f"{misses}/{accesses}"))
    return problems


def doctor(outputs: dict) -> dict:
    bad = {"acked": dict(outputs["acked"]),
           "tenants": {name: dict(stats)
                       for name, stats in outputs["tenants"].items()},
           "unified": dict(outputs["unified"])}
    name = sorted(bad["acked"])[0]
    bad["acked"][name] += BATCH
    return bad


def verify(ctx, state, units) -> tuple[list[str], int]:
    outputs = finish(state)
    problems, breached = check_with_doctored(check, outputs, None, doctor)
    # A breach of conservation cannot be traced to one request, so
    # every request counts as failed.
    failed = sum(unit_.failed for unit_ in units)
    if breached:
        failed = sum(unit_.attempted for unit_ in units)
    return problems, failed


def report(units) -> dict:
    """Request latency over every request of every measured window."""
    latencies = [value for unit_ in units
                 for value in unit_.extra["latencies"]]
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "request_p50_ms": (percentiles[49] * 1e3, "ms"),
        "request_p99_ms": (percentiles[98] * 1e3, "ms"),
        "requests": (len(latencies), "count"),
        "refusals": (sum(unit_.extra["refusals"] for unit_ in units),
                     "count"),
    }


def layers(tracer, unit_) -> dict:
    """Arena busy share, queue/hop/sleep wait, and refusal share."""
    protocol_s = sum(tracer.total.get(name, 0.0) for name in (
        "protocol.encode", "protocol.decode", "protocol.validate"))
    arena_s = tracer.total.get("tenancy.access_many", 0.0)
    return {
        "service.arena_share": arena_s / tracer.wall,
        "session.wait_s": (sum(unit_.extra["latencies"]) - protocol_s
                           - arena_s),
        "session.refused_share": (unit_.extra["refusals"]
                                  / unit_.extra["sends"]),
    }

