"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a module or class attribute with a wrapper that opens a span
around every call, so nothing under ``src/`` changes.  Each span has a
name, a start, an end and a parent.  Self times are derived on the fly:
when a span closes, its duration is charged to its parent's child time,
so a layer's self time is its duration minus what its children cover.
Spans on worker threads (the service's ``asyncio.to_thread`` hop) get
the run's root span as parent; the root's self time -- wall time that
no layer accounts for -- is the part of the root interval that the
union of its direct children does not cover.

Hot layers (an interpreter step runs millions of times per run) would
need hundreds of megabytes if every span were kept, so only the first
``_KEEP_SPANS`` spans are stored for the trace file; the per-layer totals,
self times and counts are exact for all spans.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

_ROOT = "run"
_KEEP_SPANS = 100_000


class Tracer:
    """Collects spans and counters; undoes its patches on :meth:`close`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, float, float]] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stacks: dict[int, list[list]] = {}
        self._top: list[tuple[float, float]] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        # Spans close on worker threads too (the service's arena runs in
        # asyncio.to_thread workers); aggregate updates are read-modify-
        # write, so they happen under this lock.
        self._lock = threading.Lock()
        self.root_start = 0.0
        self.root_end = 0.0

    # -- Spans ------------------------------------------------------------

    def start(self) -> None:
        """Open the root span on the calling thread."""
        self.root_start = perf_counter()
        self._stacks[threading.get_ident()] = [[0, _ROOT,
                                                self.root_start, 0.0]]

    def stop(self) -> None:
        """Close the root span."""
        self.root_end = perf_counter()
        self._stacks.clear()

    def _enter(self, name: str):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        for frame in stack:
            if frame[1] == name:
                return None  # re-entry: the outer span covers it
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        stack.append(frame)
        return stack

    def _exit(self, stack) -> None:
        end = perf_counter()
        frame = stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = 0
        with self._lock:
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if parent_id == 0:
                self._top.append((start, end))
            if len(self.spans) < _KEEP_SPANS:
                self.spans.append((span_id, name, parent_id,
                                   threading.get_ident(), start, end))

    # -- Patching ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None,
             on_result=None) -> None:
        """Trace every call of ``owner.attr`` as span *name*.

        ``on_call(counts, args, kwargs)`` and ``on_result(counts,
        result)`` add work counts measured at the same boundary; like
        the span, they skip calls nested in a span of the same name.
        """
        original = getattr(owner, attr)
        tracer = self
        counts = self.counts

        def traced(*args, **kwargs):
            stack = tracer._enter(name)
            if stack is None:
                return original(*args, **kwargs)
            if on_call is not None:
                with tracer._lock:
                    on_call(counts, args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(stack)
            if on_result is not None:
                with tracer._lock:
                    on_result(counts, result)
            return result

        self._patch(owner, attr, traced)

    def wrap_function(self, function, name: str, **hooks) -> None:
        """Trace *function* under every name a loaded ``repro`` module
        binds it to (``from x import f`` copies the binding)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, name, **hooks)

    def count(self, owner, attr: str, name: str, per_result=None) -> None:
        """Count ``owner.attr`` without timing it: one per call, or
        ``per_result(result)`` per call when given.  Lock-free, so only
        for methods called from one thread."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += 1 if per_result is None else per_result(result)
            return result

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- Results ----------------------------------------------------------

    @property
    def wall(self) -> float:
        return self.root_end - self.root_start

    def unaccounted(self) -> float:
        """Root wall time not covered by any direct child span."""
        covered = 0.0
        reach = self.root_start
        for start, end in sorted(self._top):
            start = max(start, reach)
            end = min(end, self.root_end)
            if end > start:
                covered += end - start
                reach = end
        return self.wall - covered

    def layer_seconds(self, name: str) -> float:
        """Self time of layer *name* (0 when it never ran)."""
        return self.self_time.get(name, 0.0)

    def write(self, path) -> None:
        """Dump the kept spans and the per-layer aggregates as JSON."""
        payload = {
            "root": {"start": self.root_start, "end": self.root_end},
            "layers": {
                name: {"calls": self.calls[name],
                       "total_s": self.total[name],
                       "self_s": self.self_time[name]}
                for name in sorted(self.total)
            },
            "counts": dict(self.counts),
            "unaccounted_s": self.unaccounted(),
            "spans_kept": len(self.spans),
            "spans_total": sum(self.calls.values()),
            "fields": ["id", "name", "parent", "thread", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
