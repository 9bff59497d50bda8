"""Priority-function eviction: the policy shape the search evolves.

:class:`PriorityFunctionPolicy` manages the cache at per-superblock
granularity, like fine-grained FIFO, but chooses victims by *score*
rather than age: on overflow it repeatedly evicts the resident block
whose feature vector (see :data:`repro.search.expr.FEATURES`) evaluates
lowest under a pluggable expression tree.  With the constant-score
expression the policy degenerates to exactly fine-grained FIFO (ties
break on insertion order), which is how the search's FIFO-equivalent
seed candidate works.

Scoring is compiled.  When the policy is built, its expression is
turned into one generated Python function (:func:`compile_chooser`)
that runs the whole victim loop: it walks the resident records, computes
each block's features on plain locals, evaluates the inlined expression
and keeps the first strictly lowest score.  Each record carries the
block's static features (size and link degrees), read from the
superblock set once at insertion.  The interpreted path —
:meth:`PriorityFunctionPolicy.features_of`, :meth:`~PriorityFunctionPolicy.score_of`
and :func:`repro.search.expr.evaluate` — is the definition the compiled
loop is tested against, bit for bit, and is not on the hot path.

The policy is fully serializable — ``to_spec``/``from_spec`` round-trip
through the JSON policy-spec registry in :mod:`repro.core.policies` —
so the parallel sweep engine can rebuild a candidate inside a pool
worker from a few hundred bytes.  It also supports targeted eviction
(``evict_blocks``), which keeps it compatible with the service tier's
tenancy reclaim and sharing machinery despite its bespoke storage.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping

from repro.core.cache import ConfigurationError, EvictionEvent
from repro.core.policies import EvictionPolicy, register_policy_kind
from repro.core.superblock import SuperblockSet
from repro.search import expr as expr_mod
from repro.search.expr import Expr

#: One record per resident block, a list in these positions.  The
#: policy's dict of records keeps insertion order, which is what lets
#: the victim loop break score ties by taking the first block it sees.
#: ``INSERT_SEQ`` numbers insertions explicitly for the interpreted
#: oracle.  ``hotness`` and the static features (size and link
#: degrees, read once at insertion) are stored as floats, ready for
#: scoring.
(INSERT_CLOCK, LAST_TOUCH, HOTNESS, SIZE_BYTES, INSERT_SEQ, SIZE, IN_DEGREE,
 OUT_DEGREE) = range(8)

#: The loop variables each record position binds (``_`` when the
#: expression does not read it); ``age``/``recency`` derive from the two
#: clocks and ``occupancy`` is an argument.
_RECORD_LOCALS = ("_ic", "_lt", "hotness", "_", "_", "size", "in_degree",
                  "out_degree")


@lru_cache(maxsize=256)
def compile_chooser(expression: Expr) -> Callable[[dict, float, float], int]:
    """The victim choice for *expression* as one generated function
    ``choose(records, clock, occupancy) -> sid``.

    It scores every resident with the inlined expression (see
    :func:`repro.search.expr.expression_source`) and returns the first
    block with the strictly lowest score, i.e. ``min`` over
    ``(score, insertion order)``.  ``clock`` is a float, so
    ``clock - _ic`` is the exact float of an integer count; every
    feature the loop loads is such a count below 2**53 or the fill
    fraction, already inside the clamp range, so the loop skips the
    feature clamp ``evaluate`` applies.  Scores are always finite, so
    the running minimum starts at infinity.
    """
    wanted = set(expr_mod.features_read(expression))
    lines, result = expr_mod.expression_source(expression)
    if "age" in wanted:
        wanted.add("_ic")
        lines.insert(0, "age = clock - _ic")
    if "recency" in wanted:
        wanted.add("_lt")
        lines.insert(0, "recency = clock - _lt")
    binds = [name if name in wanted else "_" for name in _RECORD_LOCALS]
    body = [f"for sid, ({', '.join(binds)}) in records.items():"]
    body += [f"    {line}" for line in lines]
    body += [f"    if {result} < low:",
             "        best = sid",
             f"        low = {result}"]
    source = ("def choose(records, clock, occupancy):\n"
              "    best = None\n"
              "    low = _inf\n"
              + "".join(f"    {line}\n" for line in body)
              + "    return best\n")
    return expr_mod.compile_source(source, "choose")


class PriorityFunctionPolicy(EvictionPolicy):
    """Evict the lowest-scoring superblock, one victim at a time.

    Parameters
    ----------
    expression:
        The score expression; lower scores evict first.  It is compiled
        once, here, into the policy's victim loop.
    superblocks:
        Optional static population providing link degrees for the
        ``in_degree``/``out_degree`` features.  Without it both degrees
        read as zero (the expression still evaluates — degree-blind).
    name:
        Display name in result grids (candidate id during a search).
    """

    def __init__(self, expression: Expr,
                 superblocks: SuperblockSet | None = None,
                 name: str = "priority") -> None:
        super().__init__()
        self.name = name
        self.expression = expression
        self._choose = compile_chooser(expression)
        self._superblocks = superblocks
        self._capacity = 0
        self._used = 0
        self._clock = 0
        self._next_seq = 0
        self._records: dict[int, list] = {}

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        if max_block_bytes > capacity_bytes:
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} B cannot hold the largest "
                f"superblock ({max_block_bytes} B)"
            )
        self._capacity = capacity_bytes
        self._used = 0
        self._clock = 0
        self._next_seq = 0
        self._records = {}
        self._configured = True

    # -- Policy surface -----------------------------------------------------

    def on_access(self, sid: int, hit: bool) -> list[EvictionEvent]:
        # Defining on_access marks the policy access-watching, which
        # routes the simulator through its slow path — required here
        # because recency/hotness are per-access state.
        self._clock += 1
        if hit:
            record = self._records[sid]
            record[LAST_TOUCH] = self._clock
            record[HOTNESS] += 1.0
        return []

    def contains(self, sid: int) -> bool:
        return sid in self._records

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        if sid in self._records:
            raise ValueError(f"block {sid} is already resident")
        if size_bytes > self._capacity:
            raise ConfigurationError(
                f"block {sid} ({size_bytes} B) exceeds the cache capacity"
            )
        events: list[EvictionEvent] = []
        while self._used + size_bytes > self._capacity:
            events.append(self._evict(self._choose_victim()))
        in_degree, out_degree = self._degrees(sid)
        self._records[sid] = [self._clock, self._clock, 0.0, size_bytes,
                              self._next_seq, float(size_bytes), in_degree,
                              out_degree]
        self._next_seq += 1
        self._used += size_bytes
        return events

    def unit_of(self, sid: int) -> int:
        """Each block is its own eviction unit, as in fine-grained FIFO."""
        if sid not in self._records:
            raise KeyError(sid)
        return sid

    def resident_ids(self) -> set[int]:
        return set(self._records)

    @property
    def effective_unit_count(self) -> int:
        self._require_configured()
        return max(2, len(self._records))

    @property
    def needs_backpointer_table(self) -> bool:
        return True

    @property
    def used_bytes(self) -> int:
        self._require_configured()
        return self._used

    # -- Targeted eviction (tenancy reclaim) --------------------------------

    @property
    def supports_targeted_eviction(self) -> bool:
        return True

    def evict_blocks(self, sids) -> list[EvictionEvent]:
        self._require_configured()
        requested = set(sids)
        if not requested:
            return []
        missing = requested - set(self._records)
        if missing:
            raise KeyError(f"block(s) not resident: {sorted(missing)[:8]}")
        # One event per block: targeted reclaim is priced at the same
        # per-victim granularity as overflow eviction here.
        return [self._evict(sid) for sid in sorted(requested)]

    # -- Scoring ------------------------------------------------------------

    def _degrees(self, sid: int) -> tuple[float, float]:
        """``(in_degree, out_degree)`` of *sid* in the static link graph."""
        if self._superblocks is None or sid not in self._superblocks:
            return 0.0, 0.0
        return (float(len(self._superblocks.incoming(sid))),
                float(len(self._superblocks.outgoing(sid))))

    def _occupancy(self) -> float:
        return self._used / self._capacity if self._capacity else 0.0

    def features_of(self, sid: int) -> dict[str, float]:
        """The feature vector the expression sees for resident *sid*.

        With :meth:`score_of` this is the interpreted definition of a
        score (the oracle the compiled victim loop is tested against);
        the victim loop itself does not call it.
        """
        record = self._records[sid]
        in_degree, out_degree = self._degrees(sid)
        return {
            "age": float(self._clock - record[INSERT_CLOCK]),
            "size": float(record[SIZE_BYTES]),
            "in_degree": in_degree,
            "out_degree": out_degree,
            "hotness": float(record[HOTNESS]),
            "recency": float(self._clock - record[LAST_TOUCH]),
            "occupancy": self._occupancy(),
        }

    def score_of(self, sid: int) -> float:
        return expr_mod.evaluate(self.expression, self.features_of(sid))

    def _choose_victim(self) -> int:
        # Ties on score break on insertion order — a constant
        # expression therefore yields exact FIFO.
        return self._choose(self._records, float(self._clock),
                            self._occupancy())

    def _evict(self, sid: int) -> EvictionEvent:
        size = self._records.pop(sid)[SIZE_BYTES]
        self._used -= size
        return EvictionEvent((sid,), size)

    # -- Serialization ------------------------------------------------------

    def __getstate__(self) -> dict:
        # The generated victim loop does not pickle; it is rebuilt from
        # the expression.
        state = dict(self.__dict__)
        del state["_choose"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._choose = compile_chooser(self.expression)

    def to_spec(self) -> dict:
        """A JSON-safe spec ``policy_from_spec`` rebuilds this policy
        from (the wire format for pool workers and checkpoints)."""
        return {
            "kind": "priority",
            "name": self.name,
            "expression": expr_mod.to_dict(self.expression),
        }

    @classmethod
    def from_spec(cls, spec: Mapping,
                  superblocks: SuperblockSet | None = None,
                  ) -> "PriorityFunctionPolicy":
        expression = spec.get("expression")
        if expression is None:
            raise ConfigurationError(
                "priority policy spec is missing 'expression'"
            )
        return cls(
            expr_mod.from_dict(expression),
            superblocks=superblocks,
            name=str(spec.get("name", "priority")),
        )


def _build_priority(spec: Mapping,
                    superblocks: SuperblockSet | None) -> EvictionPolicy:
    return PriorityFunctionPolicy.from_spec(spec, superblocks=superblocks)


register_policy_kind("priority", _build_priority)
