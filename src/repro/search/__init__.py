"""Automated eviction-policy search.

The paper fixes its eviction ladder by hand; this package discovers
policies instead, PolicySmith-style: a tiny typed expression language
(:mod:`repro.search.expr`) scores resident superblocks by their cache
features, :class:`~repro.search.priority.PriorityFunctionPolicy` evicts
the lowest-scoring block through a victim loop compiled once from the
expression, and a generational search driver
(:mod:`repro.search.driver`) mutates a population of expressions and
scores each candidate against the parallel sweep engine.  Fitness is
the paper's unified Eq. 1 miss rate under high pressure, tie-broken on
eviction-overhead instructions (Eq. 2), and every generation is
checkpointed so a killed search resumes bit-identically.
"""

from repro.search.driver import SearchConfig, SearchState, run_search
from repro.search.priority import PriorityFunctionPolicy

__all__ = [
    "PriorityFunctionPolicy",
    "SearchConfig",
    "SearchState",
    "run_search",
]
