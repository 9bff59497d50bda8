"""Golden Table 2 runs: every counter and the exact work breakdown.

Table 2's slowdowns are ratios of simulated ``total_work``, so any change
to how the DBT executes guest code must leave each ``RunResult`` exactly
as it was.  These values were recorded from the runtime as it stood
before guest code was pre-decoded; they are compared with ``==``, float
work included, so a change in the order of ``WorkMeter`` charges shows
up here as well as a change in the counters.
"""

import dataclasses

import pytest

from repro.dbt.runtime import DBTRuntime, RunResult
from repro.workloads.generator import TABLE2_SPECS, generate_program

BUDGET = 50_000
#: ``experiments.table2`` runs the DBT with these options.
RUNTIME_KWARGS = {"max_trace_blocks": 64, "max_trace_bytes": 4096,
                  "record_entries": False}

_COMMON = {
    "gzip": {
        "guest_instructions": 50010, "superblocks_formed": 3,
        "cache_entries": 1412, "eviction_invocations": 0,
        "evicted_blocks": 0, "interpreted_blocks": 26,
        "interpreted_instructions": 109, "bb_instructions": 4720,
        "native_instructions": 45181, "bb_blocks": 26,
        "bb_cache_bytes": 731, "halted": False,
    },
    "gcc": {
        "guest_instructions": 50000, "superblocks_formed": 3,
        "cache_entries": 526, "eviction_invocations": 0,
        "evicted_blocks": 0, "interpreted_blocks": 38,
        "interpreted_instructions": 235, "bb_instructions": 10880,
        "native_instructions": 38885, "bb_blocks": 38,
        "bb_cache_bytes": 1416, "halted": False,
    },
    "mcf": {
        "guest_instructions": 50001, "superblocks_formed": 1,
        "cache_entries": 150, "eviction_invocations": 0,
        "evicted_blocks": 0, "interpreted_blocks": 20,
        "interpreted_instructions": 254, "bb_instructions": 12250,
        "native_instructions": 37497, "bb_blocks": 20,
        "bb_cache_bytes": 1313, "halted": False,
    },
}

#: (program, chaining) -> (counters that differ by chaining, work).
GOLDEN = {
    ("gzip", True): (
        {"chained_transitions": 1404, "unchained_exits": 7},
        {"interpretation": 1090.0, "bb_translation": 6952.0,
         "bb_native": 16164.000000000127, "regeneration": 55536.0,
         "linking": 255.0, "dispatch": 440.0, "native": 45181.0,
         "memory_protection": 8960.0},
    ),
    ("gzip", False): (
        {"chained_transitions": 0, "unchained_exits": 1411},
        {"interpretation": 1090.0, "bb_translation": 6952.0,
         "bb_native": 16164.000000000127, "regeneration": 55536.0,
         "dispatch": 77660.0, "native": 45181.0,
         "memory_protection": 1806080.0},
    ),
    ("gcc", True): (
        {"chained_transitions": 522, "unchained_exits": 3},
        {"interpretation": 2350.0, "bb_translation": 12280.0,
         "bb_native": 31606.00000000054, "regeneration": 112045.19999999998,
         "linking": 255.0, "dispatch": 220.0, "native": 38885.0,
         "memory_protection": 3840.0},
    ),
    ("gcc", False): (
        {"chained_transitions": 0, "unchained_exits": 525},
        {"interpretation": 2350.0, "bb_translation": 12280.0,
         "bb_native": 31606.00000000054, "regeneration": 112045.19999999998,
         "dispatch": 28930.0, "native": 38885.0,
         "memory_protection": 672000.0},
    ),
    ("mcf", True): (
        {"chained_transitions": 149, "unchained_exits": 0},
        {"interpretation": 2540.0, "bb_translation": 10112.0,
         "bb_native": 26361.999999999956, "regeneration": 112318.0,
         "linking": 85.0, "dispatch": 55.0, "native": 37497.0},
    ),
    ("mcf", False): (
        {"chained_transitions": 0, "unchained_exits": 149},
        {"interpretation": 2540.0, "bb_translation": 10112.0,
         "bb_native": 26361.999999999956, "regeneration": 112318.0,
         "dispatch": 8250.0, "native": 37497.0,
         "memory_protection": 190720.0},
    ),
}

TOTAL_WORK = {
    ("gzip", True): 134578.00000000012,
    ("gzip", False): 2008663.0,
    ("gcc", True): 201481.20000000054,
    ("gcc", False): 898096.2000000005,
    ("mcf", True): 188968.99999999994,
    ("mcf", False): 387798.99999999994,
}

_SPECS = {spec.name: spec for spec in TABLE2_SPECS}
_COUNTERS = [f.name for f in dataclasses.fields(RunResult)
             if f.name not in ("work", "event_log")]


@pytest.fixture(scope="module")
def programs():
    return {name: generate_program(_SPECS[name]) for name in _COMMON}


@pytest.mark.parametrize("name, chaining", sorted(GOLDEN),
                         ids=lambda value: str(value).lower())
def test_run_result_is_bit_identical(programs, name, chaining):
    result = DBTRuntime(programs[name], chaining_enabled=chaining,
                        **RUNTIME_KWARGS).run(BUDGET)
    varying, work = GOLDEN[name, chaining]
    expected = {**_COMMON[name], **varying}
    assert sorted(expected) == sorted(_COUNTERS)
    assert {field: getattr(result, field) for field in _COUNTERS} == expected
    assert result.work == work
    assert list(result.work) == list(work)
    assert result.total_work == TOTAL_WORK[name, chaining]
