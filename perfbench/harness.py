"""Shared plumbing for the benchmark: environment, host record, timing
loop, statistics and output checks."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
EXPECTED = BENCH_DIR / "expected"

#: Set-up, and the imports before it, are repeated this many times per
#: run and their medians reported, so one slow repeat does not decide
#: ``setup_s``.
SETUP_REPEATS = 3
IMPORT_REPEATS = 5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources, no C
    compiler for a workload that needs it)."""


def prepare_environment() -> None:
    """Make a run independent of the caller's shell and of earlier runs.

    Inherited ``REPRO_*`` knobs would silently change engines, caches
    or fault plans, so all are dropped.  Temporary files (the compiled
    C kernel is cached there) and the sweep cache go under the
    checkout's work directory.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise SetupError(f"no src/repro under {ROOT}; run from a full "
                         f"checkout of the repository")
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["REPRO_SWEEP_CACHE_DIR"] = str(WORK / "sweep-cache")
    sys.path.insert(0, str(ROOT / "src"))


def fresh_dir(name: str) -> Path:
    """An empty directory under the work directory."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def host_record(config: dict) -> dict:
    """What a reader needs to compare this run with another."""
    from repro.analysis import ckernel

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gcc": shutil.which("gcc") is not None,
        "kernel_engine": config.get(
            "kernel_engine", "c" if ckernel.available() else "py"),
        "config": config,
    }


def import_seconds(workload: str) -> float:
    """Median time that fresh interpreters take in *workload*'s
    ``load()``, the imports of the modules it drives."""
    code = ("import importlib, sys, time; sys.path[:0] = sys.argv[1:3]; "
            "workload = importlib.import_module(sys.argv[3]); "
            "started = time.perf_counter(); workload.load(); "
            "print(time.perf_counter() - started)")
    command = [sys.executable, "-c", code, str(BENCH_DIR), str(ROOT / "src"),
               workload]
    return statistics.median(
        float(subprocess.run(command, capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(IMPORT_REPEATS))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Unit:
    """One measured piece of a workload."""

    seconds: float = 0.0
    #: Simulated code-cache accesses the unit performed.
    accesses: int = 0
    #: Operations attempted and failed (cells, DBT runs, requests,
    #: candidate evaluations).
    attempted: int = 0
    failed: int = 0
    outputs: object = None
    extra: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        return self.accesses / self.seconds


def timed_unit(run) -> Unit:
    """Call ``run()`` (which returns a :class:`Unit`) and time it."""
    started = perf_counter()
    unit = run()
    unit.seconds = perf_counter() - started
    return unit


def measure(run, seconds: float) -> list[Unit]:
    """Repeat ``run`` while another repeat still fits in *seconds*;
    at least once."""
    units: list[Unit] = []
    started = perf_counter()
    while True:
        units.append(timed_unit(run))
        elapsed = perf_counter() - started
        typical = statistics.median(unit.seconds for unit in units)
        if elapsed + typical > seconds:
            return units


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def write_expected(name: str, payload: dict) -> Path:
    """Write *payload* one top-level entry (and one entry of each
    top-level mapping) per line, so a changed cell is a one-line diff."""
    def compact(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            inner = ",\n".join(f"  {compact(k)}: {compact(value[k])}"
                               for k in sorted(value))
            lines.append(f" {compact(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {compact(key)}: {compact(value)}")
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{name}.json"
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return path


def close_enough(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), 1e-12)


def check_with_doctored(check, outputs, expected,
                        doctor) -> tuple[list[str], set[str]]:
    """The problems ``check(outputs, expected)`` finds, and the keys of
    the operations they concern (``check`` returns ``(key, problem)``
    pairs).  A doctored copy of the outputs that passes adds a problem
    too, since a check that cannot fail checks nothing; it names no
    operation, so it fails the run without counting a failed one."""
    found = check(outputs, expected)
    problems = [f"{key} {problem}" for key, problem in found]
    if not check(doctor(outputs), expected):
        problems.append(f"{check.__module__}: a doctored output passed "
                        f"the check")
    return problems, {key for key, _ in found}
