"""The differential oracle: clean passes, engineered divergences, and
the ``diff-check`` CLI command."""

import pytest

from repro.analysis.__main__ import main
from repro.analysis.diffcheck import (
    DiffMismatch,
    DiffReport,
    _diff_outcomes,
    _diff_stats,
    diff_check,
)
from repro.core.cache import ConfigurationError
from repro.core.metrics import SimulationStats
from repro.core.refmodel import AccessOutcome
from repro.core.simulator import CodeCacheSimulator


class TestDiffCheck:
    def test_full_ladder_passes_on_registry_benchmarks(self):
        report = diff_check(benchmarks=("gzip", "mcf"), scale=0.2,
                            trace_accesses=1500, pressures=(2.0, 10.0))
        assert report.ok, report.render()
        # 11 ladder rungs x 2 pressures x 2 benchmarks.
        assert report.runs == 44
        assert report.accesses_compared == 44 * 1500

    def test_reduced_grid_with_checker_enabled(self):
        report = diff_check(benchmarks=("gzip",), scale=0.15,
                            trace_accesses=800, pressures=(4.0,),
                            unit_counts=(1, 8), include_fine=True,
                            check_level="paranoid")
        assert report.ok, report.render()
        assert report.runs == 3

    def test_fast_loop_divergence_reported(self, monkeypatch):
        # The oracle's per-access diff runs with an observer, so only the
        # unobserved replay reaches the batched fast loop; a loop that
        # loses one eviction must still be caught there.
        original = CodeCacheSimulator._replay_fast

        def drops_an_eviction(self, trace, stats):
            original(self, trace, stats)
            if stats.eviction_invocations:
                stats.eviction_invocations -= 1

        monkeypatch.setattr(CodeCacheSimulator, "_replay_fast",
                            drops_an_eviction)
        report = diff_check(benchmarks=("gzip",), scale=0.15,
                            trace_accesses=800, pressures=(4.0,),
                            unit_counts=(1, 8), include_fine=True)
        assert not report.ok
        assert all(m.kind == "stats" for m in report.mismatches)
        assert any("unobserved replay: eviction_invocations" in m.detail
                   for m in report.mismatches), report.render()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            diff_check(benchmarks=("gzzip",), scale=0.1)

    @pytest.mark.parametrize("kwargs", (
        {"scale": 0.0},
        {"scale": -1.0},
        {"trace_accesses": 0},
        {"pressures": ()},
        {"pressures": (0.5,)},
    ))
    def test_malformed_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            diff_check(benchmarks=("gzip",), **kwargs)


class TestDivergenceDetection:
    def _outcomes(self):
        return [
            AccessOutcome(1, 5, False, ((1, 2),), 2),
            AccessOutcome(2, 5, True),
        ]

    def test_identical_outcomes_pass(self):
        assert _diff_outcomes(self._outcomes(), self._outcomes()) is None

    def test_hit_miss_divergence_located(self):
        altered = self._outcomes()
        altered[1] = AccessOutcome(2, 5, False)
        detail, index = _diff_outcomes(self._outcomes(), altered)
        assert index == 2
        assert "hit" in detail and "miss" in detail

    def test_eviction_divergence_located(self):
        altered = self._outcomes()
        altered[0] = AccessOutcome(1, 5, False, ((1,), (2,)), 2)
        detail, index = _diff_outcomes(self._outcomes(), altered)
        assert index == 1
        assert "evictions differ" in detail

    def test_links_removed_divergence_located(self):
        altered = self._outcomes()
        altered[0] = AccessOutcome(1, 5, False, ((1, 2),), 3)
        detail, index = _diff_outcomes(self._outcomes(), altered)
        assert index == 1
        assert "links_removed" in detail

    def test_length_mismatch_reported(self):
        detail, index = _diff_outcomes(self._outcomes(),
                                       self._outcomes()[:1])
        assert "outcome counts differ" in detail

    def test_stats_int_divergence_reported(self):
        a = SimulationStats(accesses=10, hits=6, misses=4)
        b = SimulationStats(accesses=10, hits=7, misses=3)
        problems = _diff_stats(a, b)
        assert any("hits" in p for p in problems)
        assert any("misses" in p for p in problems)

    def test_stats_overheads_compared_exactly(self):
        a = SimulationStats(misses=4, inserted_bytes=900)
        assert _diff_stats(a, SimulationStats(misses=4,
                                              inserted_bytes=900)) == []
        problems = _diff_stats(a, SimulationStats(misses=4,
                                                  inserted_bytes=901))
        assert any(p.startswith("inserted_bytes") for p in problems)
        assert any(p.startswith("miss_overhead") for p in problems)

    def test_report_render_shapes(self):
        report = DiffReport(runs=2, accesses_compared=100)
        assert "PASS" in report.render()
        report.mismatches.append(
            DiffMismatch("gzip", "FLUSH", 2.0, "access", "boom", 17)
        )
        rendered = report.render()
        assert "FAIL" in rendered and "access 17" in rendered
        assert not report.ok


class TestCli:
    def test_diff_check_command_passes(self, capsys):
        code = main(["diff-check", "--scale", "0.1",
                     "--trace-accesses", "600",
                     "--pressures", "2",
                     "--diff-benchmarks", "gzip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_diff_check_listed(self, capsys):
        main(["--list"])
        assert "diff-check" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", (
        ["figure6", "--scale", "0"],
        ["figure6", "--trace-accesses", "0"],
        ["figure6", "--pressures", "0.5"],
        ["figure6", "--samples", "0"],
        ["figure6", "--precision", "-1"],
        ["figure6", "--table2-budget", "0"],
        ["diff-check", "--check", "frantic"],
    ))
    def test_malformed_cli_arguments_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestLruDiff:
    def test_lru_ladder_diffs_clean(self):
        report = diff_check(benchmarks=("gzip",), scale=0.2,
                            trace_accesses=1200, pressures=(2.0,),
                            unit_counts=(1,), include_lru=True)
        # FLUSH + FIFO + LRU on one benchmark at one pressure.
        assert report.runs == 3
        assert report.ok, report.render()

    def test_lru_stays_out_of_the_default_ladder(self):
        report = diff_check(benchmarks=("gzip",), scale=0.1,
                            trace_accesses=400, pressures=(2.0,),
                            unit_counts=(1,))
        assert report.runs == 2  # FLUSH + FIFO, no LRU


class TestPreemptDiff:
    def test_preempt_ladder_diffs_clean(self):
        report = diff_check(benchmarks=("gzip",), scale=0.2,
                            trace_accesses=3000, pressures=(10.0,),
                            unit_counts=(1,), include_preempt=True)
        # FLUSH + FIFO + PREEMPT on one benchmark at one pressure.
        assert report.runs == 3
        assert report.ok, report.render()

    def test_preempt_stays_out_of_the_default_ladder(self):
        report = diff_check(benchmarks=("gzip",), scale=0.1,
                            trace_accesses=400, pressures=(2.0,),
                            unit_counts=(1,))
        assert report.runs == 2  # FLUSH + FIFO, no PREEMPT


class TestKernelCheck:
    def test_kernel_check_passes(self):
        from repro.analysis.diffcheck import kernel_check
        report = kernel_check(benchmarks=("gzip",), scale=0.2,
                              trace_accesses=1500, pressures=(2.0, 10.0),
                              unit_counts=(1, 8))
        # 2 engines x 2 link modes per benchmark; 3 rungs x 2 pressures.
        assert report.runs == 4
        assert report.cells == 12
        assert report.ok, report.render()

    def test_kernel_check_command_passes(self, capsys):
        code = main(["kernel-check", "--scale", "0.15",
                     "--trace-accesses", "800",
                     "--diff-benchmarks", "gzip"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "kernel-check" in out
