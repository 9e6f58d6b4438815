"""Tests for the experiment harness (figures + ablations)."""

import numpy as np
import pytest

from repro.experiments import ExperimentSettings, Table
from repro.experiments import ablations, fig09_energy, parallel
from repro.experiments.common import (
    arithmetic_mean,
    geometric_mean,
    pct,
    sweep_results,
)
from repro.experiments.fig03_soplex import stack_distance_bins
from repro.experiments.fig11_breakdown import breakdown
from repro.experiments.runner import EXPERIMENTS, main

SMALL = ExperimentSettings(length=6_000, seed=0,
                           benchmarks=("soplex", "lbm"))


class TestTable:
    def test_formatting_aligns(self):
        table = Table("T", ["a", "bb"], [["x", "1"], ["yy", "22"]],
                      notes="n")
        text = table.formatted()
        assert "T" in text
        assert "n" in text
        lines = text.splitlines()
        assert len(lines) >= 6

    def test_empty_rows_ok(self):
        assert Table("T", ["a"], []).formatted()


class TestHelpers:
    def test_pct(self):
        assert pct(0.356) == "+35.6%"
        assert pct(-0.01) == "-1.0%"

    def test_means(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0


class TestRunCells:
    def test_results_memoized(self):
        cells = [("lbm", "baseline")]
        first, _ = sweep_results(SMALL, cells)
        second, report = sweep_results(SMALL, cells)
        assert first[cells[0]] is second[cells[0]]
        assert report.results == [] and report.memo_hits == 1

    def test_shared_result_survives_both_readers(self, monkeypatch):
        """fig09 and the replacement ablation share the LRU rows: the
        ablation reads fig09's results, and neither reader changes
        them."""
        monkeypatch.setattr(parallel, "_MEMO", {})
        settings = ExperimentSettings(
            length=2_000, seed=0, benchmarks=ablations.SWEEP_BENCHMARKS
        )
        fig09_energy.run(settings)
        before = {key: result.to_json()
                  for key, result in parallel._MEMO.items()}
        table = ablations.run_replacement(settings)
        assert "16 jobs, 8 from memo" in table.perf[-1]
        shared = [key for key in before if key.policy != "slip"]
        assert len(shared) == 8
        for key in shared:
            assert parallel._MEMO[key].to_json() == before[key]
            fresh = parallel.execute_request(key).result
            assert fresh.to_json() == before[key], key.label()


class TestStackDistance:
    def test_repeated_scan(self):
        # Two scans of 10 lines: second scan all at distance 10.
        addrs = np.array(list(range(10)) * 2, dtype=np.int64)
        fractions = stack_distance_bins(addrs, edges=(5, 15, 100))
        assert fractions[1] == pytest.approx(0.5)  # 10 in [5, 15)
        assert fractions[3] == pytest.approx(0.5)  # 10 cold misses

    def test_immediate_reuse_bin_zero(self):
        addrs = np.array([1, 1, 1, 1], dtype=np.int64)
        fractions = stack_distance_bins(addrs, edges=(5, 15, 100))
        assert fractions[0] == pytest.approx(0.75)

    def test_all_cold(self):
        addrs = np.arange(50, dtype=np.int64)
        fractions = stack_distance_bins(addrs, edges=(5, 15, 30))
        assert fractions[-1] == 1.0


class TestFigureModules:
    def test_fig01_runs(self):
        from repro.experiments import fig01_reuse

        settings = ExperimentSettings(length=6_000, seed=0)
        table = fig01_reuse.run(settings)
        assert len(table.rows) == 8  # 7 benchmarks + average

    def test_fig03_runs(self):
        from repro.experiments import fig03_soplex

        table = fig03_soplex.run(ExperimentSettings(length=20_000))
        names = {row[0] for row in table.rows}
        assert "rperm" in names

    def test_fig09_shape(self):
        from repro.experiments import fig09_energy

        table = fig09_energy.run(SMALL)
        assert table.rows[-1][0] == "average"
        assert len(table.rows) == len(SMALL.benchmarks) + 1

    def test_fig14_fractions_sum_to_one(self):
        from repro.experiments import fig14_insertion_classes

        fractions = fig14_insertion_classes.class_fractions(
            SMALL, level="L2"
        )
        for benchmark, per_class in fractions.items():
            assert sum(per_class.values()) == pytest.approx(1.0), benchmark

    def test_fig15_fractions_valid(self):
        from repro.experiments import fig15_sublevel_fractions

        data = fig15_sublevel_fractions.average_fractions(SMALL, "L2")
        for policy, fractions in data.items():
            assert sum(fractions) == pytest.approx(1.0, abs=0.01), policy

    def test_breakdown_definition(self):
        results, _ = sweep_results(SMALL, [("lbm", "baseline")])
        result = results[("lbm", "baseline")]
        access, movement = breakdown(result.l2)
        assert access == result.l2.energy.read_pj
        assert movement >= result.l2.energy.insertion_pj


class TestAblations:
    def test_htree_config_uniform(self):
        config = ablations.htree_config()
        assert len(set(config.l2.sublevel_energy_pj)) == 1
        assert config.l2.access_energy_pj > 39.0

    def test_htree_increases_energy(self):
        settings = ExperimentSettings(length=6_000)
        table = ablations.run_htree(settings)
        average = table.rows[-1]
        assert average[0] == "average"
        assert average[1].startswith("+")

    def test_22nm_config_cheaper(self):
        config = ablations.config_22nm()
        assert config.l2.access_energy_pj < 39.0
        assert config.l3.access_energy_pj < 136.0


class TestRunnerCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out

    def test_unknown_experiment(self):
        assert main(["not-an-experiment"]) == 2

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 1

    def test_registry_complete(self):
        expected = {
            "fig01", "fig03", "fig09", "fig10", "fig13", "fig16",
            "ablation-htree", "ablation-22nm", "ablation-binwidth",
            "ablation-sampling",
        }
        assert expected <= set(EXPERIMENTS)

    def test_run_single_small(self, capsys):
        assert main(["fig03", "--length", "15000"]) == 0
        assert "rperm" in capsys.readouterr().out
