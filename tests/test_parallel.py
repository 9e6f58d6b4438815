"""Parallel engine: serial/parallel equivalence, trace cache, CLI wiring.

The engine's contract is that worker count changes wall-clock only:
the same request grid must produce byte-identical results at ``jobs=1``
and ``jobs=N``. These tests run real (tiny) simulations across real
worker processes, so they also exercise request/result pickling.
"""

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.common import ExperimentSettings
from repro.experiments.parallel import (
    JOBS_ENV,
    MixRequest,
    RunRequest,
    execute_request,
    resolve_jobs,
    run_cells,
    run_jobs,
    run_policy_grid,
)
from repro.experiments.runner import main, settings_from_args
from repro.sim.config import default_system
from repro.sim.single_core import run_policy_sweep
from repro.workloads.benchmarks import (
    clear_trace_cache,
    make_trace,
    trace_cache_info,
)

LENGTH = 3_000
GRID_BENCHMARKS = ("soplex", "lbm")
GRID_POLICIES = ("baseline", "slip_abp")


def small_grid():
    return [
        RunRequest(benchmark, policy, length=LENGTH)
        for benchmark in GRID_BENCHMARKS
        for policy in GRID_POLICIES
    ]


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "6")
        assert resolve_jobs() == 6

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "6")
        assert resolve_jobs(3) == 3

    def test_floor_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs()


class TestTraceCache:
    def test_same_object_across_calls(self):
        first = make_trace("soplex", LENGTH, 0)
        second = make_trace("soplex", LENGTH, 0)
        assert first is second

    def test_equal_arrays_after_clear(self):
        first = make_trace("lbm", LENGTH, 0)
        addresses = first.addresses.copy()
        is_write = first.is_write.copy()
        clear_trace_cache()
        second = make_trace("lbm", LENGTH, 0)
        assert np.array_equal(second.addresses, addresses)
        assert np.array_equal(second.is_write, is_write)

    def test_cache_counts_hits(self):
        clear_trace_cache()
        make_trace("soplex", LENGTH, 0)
        before = trace_cache_info().hits
        make_trace("soplex", LENGTH, 0)
        assert trace_cache_info().hits == before + 1

    def test_cached_arrays_read_only(self):
        trace = make_trace("soplex", LENGTH, 0)
        with pytest.raises(ValueError):
            trace.addresses[0] = 123

    def test_distinct_keys_distinct_traces(self):
        assert make_trace("soplex", LENGTH, 0) is not make_trace(
            "soplex", LENGTH, 1
        )

    def test_unknown_benchmark_still_raises(self):
        with pytest.raises(KeyError):
            make_trace("not-a-benchmark", LENGTH, 0)


class TestExecuteRequest:
    def test_job_result_fields(self):
        job = execute_request(RunRequest("soplex", "baseline",
                                         length=LENGTH))
        assert job.accesses == LENGTH
        assert job.result.policy == "baseline"
        assert job.result.benchmark == "soplex"
        assert job.wall_seconds > 0
        assert job.accesses_per_sec > 0


class TestSerialParallelEquivalence:
    def test_jobs1_vs_jobs4_identical_results(self):
        grid = small_grid()
        serial = run_jobs(grid, jobs=1)
        parallel = run_jobs(grid, jobs=4)
        assert len(parallel.results) == len(grid)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.request == theirs.request
            # RunResult is a tree of eq-dataclasses; byte-identical
            # accounting means full equality, floats included.
            assert ours.result == theirs.result, ours.request.label()

    def test_parallel_uses_multiple_processes(self):
        report = run_jobs(small_grid(), jobs=4)
        assert len(report.worker_pids()) > 1

    def test_mix_requests_equivalent(self):
        requests = [
            MixRequest(("soplex", "lbm"), policy, length_per_core=2_000)
            for policy in GRID_POLICIES
        ]
        serial = run_jobs(requests, jobs=1)
        parallel = run_jobs(requests, jobs=2)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.result == theirs.result

    def test_grid_helper_indexes_all_cells(self):
        results, report = run_policy_grid(
            GRID_BENCHMARKS, GRID_POLICIES, LENGTH, jobs=2
        )
        assert set(results) == {
            (b, p) for b in GRID_BENCHMARKS for p in GRID_POLICIES
        }
        assert len(report.results) == 4

    def test_sweep_helpers_match_each_other(self):
        swept = run_policy_sweep("soplex", GRID_POLICIES, length=LENGTH,
                                 jobs=2)
        grid, _ = run_policy_grid(("soplex",), GRID_POLICIES, LENGTH,
                                  jobs=1)
        for policy in GRID_POLICIES:
            assert swept[policy] == grid[("soplex", policy)]

    def test_run_jobs_simulates_every_request_every_call(self):
        # Kernel-vs-walk tests call run_jobs twice on one grid and
        # compare: a memo here would compare a kernel with itself.
        grid = small_grid()
        run_cells(grid, jobs=1)
        first = run_jobs(grid, jobs=1)
        second = run_jobs(grid, jobs=1)
        for report in (first, second):
            assert len(report.results) == len(grid)
            assert report.memo_hits == 0
        for ours, theirs in zip(first.results, second.results):
            assert ours.result is not theirs.result
            assert ours.result == theirs.result


class TestSweepReport:
    def test_accounting(self):
        report = run_jobs(small_grid(), jobs=1)
        assert report.total_accesses == LENGTH * len(small_grid())
        assert report.busy_seconds == pytest.approx(
            sum(r.wall_seconds for r in report.results)
        )
        assert report.speedup > 0

    def test_lines_have_per_job_and_aggregate(self):
        report = run_jobs(small_grid(), jobs=1)
        lines = report.lines()
        assert len(lines) == len(small_grid()) + 1
        assert "acc/s" in lines[0]
        assert "speedup" in lines[-1]
        assert len(report.lines(per_job=False)) == 1


class TestRunCells:
    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(parallel, "_MEMO", {})

    def test_parallel_matches_serial(self):
        grid = small_grid()
        results, report = run_cells(grid, jobs=2)
        assert len(report.results) == len(grid)
        serial = run_jobs(grid, jobs=1)
        for result, job in zip(results, serial.results):
            assert result == job.result, job.request.label()

    def test_memo_hits_skip_simulation(self):
        cells = [RunRequest("soplex", "baseline", length=LENGTH)]
        (first,), report = run_cells(cells, jobs=1)
        assert len(report.results) == 1 and report.memo_hits == 0
        (second,), report = run_cells(cells, jobs=1)
        assert report.results == [] and report.memo_hits == 1
        assert second is first
        assert "0 jobs, 1 from memo" in report.lines()[-1]

    def test_config_none_shares_the_default_system_entry(self):
        implicit = RunRequest("soplex", "baseline", length=LENGTH)
        explicit = RunRequest("soplex", "baseline", length=LENGTH,
                              config=default_system())
        (first,), _ = run_cells([implicit], jobs=1)
        (second,), report = run_cells([explicit], jobs=1)
        assert report.results == [] and report.memo_hits == 1
        assert second is first
        assert len(parallel._MEMO) == 1

    def test_duplicate_requests_simulate_once(self):
        request = RunRequest("lbm", "slip_abp", length=LENGTH)
        results, report = run_cells([request, request], jobs=2)
        assert len(report.results) == 1 and report.memo_hits == 1
        assert results[0] is results[1]

    def test_results_keep_request_order(self):
        grid = small_grid()
        run_cells(grid[1:2], jobs=1)
        results, report = run_cells(grid, jobs=1)
        assert report.memo_hits == 1
        assert [(r.benchmark, r.policy) for r in results] == [
            (q.benchmark, q.policy) for q in grid
        ]


class TestRunnerCliJobs:
    def test_settings_from_args_honours_zero(self):
        import argparse

        args = argparse.Namespace(length=0, seed=0, jobs=None)
        settings = settings_from_args(args)
        assert settings.length == 0
        assert settings.seed == 0

    def test_settings_from_args_defaults(self):
        import argparse

        args = argparse.Namespace(length=None, seed=None, jobs=3)
        settings = settings_from_args(args)
        assert settings.length == ExperimentSettings().length
        assert settings.jobs == 3

    def test_cli_jobs_flag_prints_sweep_report(self, capsys):
        assert main(["fig01", "--length", str(LENGTH), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "[sweep]" in out
        assert "speedup" in out

    def test_cli_tables_identical_across_jobs(self):
        # Fresh interpreters (no shared in-process sweep cache), so the
        # jobs=1 and jobs=4 tables are computed independently and must
        # come out byte-identical once timing lines are stripped.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(JOBS_ENV, None)

        def tables(jobs):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner",
                 "fig01", "--length", str(LENGTH), "--jobs", str(jobs)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            # Timing lines ([job ...], [sweep ...], [fig01 took ...])
            # legitimately differ; everything else must not.
            return [line for line in proc.stdout.splitlines()
                    if not line.startswith("[")]

        assert tables(1) == tables(4)
