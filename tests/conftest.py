"""Shared fixtures: scaled-down systems so tests run in milliseconds."""

import contextlib

import pytest


@pytest.fixture
def scalar_kernels():
    """A context manager under which the baseline-kind replay kernel
    (``replay_capture_vector``) declines.

    It patches the kernel binding the driver calls, so baseline-kind
    replays come from ``_replay_events``, the scalar replay the kernel
    must match. The capture kernel and the SLIP kernel have no scalar
    twin: the driver walks every cell they cannot serve, so the
    ``walked`` fixture is their reference. A test fake, not a
    production option.
    """
    from repro.sim import filtered

    @contextlib.contextmanager
    def declined():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtered, "replay_capture_vector",
                       lambda *args, **kwargs: False)
            yield

    return declined


@pytest.fixture
def walked():
    """A context manager under which every cell, single-core or mix,
    takes the driver's per-access walk, the golden reference. A test
    fake, not a production option."""
    from repro.sim import filtered

    @contextlib.contextmanager
    def walking():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtered, "_needs_walk", lambda *args: True)
            yield

    return walking


@pytest.fixture
def served_like_walk(walked):
    """The differential check: ``check(run, cell, store)`` serves
    ``run(**cell, store=store)`` twice and asserts both give the bytes
    of the walk of ``run(**cell)``. ``run`` is ``run_trace`` or
    ``run_mix_traces``; ``store=None`` serves without a store, and a
    fresh store serves cold, then warm. A cell's ``argmin`` (see
    ``harness``), when set, replaces the EOU's coefficients on both
    sides."""
    from harness import canonical
    from repro.core.energy_model import SlipEnergyModel

    def check(run, cell, store=None):
        cell = dict(cell)
        argmin = cell.pop("argmin", None)
        with pytest.MonkeyPatch.context() as mp:
            if argmin is not None:
                mp.setattr(SlipEnergyModel, "quantized_alphas", argmin)
            with walked():
                reference = canonical(run(**cell))
            assert ([canonical(run(**cell, store=store))
                     for _ in range(2)] == [reference, reference])

    return check


@pytest.fixture
def pooled_like_walk(walked):
    """The differential check across worker processes: ``check(policies)``
    asserts pooled ``run_jobs`` gives the walk's results for one soplex
    cell per policy, on a cold store and on one the parent warmed
    (forked workers inherit it)."""
    from repro.experiments.parallel import RunRequest, run_jobs
    from repro.workloads.capture_store import reset_default_store

    def check(policies):
        grid = [RunRequest("soplex", policy, length=2_000)
                for policy in policies]
        with walked():
            walk = [job.result for job in run_jobs(grid, jobs=1).results]
        reset_default_store()
        cold = run_jobs(grid, jobs=2)
        run_jobs(grid, jobs=1)  # warm the parent's store
        warm = run_jobs(grid, jobs=2)
        for report in (cold, warm):
            assert [job.result for job in report.results] == walk

    return check


@pytest.fixture
def scalar_run(walked):
    """``run_trace``'s golden reference: one ``access()`` per reference."""
    from repro.sim.single_core import run_trace

    def run(trace, policy, config=None, **kwargs):
        with walked():
            return run_trace(trace, policy, config=config, **kwargs)

    return run


@pytest.fixture
def tiny_system():
    from harness import tiny_config

    return tiny_config()


@pytest.fixture
def paper_system():
    from repro.sim.config import default_system

    return default_system()
