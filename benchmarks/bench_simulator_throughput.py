"""Microbenchmark: simulator throughput (accesses/second).

Not a paper figure — a regression guard for the substrate itself, and
the one bench where pytest-benchmark's multi-round statistics are
meaningful.
"""

import os

import pytest

from repro.experiments.parallel import RunRequest, run_jobs
from repro.sim.build import build_hierarchy
from repro.sim.config import default_system
from repro.sim.single_core import run_trace
from repro.sim.vector_frontend import capture_front_end_vector
from repro.workloads.benchmarks import make_trace
from repro.workloads.capture_store import MemoryCaptureStore

N = 20_000
MEASURED = N - N // 4  # replay results count post-warmup accesses only


def drive(policy: str) -> int:
    """One ``access()`` per reference over 20k soplex accesses: the
    scalar reference walk, through the primitive-built placement
    fills."""
    config = default_system()
    hierarchy = build_hierarchy(config, policy)
    trace = make_trace("soplex", N)
    access = hierarchy.access
    for addr, wr in zip(trace.addresses.tolist(), trace.is_write.tolist()):
        access(addr, wr)
    return hierarchy.counters.demand_accesses


def test_throughput_baseline(benchmark):
    # One warmup round: the first build pays one-time import and
    # allocator costs that would otherwise dominate a 2-round mean.
    assert benchmark.pedantic(drive, args=("baseline",), rounds=5,
                              warmup_rounds=1, iterations=1) == N


def test_throughput_slip_abp(benchmark):
    assert benchmark.pedantic(drive, args=("slip_abp",), rounds=5,
                              warmup_rounds=1, iterations=1) == N


SWEEP_GRID = [
    RunRequest(b, p, length=N)
    for b in ("soplex", "lbm")
    for p in ("baseline", "slip", "slip_abp")
]
CELLS = [(r.benchmark, r.policy) for r in SWEEP_GRID]


def make_replay_cell(bench: str, policy: str):
    """A warmed zero-arg replay closure for one sweep grid cell.

    The first run fills a private in-memory store, so
    every call of the returned closure times exactly one warm replay —
    the unit the aggregate sweep bench repeats six times. Also used by
    ``scripts/throughput_gate.py`` for the per-kind replay gates.
    """
    config = default_system()
    trace = make_trace(bench, N)
    store = MemoryCaptureStore()
    run_trace(trace, policy, config=config, store=store)

    def replay() -> int:
        result = run_trace(trace, policy, config=config, store=store)
        return result.counters.demand_accesses

    return replay


@pytest.mark.parametrize("bench,policy", CELLS,
                         ids=[f"{b}-{p}" for b, p in CELLS])
def test_replay_cell(benchmark, bench, policy):
    # Per-kind warm replay: baseline cells take the batched
    # vector_replay kernel, slip/slip_abp cells the phase-split
    # vector_replay_slip kernel (a scalar fallback would still pass
    # but shows up as a per-cell slowdown the aggregate sweep can hide;
    # a slip cell the kernel declines walks).
    replay = make_replay_cell(bench, policy)
    assert benchmark.pedantic(replay, rounds=3, warmup_rounds=1,
                              iterations=1) == MEASURED


def make_capture_cell(bench: str):
    """A zero-arg cold-capture closure for one benchmark trace.

    Every call times one full front-end capture pass — the cost a cold
    sweep pays per (trace, front-end fingerprint) before any replay can
    happen. The batched vector_frontend kernel serves it, offered a
    baseline hierarchy as ``run_trace`` offers the cell's own; a decline
    raises. Also used by ``scripts/throughput_gate.py`` for the
    cold-capture gates.
    """
    config = default_system()
    trace = make_trace(bench, N)

    def capture() -> int:
        hierarchy = build_hierarchy(config, "baseline")
        captured = capture_front_end_vector(hierarchy, trace, config)
        if captured is None:
            raise RuntimeError("the capture kernel declined "
                               f"({hierarchy.kernel_declines.frontend})")
        return captured.n

    return capture


@pytest.mark.parametrize("bench", ("soplex", "lbm"))
def test_capture_cell(benchmark, bench):
    capture = make_capture_cell(bench)
    assert benchmark.pedantic(capture, rounds=3, warmup_rounds=1,
                              iterations=1) == N


DIRECT_CELLS = (("soplex", "baseline"), ("soplex", "slip_abp"))


def make_direct_cell(bench: str, policy: str):
    """A zero-arg store-less run closure for one cell.

    Every call is one full store-less ``run_trace``: it captures the
    front end with the kernel, replays it and keeps nothing. Also
    used by ``scripts/throughput_gate.py`` for the direct-drive gates.
    """
    config = default_system()
    trace = make_trace(bench, N)

    def direct() -> int:
        result = run_trace(trace, policy, config=config)
        return result.counters.demand_accesses

    return direct


@pytest.mark.parametrize("bench,policy", DIRECT_CELLS,
                         ids=[f"{b}-{p}" for b, p in DIRECT_CELLS])
def test_direct_cell(benchmark, bench, policy):
    # Replay vs the scalar `drive` above: the same trace and geometry,
    # so a decline regression (a kernel silently falling back to the
    # scalar walk) shows up as this converging on drive()'s cost.
    direct = make_direct_cell(bench, policy)
    assert benchmark.pedantic(direct, rounds=3, warmup_rounds=1,
                              iterations=1) == MEASURED


def sweep(jobs: int) -> int:
    report = run_jobs(SWEEP_GRID, jobs=jobs)
    return report.total_accesses


def test_sweep_throughput_serial(benchmark):
    # One warmup round populates the capture store, so the measured
    # rounds time the replay path — the same protocol
    # as scripts/throughput_gate.py, which warms before timing.
    assert benchmark.pedantic(sweep, args=(1,), rounds=3,
                              warmup_rounds=1,
                              iterations=1) == N * len(SWEEP_GRID)


@pytest.mark.multiproc
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs >=2 cores for a meaningful pool sweep")
def test_sweep_throughput_parallel(benchmark):
    jobs = min(4, os.cpu_count() or 1)
    assert benchmark.pedantic(sweep, args=(jobs,), rounds=2,
                              warmup_rounds=1,
                              iterations=1) == N * len(SWEEP_GRID)
