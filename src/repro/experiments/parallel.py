"""Parallel execution engine for experiments and policy sweeps.

Every figure and ablation of the paper is a sweep over independent
(benchmark, policy) or (mix, policy) cells, so the whole table set is
embarrassingly parallel. This module turns one cell into a picklable
job descriptor (:class:`RunRequest` / :class:`MixRequest`), executes
batches of them either in-process or on a ``ProcessPoolExecutor``, and
reports per-job wall-clock and throughput so fan-out efficiency is
visible in every run. Experiments get their results through
:func:`run_cells`, which serves each distinct request once per process
and fans the rest out through :func:`run_jobs`.

Determinism contract: a job's entire behaviour is a pure function of
its request. Workers regenerate traces through the LRU-cached trace
factory (:func:`repro.workloads.benchmarks.make_trace`), which is
deterministic per ``(benchmark, length, seed)``, so the same request
grid produces byte-identical results at ``jobs=1`` and ``jobs=N``.
Worker count comes from the explicit ``jobs`` argument, else the
``REPRO_EXP_JOBS`` environment variable, else 1 (serial).
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.config import SystemConfig, default_system
from ..sim.multi_core import MulticoreResult, run_mix
from ..sim.results import RunResult
from ..sim.single_core import run_trace
from ..workloads.benchmarks import make_trace
from ..workloads.capture_store import default_store

#: Environment variable read when no explicit worker count is given.
JOBS_ENV = "REPRO_EXP_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument > ``REPRO_EXP_JOBS`` > 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from None
    if jobs is None:
        jobs = 1
    return max(1, jobs)


# ----------------------------------------------------------------------
# Job descriptors (picklable, hashable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunRequest:
    """One single-core simulation cell: a benchmark under a policy."""

    benchmark: str
    policy: str
    length: int
    seed: int = 0
    warmup_fraction: float = 0.25
    replacement: str = "lru"
    always_sample: bool = False
    #: ``None`` means the Table 1 default system (built in the worker).
    config: Optional[SystemConfig] = None

    def label(self) -> str:
        return f"{self.benchmark}/{self.policy}"

    @property
    def accesses(self) -> int:
        return self.length


@dataclass(frozen=True)
class MixRequest:
    """One multiprogrammed cell: a two-core mix under a policy."""

    mix: Tuple[str, ...]
    policy: str
    length_per_core: int
    seed: int = 0
    warmup_fraction: float = 0.3
    config: Optional[SystemConfig] = None

    def label(self) -> str:
        return f"{'+'.join(self.mix)}/{self.policy}"

    @property
    def accesses(self) -> int:
        return self.length_per_core * len(self.mix)


Request = Union[RunRequest, MixRequest]
Result = Union[RunResult, MulticoreResult]


@dataclass
class JobResult:
    """One executed request with its result and timing observability."""

    request: Request
    result: Result
    wall_seconds: float
    accesses: int
    pid: int

    @property
    def accesses_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.accesses / self.wall_seconds


def execute_request(request: Request) -> JobResult:
    """Run one job; pure function of the request (worker entry point)."""
    started = time.perf_counter()
    # Workers share captures through the default store: in-memory, or
    # the on-disk store every pool worker sees when REPRO_CAPTURE_DIR
    # is set (workers inherit it).
    if isinstance(request, MixRequest):
        result: Result = run_mix(
            request.mix,
            request.policy,
            length_per_core=request.length_per_core,
            config=request.config,
            seed=request.seed,
            warmup_fraction=request.warmup_fraction,
            store=default_store(),
        )
    else:
        trace = make_trace(request.benchmark, request.length, request.seed)
        result = run_trace(
            trace,
            request.policy,
            config=request.config,
            seed=request.seed,
            replacement=request.replacement,
            warmup_fraction=request.warmup_fraction,
            always_sample=request.always_sample,
            store=default_store(),
        )
    wall = time.perf_counter() - started
    return JobResult(request, result, wall, request.accesses, os.getpid())


# ----------------------------------------------------------------------
# Batch execution + reporting
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """Timing/throughput observability for one executed batch.

    ``results`` preserves request order regardless of worker count, so
    callers can zip it back against their request list.
    """

    jobs: int
    elapsed_seconds: float
    results: List[JobResult] = field(default_factory=list)
    #: Cells :func:`run_cells` served from its memo, without simulating.
    memo_hits: int = 0

    @property
    def busy_seconds(self) -> float:
        """Summed per-job wall-clock (serial-equivalent time)."""
        return sum(r.wall_seconds for r in self.results)

    @property
    def total_accesses(self) -> int:
        return sum(r.accesses for r in self.results)

    @property
    def aggregate_accesses_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_accesses / self.elapsed_seconds

    @property
    def speedup(self) -> float:
        """Parallel speedup: serial-equivalent time over elapsed time."""
        if self.elapsed_seconds <= 0:
            return 1.0
        return self.busy_seconds / self.elapsed_seconds

    def worker_pids(self) -> List[int]:
        return sorted({r.pid for r in self.results})

    def lines(self, per_job: bool = True) -> List[str]:
        """Human-readable per-job and aggregate throughput lines."""
        out = []
        if per_job:
            width = len(str(len(self.results)))
            for idx, job in enumerate(self.results, start=1):
                out.append(
                    f"[job {idx:>{width}}/{len(self.results)}] "
                    f"{job.request.label()}: {job.wall_seconds:.2f}s, "
                    f"{job.accesses_per_sec:,.0f} acc/s (pid {job.pid})"
                )
        out.append(
            f"[sweep] {len(self.results)} jobs, {self.memo_hits} from "
            f"memo, on {self.jobs} worker(s) "
            f"({len(self.worker_pids())} process(es)): "
            f"{self.elapsed_seconds:.2f}s wall, "
            f"{self.busy_seconds:.2f}s serial-equivalent, "
            f"{self.speedup:.2f}x speedup, "
            f"{self.aggregate_accesses_per_sec:,.0f} acc/s aggregate"
        )
        return out

    def summary(self) -> str:
        return "\n".join(self.lines(per_job=False))


def run_jobs(requests: Iterable[Request],
             jobs: Optional[int] = None) -> SweepReport:
    """Execute a batch of requests on up to ``jobs`` worker processes.

    ``jobs <= 1`` (or a single request) runs in-process with the same
    reporting, so serial and parallel callers share one code path.
    """
    request_list = list(requests)
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    if jobs == 1 or len(request_list) <= 1:
        results = [execute_request(r) for r in request_list]
    else:
        workers = min(jobs, len(request_list))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute_request, request_list))
    elapsed = time.perf_counter() - started
    return SweepReport(jobs=jobs, elapsed_seconds=elapsed, results=results)


#: Every result :func:`run_cells` has returned in this process, keyed by
#: its request with ``config=None`` normalised to the Table 1 system.
#: Only ``run_cells`` reads it: ``run_jobs`` and ``execute_request``
#: simulate every request they are given.
_MEMO: Dict[Request, Result] = {}


def _memo_key(request: Request) -> Request:
    if request.config is None:
        return dataclasses.replace(request, config=default_system())
    return request


def run_cells(requests: Iterable[Request],
              jobs: Optional[int] = None) -> Tuple[List[Result], SweepReport]:
    """The experiment suite's one way to get results.

    Returns the results in request order and the report of the cells
    that were simulated. A request seen before in this process is
    served from the memo; the distinct unseen ones run through
    :func:`run_jobs` and the parent keeps what the workers return. A
    result is a pure function of its request, so a served cell is the
    same bytes a fresh simulation would give; the report counts the
    served cells in ``memo_hits``.
    """
    keys = [_memo_key(request) for request in requests]
    misses = [key for key in dict.fromkeys(keys) if key not in _MEMO]
    report = run_jobs(misses, jobs=jobs)
    for job in report.results:
        _MEMO[job.request] = job.result
    report.memo_hits = len(keys) - len(misses)
    return [_MEMO[key] for key in keys], report


def sweep_requests(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    length: int,
    seed: int = 0,
    warmup_fraction: float = 0.25,
    config: Optional[SystemConfig] = None,
    replacement: str = "lru",
) -> List[RunRequest]:
    """The full (benchmark x policy) grid as request descriptors."""
    return [
        RunRequest(
            benchmark=benchmark,
            policy=policy,
            length=length,
            seed=seed,
            warmup_fraction=warmup_fraction,
            replacement=replacement,
            config=config,
        )
        for benchmark in benchmarks
        for policy in policies
    ]


def run_policy_grid(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    length: int,
    seed: int = 0,
    warmup_fraction: float = 0.25,
    config: Optional[SystemConfig] = None,
    replacement: str = "lru",
    jobs: Optional[int] = None,
) -> Tuple[Dict[Tuple[str, str], RunResult], SweepReport]:
    """Run a whole grid and index results by (benchmark, policy)."""
    requests = sweep_requests(
        benchmarks, policies, length, seed=seed,
        warmup_fraction=warmup_fraction, config=config,
        replacement=replacement,
    )
    report = run_jobs(requests, jobs=jobs)
    results = {
        (job.request.benchmark, job.request.policy): job.result
        for job in report.results
    }
    return results, report
