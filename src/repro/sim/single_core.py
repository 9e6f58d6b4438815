"""Single-core trace-driven simulation driver."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.energy_model import LevelEnergyParams
from ..workloads.benchmarks import make_trace
from ..workloads.capture_store import (
    CaptureError,
    MemoryCaptureStore,
    default_store,
    fingerprint_key,
)
from ..workloads.trace import Trace
from .build import build_hierarchy, maybe_boost_sampler, runtime_kind
from .config import SystemConfig, default_system
from .filtered import (
    _resolve_plan,
    capture_front_end,
    front_end_fingerprint,
    replay_capture,
)
from .replay_plan import plan_geometry
from .results import RunResult, collect_result
from .timing import execution_time
from .vector_frontend import capture_front_end_vector

#: Where store-less runs keep their captures and plans: a few recent
#: entries, so repeated runs of one trace in a process skip the capture
#: and the plan build, while a store-less run never writes to the
#: shared :func:`~repro.workloads.capture_store.default_store`.
_RUN_STORE = MemoryCaptureStore(max_entries=4)


def run_trace(
    trace: Trace,
    policy: str,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    replacement: str = "lru",
    warmup_fraction: float = 0.25,
    warmup_sampling_boost: bool = True,
    level_energy_overrides: Optional[Dict[str, LevelEnergyParams]] = None,
    always_sample: bool = False,
    store=None,
) -> RunResult:
    """Simulate one trace under one policy and collect all statistics.

    The first ``warmup_fraction`` of the trace warms caches, TLB and
    SLIP page metadata with statistics discarded afterwards — the
    analog of the paper's SimPoint warmup before measurement.

    The front end is captured once per (trace, front-end fingerprint)
    into ``store`` (a process-local store of a few entries when
    ``None``; sweeps pass the shared
    :func:`~repro.workloads.capture_store.default_store`) and the cell
    replays the captured boundary with its store-cached replay plan
    (:mod:`repro.sim.filtered`); the kernels behind both steps fall
    back to their scalar references on their own. SimCheck, per-level
    energy overrides and rd-block SLIP cannot be replayed: those cells
    walk the trace one access at a time, the golden reference every
    other path is byte-identical to.
    """
    config = config or default_system()
    hierarchy = build_hierarchy(
        config, policy, seed=seed, replacement=replacement,
        level_energy_overrides=level_energy_overrides,
        always_sample=always_sample,
    )
    if (hierarchy.simcheck is not None or level_energy_overrides
            or (runtime_kind(policy) == "slip"
                and config.slip.rd_block_lines)):
        return _run_trace_scalar(hierarchy, trace, policy, config,
                                 warmup_fraction, warmup_sampling_boost)
    if store is None:
        store = _RUN_STORE
    fingerprint = front_end_fingerprint(trace, config, seed,
                                        warmup_fraction)
    key = fingerprint_key(fingerprint)
    capture = store.get(key)
    if capture is None:
        # The cell's own hierarchy is the kernel's eligibility probe.
        # The bypass above leaves only config-only decline reasons (the
        # L1 geometry), which a baseline probe would hit too, so a
        # decline goes straight to the scalar walk.
        capture = capture_front_end_vector(hierarchy, trace, config,
                                           warmup_fraction)
        if capture is None:
            try:
                capture = capture_front_end(trace, config,
                                            warmup_fraction)
            except CaptureError:
                return _run_trace_scalar(hierarchy, trace, policy, config,
                                         warmup_fraction,
                                         warmup_sampling_boost)
        store.put(key, capture, fingerprint=fingerprint)
    plan = _resolve_plan(store, key, plan_geometry(config), capture, trace)
    return replay_capture(
        trace, policy, capture, config, seed=seed,
        replacement=replacement,
        warmup_sampling_boost=warmup_sampling_boost,
        always_sample=always_sample, plan=plan, hierarchy=hierarchy,
    )


# slip-audit: twin=replay-plan role=ref
def _run_trace_scalar(
    hierarchy,
    trace: Trace,
    policy: str,
    config: SystemConfig,
    warmup_fraction: float,
    warmup_sampling_boost: bool,
) -> RunResult:
    """The golden-reference scalar walk: one ``access()`` per reference."""
    addresses = trace.addresses.tolist()
    writes = trace.is_write.tolist()
    access = hierarchy.access
    warmup = int(len(addresses) * warmup_fraction)
    maybe_boost_sampler(hierarchy.runtime, warmup_sampling_boost)
    for addr, is_write in zip(addresses[:warmup], writes[:warmup]):
        access(addr, is_write)
    hierarchy.reset_stats()
    for addr, is_write in zip(addresses[warmup:], writes[warmup:]):
        access(addr, is_write)
    hierarchy.finalize()
    measured_instructions = (
        (len(addresses) - warmup) * trace.instructions_per_access
    )
    timing = execution_time(hierarchy, measured_instructions, config.core)
    return collect_result(policy, trace.name, config, hierarchy, timing)


def run_benchmark(
    benchmark: str,
    policy: str,
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    replacement: str = "lru",
) -> RunResult:
    """Generate a benchmark analog trace and simulate it."""
    trace = make_trace(benchmark, length, seed)
    return run_trace(trace, policy, config=config, seed=seed,
                     replacement=replacement)


def run_policy_sweep(
    benchmark: str,
    policies: Iterable[str],
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Run several policies over the *same* trace for fair comparison.

    ``jobs > 1`` fans the policies out across worker processes; results
    are identical to the serial run because each worker regenerates the
    trace deterministically through the shared trace cache.
    """
    config = config or default_system()
    policies = list(policies)
    # Imported lazily: the experiments package imports this module.
    from ..experiments.parallel import resolve_jobs, run_policy_grid

    if resolve_jobs(jobs) > 1 and len(policies) > 1:
        results, _ = run_policy_grid(
            [benchmark], policies, length, seed=seed, config=config,
            jobs=jobs,
        )
        return {policy: results[(benchmark, policy)] for policy in policies}
    # Serial path: the shared store lets every policy replay one
    # capture of the trace's policy-invariant front end.
    trace = make_trace(benchmark, length, seed)
    return {
        policy: run_trace(trace, policy, config=config, seed=seed,
                          store=default_store())
        for policy in policies
    }


def run_benchmark_suite(
    benchmarks: Sequence[str],
    policies: Sequence[str],
    length: int = 200_000,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], RunResult]:
    """Run a whole (benchmark x policy) grid, optionally in parallel.

    The workhorse behind figure sweeps: every cell is an independent
    simulation, so wall-clock scales down with ``jobs`` while the
    result dict stays byte-identical to a serial run.
    """
    from ..experiments.parallel import run_policy_grid

    results, _ = run_policy_grid(
        benchmarks, policies, length, seed=seed, config=config, jobs=jobs,
    )
    return results
