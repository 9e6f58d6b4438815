"""Single-core cells: the one-core case of the N-core driver.

:func:`run_trace` builds one hierarchy, hands it to
:func:`repro.sim.filtered.simulate` with its trace and collects a
:class:`~repro.sim.results.RunResult` with timing; the benchmark and
sweep helpers below generate the traces and fan cells out.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.energy_model import LevelEnergyParams
from ..workloads.benchmarks import make_trace
from ..workloads.trace import Trace
from .build import build_hierarchy
from .config import SystemConfig, default_system
from .filtered import simulate
from .results import RunResult, collect_result
from .timing import execution_time


def run_trace(
    trace: Trace,
    policy: str,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    replacement: str = "lru",
    warmup_fraction: float = 0.25,
    level_energy_overrides: Optional[Dict[str, LevelEnergyParams]] = None,
    always_sample: bool = False,
    store=None,
) -> RunResult:
    """Simulate one trace under one policy and collect all statistics.

    The first ``warmup_fraction`` of the trace warms caches, TLB and
    SLIP page metadata with statistics discarded afterwards — the
    analog of the paper's SimPoint warmup before measurement.

    The cell is the one-core case of the N-core driver
    (:func:`repro.sim.filtered.simulate`): it captures the front end
    once per (trace, front-end fingerprint) into ``store`` (sweeps
    pass the shared :func:`~repro.workloads.capture_store.default_store`;
    with ``None`` the cell captures, replays and keeps nothing) and
    replays the captured boundary, or walks the trace where no capture
    can serve.
    """
    config = config or default_system()
    hierarchy = build_hierarchy(
        config, policy, seed=seed, replacement=replacement,
        level_energy_overrides=level_energy_overrides,
        always_sample=always_sample,
    )
    simulate([hierarchy], [trace], config, seed, warmup_fraction, store)
    n = len(trace)
    measured_instructions = (
        (n - int(n * warmup_fraction)) * trace.instructions_per_access
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
    trace deterministically through the shared trace cache, and every
    policy replays one capture of the trace's front end through the
    shared store.
    """
    policies = list(policies)
    # Imported lazily: the experiments package imports this module.
    from ..experiments.parallel import run_policy_grid

    results, _ = run_policy_grid(
        [benchmark], policies, length, seed=seed, config=config, jobs=jobs,
    )
    return {policy: results[(benchmark, policy)] for policy in policies}
