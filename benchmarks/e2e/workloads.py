"""The four end-to-end workloads: which cells run, and how each is checked.

A workload is an ordered list of :class:`Cell`\\ s. Every cell is one
call into a public entry point of the simulator:

* ``sweep``, ``multicore`` and ``scalar-ablation`` cells are
  :class:`~repro.experiments.parallel.RunRequest` /
  :class:`~repro.experiments.parallel.MixRequest` descriptors run by
  :func:`~repro.experiments.parallel.execute_request`, the worker entry
  point behind every figure and ablation;
* ``direct`` cells are store-less :func:`~repro.sim.single_core.run_benchmark`
  calls (trace lookup, then :func:`~repro.sim.single_core.run_trace`),
  the path quickstart users take.

Builders take the access length as a parameter so the smoke test can
run every workload at a tiny size; the benchmark CLI always uses the
defaults below.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.experiments import parallel
from repro.experiments.ablations import SWEEP_BENCHMARKS
from repro.experiments.common import ALL_POLICIES
from repro.experiments.parallel import MixRequest, RunRequest
from repro.sim import single_core
from repro.sim.build import build_hierarchy, maybe_boost_sampler
from repro.sim.config import SystemConfig, default_system
from repro.sim.results import RunResult, collect_result
from repro.sim.timing import execution_time
from repro.workloads.benchmarks import SPEC_ORDER, make_trace
from repro.workloads.mixes import MULTICORE_MIXES, make_mix_traces

#: Warmup fraction of every figure and ablation cell (ExperimentSettings).
FIGURE_WARMUP = 0.3
#: Warmup fraction of store-less ``run_benchmark`` / ``run_trace`` calls.
DIRECT_WARMUP = 0.25
#: Length of the warm-up cells run during set-up, and their seed offset.
#: The offset keeps their traces (and so their capture fingerprints and
#: plan keys) disjoint from every timed cell's.
WARMUP_LENGTH = 4_000
WARMUP_SEED_OFFSET = 999

#: Benchmarks of ``sweep``: working sets from L1-resident (bzip2) to
#: streaming (lbm, milc), plus the pointer-chasing and phase-changing
#: analogs the ablations use.
SWEEP_SET = ("soplex", "mcf", "sphinx3", "lbm", "milc", "bzip2")
#: rd-block granularity (lines) of the ``scalar-ablation`` rd-block cells.
RD_BLOCK_LINES = 16


@dataclass(frozen=True)
class DirectRun:
    """One store-less ``run_benchmark`` call."""

    benchmark: str
    policy: str
    length: int
    seed: int

    @property
    def accesses(self) -> int:
        return self.length


Request = Union[RunRequest, MixRequest, DirectRun]


@dataclass(frozen=True)
class Cell:
    """One timed call. ``cid`` is stable across seeds (seeds relative)."""

    cid: str
    request: Request

    @property
    def accesses(self) -> int:
        return self.request.accesses


@dataclass(frozen=True)
class Workload:
    name: str
    cells: List[Cell]
    #: How the sampled cell is re-checked outside the timed phase:
    #: ``"reference"`` re-simulates it with the benchmark's own scalar
    #: walk; ``"repeat"`` runs it again through the same entry point.
    check: str


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_sweep(seed: int, length: int = 75_000) -> Workload:
    cells = [
        Cell(f"{bench}/{policy}",
             RunRequest(bench, policy, length, seed,
                        warmup_fraction=FIGURE_WARMUP))
        for bench in SWEEP_SET
        for policy in ALL_POLICIES
    ]
    return Workload("sweep", cells, "reference")


def build_direct(seed: int, length: int = 75_000) -> Workload:
    cells = [
        Cell(f"{bench}/seed+{offset}/baseline",
             DirectRun(bench, "baseline", length, seed + offset))
        for bench in SPEC_ORDER
        for offset in (0, 1)
    ]
    return Workload("direct", cells, "reference")


def build_multicore(seed: int, length: int = 20_000) -> Workload:
    cells = [
        Cell(f"{mix[0]}+{mix[1]}/{policy}",
             MixRequest(mix, policy, length, seed,
                        warmup_fraction=FIGURE_WARMUP))
        for mix in MULTICORE_MIXES
        for policy in ("baseline", "slip_abp")
    ]
    return Workload("multicore", cells, "repeat")


def build_scalar_ablation(seed: int, length: int = 25_000) -> Workload:
    cells = [
        Cell(f"{bench}/{policy}/{replacement}",
             RunRequest(bench, policy, length, seed,
                        warmup_fraction=FIGURE_WARMUP,
                        replacement=replacement))
        for replacement in ("drrip", "ship")
        for bench in SWEEP_BENCHMARKS
        for policy in ("baseline", "slip_abp")
    ]
    rd_config = default_system().with_slip(rd_block_lines=RD_BLOCK_LINES)
    cells += [
        Cell(f"{bench}/slip_abp/rd-block-{RD_BLOCK_LINES}",
             RunRequest(bench, "slip_abp", length, seed,
                        warmup_fraction=FIGURE_WARMUP, config=rd_config))
        for bench in SWEEP_BENCHMARKS
    ]
    return Workload("scalar-ablation", cells, "reference")


BUILDERS: Dict[str, Callable[..., Workload]] = {
    "sweep": build_sweep,
    "direct": build_direct,
    "multicore": build_multicore,
    "scalar-ablation": build_scalar_ablation,
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute(request: Request):
    """Run one cell through its public entry point.

    Entry points are looked up on their modules at call time, so the
    traced run's wrappers see every call.
    """
    if isinstance(request, DirectRun):
        return single_core.run_benchmark(
            request.benchmark, request.policy, length=request.length,
            seed=request.seed,
        )
    return parallel.execute_request(request).result


def generate_traces(workload: Workload) -> None:
    """Set-up: fill the trace cache for every cell of the workload."""
    for cell in workload.cells:
        request = cell.request
        if isinstance(request, MixRequest):
            make_mix_traces(request.mix, request.length_per_core,
                            request.seed)
        else:
            make_trace(request.benchmark, request.length, request.seed)


def warmup_requests(workload: Workload, seed: int) -> List[Request]:
    """One tiny cell per distinct cell shape, on seed ``seed + 999``.

    Runs the module-level table builders (code tables, level models,
    EOU memo) once before timing. The traces differ from every timed
    cell's, so no capture, plan or trace the timed phase uses is
    pre-seeded; callers still reset the capture store afterwards.
    """
    wseed = seed + WARMUP_SEED_OFFSET
    shapes: Dict[tuple, Request] = {}
    for cell in workload.cells:
        r = cell.request
        if isinstance(r, MixRequest):
            key = ("mix", r.policy)
            tiny: Request = MixRequest(r.mix, r.policy, WARMUP_LENGTH,
                                       wseed, r.warmup_fraction, r.config)
        elif isinstance(r, DirectRun):
            key = ("direct", r.policy)
            tiny = DirectRun(r.benchmark, r.policy, WARMUP_LENGTH, wseed)
        else:
            key = ("run", r.policy, r.replacement, r.config)
            tiny = RunRequest(r.benchmark, r.policy, WARMUP_LENGTH, wseed,
                              r.warmup_fraction, r.replacement,
                              r.always_sample, r.config)
        shapes.setdefault(key, tiny)
    return list(shapes.values())


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def canonical_json(result) -> str:
    """Canonical bytes of a cell's result, for hashing."""
    if isinstance(result, RunResult):
        return result.to_json()
    return json.dumps(asdict(result), sort_keys=True)


def digest(result) -> str:
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()


def sampled_cell(workload: Workload, seed: int) -> Cell:
    """The cell re-checked outside the timed phase, chosen by seed."""
    return random.Random(seed).choice(workload.cells)


def recheck(workload: Workload, cell: Cell):
    """The cell's result again, by the workload's ``check`` path."""
    if workload.check == "reference":
        return reference_result(cell.request)
    return execute(cell.request)


def reference_result(request: Union[RunRequest, DirectRun]) -> RunResult:
    """Re-simulate a single-core cell with a plain per-access walk.

    Drives ``MemoryHierarchy.access`` directly: no capture/replay, no
    direct pipeline, no kernels, and no ``REPRO_*`` switch that could
    route it onto them. A cell's result must equal it byte for byte.
    """
    if isinstance(request, DirectRun):
        warmup_fraction, replacement = DIRECT_WARMUP, "lru"
        config: Optional[SystemConfig] = None
    else:
        warmup_fraction = request.warmup_fraction
        replacement = request.replacement
        config = request.config
    config = config or default_system()
    trace = make_trace(request.benchmark, request.length, request.seed)
    hierarchy = build_hierarchy(config, request.policy, seed=request.seed,
                                replacement=replacement)
    maybe_boost_sampler(hierarchy.runtime)
    addresses = trace.addresses.tolist()
    writes = trace.is_write.tolist()
    warmup = int(len(addresses) * warmup_fraction)
    access = hierarchy.access
    for addr, is_write in zip(addresses[:warmup], writes[:warmup]):
        access(addr, is_write)
    hierarchy.reset_stats()
    for addr, is_write in zip(addresses[warmup:], writes[warmup:]):
        access(addr, is_write)
    hierarchy.finalize()
    instructions = (len(addresses) - warmup) * trace.instructions_per_access
    timing = execution_time(hierarchy, instructions, config.core)
    return collect_result(request.policy, trace.name, config, hierarchy,
                          timing)
