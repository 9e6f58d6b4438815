"""Figure 11: access vs movement energy breakdown per policy.

Each (benchmark, level) group shows five bars — baseline, NuRAPID,
LRU-PEA, SLIP, SLIP+ABP — normalized to the baseline total for that
benchmark. Movement energy includes inter-sublevel movement, insertion
and writeback energy (the figure's caption definition). The paper's
story: NuRAPID and LRU-PEA reduce *access* energy but explode *movement*
energy; SLIP minimizes the sum.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..mem.stats import LevelStats
from .common import ALL_POLICIES, ExperimentSettings, Table, sweep_results
from .parallel import SweepReport


def breakdown(stats: LevelStats) -> Tuple[float, float]:
    """(access, movement) energy in pJ per the Figure 11 definition."""
    energy = stats.energy
    access = energy.access_pj
    movement = (
        energy.move_total_pj
        + energy.metadata_pj
        + energy.movement_queue_pj
    )
    return access, movement


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks for p in ALL_POLICIES]


Breakdowns = Dict[str, Dict[str, Tuple[float, float]]]


def _breakdowns(settings: ExperimentSettings,
                level: str) -> Tuple[Breakdowns, SweepReport]:
    results, report = sweep_results(settings, required_cells(settings))
    out: Breakdowns = {}
    for benchmark in settings.benchmarks:
        base = results[(benchmark, "baseline")]
        stats = {"L2": base.l2, "L3": base.l3}[level]
        base_total = sum(breakdown(stats)) or 1.0
        per_policy = {}
        for policy in ALL_POLICIES:
            result = results[(benchmark, policy)]
            stats = {"L2": result.l2, "L3": result.l3}[level]
            access, movement = breakdown(stats)
            per_policy[policy] = (access / base_total, movement / base_total)
        out[benchmark] = per_policy
    return out, report


def normalized_breakdowns(
    settings: Optional[ExperimentSettings] = None,
    level: str = "L2",
) -> Breakdowns:
    """{benchmark: {policy: (access, movement)}} normalized to baseline."""
    return _breakdowns(settings or ExperimentSettings(), level)[0]


def run(settings: Optional[ExperimentSettings] = None,
        level: str = "L2") -> Table:
    settings = settings or ExperimentSettings()
    data, report = _breakdowns(settings, level)
    rows = []
    for benchmark, per_policy in data.items():
        row = [benchmark]
        for policy in ALL_POLICIES:
            access, movement = per_policy[policy]
            row.append(f"{access:.2f}+{movement:.2f}")
        rows.append(row)
    return Table(
        title=(
            f"Figure 11 ({level}): access+movement energy, "
            "normalized to baseline total"
        ),
        headers=["benchmark"] + list(ALL_POLICIES),
        rows=rows,
        notes=(
            "Each cell is access+movement. Paper: NuRAPID/LRU-PEA cut "
            "access energy but multiply movement energy; SLIP lowers the "
            "sum below 1.0."
        ),
        perf=report.lines(),
    )
