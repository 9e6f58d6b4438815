"""Figure 15: fraction of accesses served from each sublevel.

All policies shift accesses toward sublevel 0 relative to the baseline's
capacity-proportional 25/25/50 split. NuRAPID and LRU-PEA reach the
highest sublevel-0 fractions — by paying for promotions with movement
energy (Figure 11) — while SLIP gets most of the shift for free through
energy-aware insertion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .common import ALL_POLICIES, ExperimentSettings, Table, sweep_results
from .parallel import SweepReport


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks for p in ALL_POLICIES]


def _averages(settings: ExperimentSettings,
              level: str) -> Tuple[Dict[str, List[float]], SweepReport]:
    results, report = sweep_results(settings, required_cells(settings))
    out: Dict[str, List[float]] = {}
    for policy in ALL_POLICIES:
        sums = [0.0, 0.0, 0.0]
        count = 0
        for benchmark in settings.benchmarks:
            result = results[(benchmark, policy)]
            stats = {"L2": result.l2, "L3": result.l3}[level]
            fractions = stats.sublevel_access_fractions()
            if sum(fractions) == 0:
                continue
            for i, f in enumerate(fractions):
                sums[i] += f
            count += 1
        out[policy] = [s / count if count else 0.0 for s in sums]
    return out, report


def average_fractions(settings: Optional[ExperimentSettings] = None,
                      level: str = "L2") -> Dict[str, List[float]]:
    """{policy: [frac_sublevel0, frac1, frac2]} averaged over benchmarks."""
    return _averages(settings or ExperimentSettings(), level)[0]


def run(settings: Optional[ExperimentSettings] = None,
        level: str = "L2") -> Table:
    settings = settings or ExperimentSettings()
    data, report = _averages(settings, level)
    rows = [
        [policy] + [f"{f:.1%}" for f in data[policy]]
        for policy in ALL_POLICIES
    ]
    return Table(
        title=f"Figure 15 ({level}): access fraction per sublevel",
        headers=["policy", "sublevel 0", "sublevel 1", "sublevel 2"],
        rows=rows,
        notes=(
            "Baseline splits ~25/25/50 (capacity-proportional). All "
            "policies shift toward sublevel 0; NuRAPID/LRU-PEA furthest, "
            "at great movement-energy cost."
        ),
        perf=report.lines(),
    )
