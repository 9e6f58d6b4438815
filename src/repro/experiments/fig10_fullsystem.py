"""Figure 10: full-system dynamic energy savings.

The paper reports 0.73% (SLIP) and 1.68% (SLIP+ABP) across core, all
caches and DRAM: lower-level caches are a modest slice of total dynamic
energy, so 35%/22% cache savings compress to low single digits at the
system level. The core-energy constant in :class:`CoreConfig` is
calibrated so the L2+L3 share sits in the range the paper implies.
"""

from __future__ import annotations

from typing import Optional

from .common import (
    ExperimentSettings,
    Table,
    arithmetic_mean,
    pct,
    sweep_results,
)

PAPER_AVERAGES = {"slip": 0.0073, "slip_abp": 0.0168}


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks
            for p in ("baseline", "slip", "slip_abp")]


def run(settings: Optional[ExperimentSettings] = None) -> Table:
    settings = settings or ExperimentSettings()
    results, report = sweep_results(settings, required_cells(settings))
    policies = ("slip", "slip_abp")
    rows = []
    sums = {p: [] for p in policies}
    for benchmark in settings.benchmarks:
        base = results[(benchmark, "baseline")]
        row = [benchmark]
        for policy in policies:
            saving = results[(benchmark, policy)].full_system_savings_over(
                base
            )
            sums[policy].append(saving)
            row.append(pct(saving))
        rows.append(row)
    rows.append(
        ["average"] + [pct(arithmetic_mean(sums[p])) for p in policies]
    )
    return Table(
        title="Figure 10: full-system dynamic energy savings",
        headers=["benchmark", "slip", "slip_abp"],
        rows=rows,
        notes="Paper averages: SLIP +0.73%, SLIP+ABP +1.68%.",
        perf=report.lines(),
    )
