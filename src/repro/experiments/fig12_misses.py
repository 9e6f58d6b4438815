"""Figure 12: relative miss traffic (demand + metadata) at L2 and L3.

SLIP's metadata (PTE policy bits and per-page distributions) travels
through the hierarchy, so the figure reports total miss traffic —
demand plus overhead — relative to the baseline's demand misses. The
paper finds SLIP/SLIP+ABP *reduce* total traffic (-1.7%/-2.4% at L2,
-1%/-2.2% at L3) because bypassing avoids pollution, and that metadata
overhead is visible at L2 for TLB-heavy workloads but rarely reaches
DRAM (time-based sampling keeps it under ~2%).
"""

from __future__ import annotations

from typing import Optional

from .common import (
    ExperimentSettings,
    Table,
    arithmetic_mean,
    sweep_results,
)

PAPER_AVERAGES = {
    ("slip", "L2"): 0.983,
    ("slip_abp", "L2"): 0.976,
    ("slip", "L3"): 0.99,
    ("slip_abp", "L3"): 0.978,
}


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks
            for p in ("baseline", "slip", "slip_abp")]


def run(settings: Optional[ExperimentSettings] = None,
        level: str = "L2") -> Table:
    settings = settings or ExperimentSettings()
    results, report = sweep_results(settings, required_cells(settings))
    policies = ("slip", "slip_abp")
    rows = []
    rel = {p: [] for p in policies}
    demand_only = {p: [] for p in policies}
    for benchmark in settings.benchmarks:
        base = results[(benchmark, "baseline")]
        row = [benchmark]
        for policy in policies:
            result = results[(benchmark, policy)]
            relative = result.relative_misses(base, level)
            rel[policy].append(relative)
            base_demand = base.miss_traffic(level)["demand"] or 1
            dem = result.miss_traffic(level)["demand"] / base_demand
            demand_only[policy].append(dem)
            row.append(f"{relative:.3f} ({dem:.3f})")
        rows.append(row)
    rows.append(
        ["average"]
        + [
            f"{arithmetic_mean(rel[p]):.3f} "
            f"({arithmetic_mean(demand_only[p]):.3f})"
            for p in policies
        ]
    )
    return Table(
        title=f"Figure 12 ({level}): relative miss traffic vs baseline",
        headers=["benchmark", "slip total(demand)", "slip_abp total(demand)"],
        rows=rows,
        notes=(
            "Cells: total-including-metadata (demand-only). Paper "
            "averages (total): L2 0.983/0.976, L3 0.990/0.978."
        ),
        perf=report.lines(),
    )
