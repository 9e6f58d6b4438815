"""Figure 13: speedups versus the regular memory hierarchy.

The paper measures +0.06% (NuRAPID), +0.16% (LRU-PEA), +0.24% (SLIP)
and +0.75% (SLIP+ABP, up to 3% on individual workloads): SPEC hit rates
at L2/L3 are low, so DRAM dominates AMAT and every policy lands within a
percent of baseline. Our AMAT/CPI model targets that insight — all
policies should sit within low single-digit percents of baseline — not
the exact orderings of fractions of a percent.
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

PAPER_AVERAGES = {
    "nurapid": 0.0006,
    "lru_pea": 0.0016,
    "slip": 0.0024,
    "slip_abp": 0.0075,
}

POLICIES = ("nurapid", "lru_pea", "slip", "slip_abp")


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks
            for p in ("baseline",) + POLICIES]


def run(settings: Optional[ExperimentSettings] = None) -> Table:
    settings = settings or ExperimentSettings()
    results, report = sweep_results(settings, required_cells(settings))
    rows = []
    sums = {p: [] for p in POLICIES}
    for benchmark in settings.benchmarks:
        base = results[(benchmark, "baseline")]
        row = [benchmark]
        for policy in POLICIES:
            speedup = results[(benchmark, policy)].speedup_over(base)
            sums[policy].append(speedup)
            row.append(pct(speedup))
        rows.append(row)
    rows.append(
        ["average"] + [pct(arithmetic_mean(sums[p])) for p in POLICIES]
    )
    return Table(
        title="Figure 13: speedup vs regular memory hierarchy",
        headers=["benchmark"] + list(POLICIES),
        rows=rows,
        notes=(
            "Paper averages: +0.06% / +0.16% / +0.24% / +0.75%; all "
            "policies within ~1% because DRAM time dominates."
        ),
        perf=report.lines(),
    )
