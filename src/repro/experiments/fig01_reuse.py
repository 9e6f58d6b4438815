"""Figure 1: lines broken down by number of reuses before LLC eviction.

The paper motivates SLIP by showing that, in a 2 MB LLC, more than 70%
of lines are evicted without a single reuse and another ~21% see exactly
one. We run the baseline hierarchy and histogram per-fill hit counts at
eviction time.
"""

from __future__ import annotations

from typing import Optional

from ..workloads.benchmarks import FIG1_BENCHMARKS
from .common import ExperimentSettings, Table, arithmetic_mean, sweep_results

PAPER_AVERAGE_NR0 = 0.70  # ">70% of lines receive no hits"
PAPER_AVERAGE_NR1 = 0.21


def required_cells(settings: ExperimentSettings):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, "baseline") for b in FIG1_BENCHMARKS]


def run(settings: Optional[ExperimentSettings] = None) -> Table:
    settings = settings or ExperimentSettings()
    results, report = sweep_results(settings, required_cells(settings))
    rows = []
    fractions = {"0": [], "1": [], "2": [], ">2": []}
    for benchmark in FIG1_BENCHMARKS:
        result = results[(benchmark, "baseline")]
        histogram = result.l3.reuse_histogram
        total = sum(histogram.values()) or 1
        row = [benchmark]
        for key in ("0", "1", "2", ">2"):
            frac = histogram[key] / total
            fractions[key].append(frac)
            row.append(f"{frac:.1%}")
        rows.append(row)
    rows.append(
        ["average"]
        + [f"{arithmetic_mean(fractions[k]):.1%}" for k in ("0", "1", "2", ">2")]
    )
    return Table(
        title="Figure 1: lines by number of reuses (NR) before LLC eviction",
        headers=["benchmark", "NR=0", "NR=1", "NR=2", "NR>2"],
        rows=rows,
        notes=(
            f"Paper: average NR=0 > {PAPER_AVERAGE_NR0:.0%}, "
            f"NR=1 ~ {PAPER_AVERAGE_NR1:.0%} of the remainder."
        ),
        perf=report.lines(),
    )


def average_nr0(settings: Optional[ExperimentSettings] = None) -> float:
    """Machine-readable headline number (used by tests/benches)."""
    settings = settings or ExperimentSettings()
    results, _ = sweep_results(settings, required_cells(settings))
    values = []
    for benchmark in FIG1_BENCHMARKS:
        histogram = results[(benchmark, "baseline")].l3.reuse_histogram
        total = sum(histogram.values()) or 1
        values.append(histogram["0"] / total)
    return arithmetic_mean(values)
