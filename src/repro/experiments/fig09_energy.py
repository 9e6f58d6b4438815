"""Figure 9: L2 and L3 energy savings of SLIP and SLIP+ABP.

Paper headline: SLIP saves 21% (L2) / 13% (L3); adding ABP raises that
to 35% / 22%. NuRAPID and LRU-PEA are omitted from the figure because
they *increase* energy (by 84%/94% and 79%/83% respectively) — we report
them in the notes the same way.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .common import (
    ExperimentSettings,
    Table,
    arithmetic_mean,
    pct,
    sweep_results,
)
from .parallel import SweepReport

PAPER_AVERAGES = {
    ("slip", "L2"): 0.21,
    ("slip", "L3"): 0.13,
    ("slip_abp", "L2"): 0.35,
    ("slip_abp", "L3"): 0.22,
    ("nurapid", "L2"): -0.84,
    ("nurapid", "L3"): -0.94,
    ("lru_pea", "L2"): -0.79,
    ("lru_pea", "L3"): -0.83,
}


Savings = Dict[str, Dict[str, Dict[str, float]]]


def required_cells(settings: ExperimentSettings,
                   policies: Sequence[str] = ("slip", "slip_abp")):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, p) for b in settings.benchmarks
            for p in ("baseline", *policies)]


def _savings(settings: ExperimentSettings,
             policies: Sequence[str]) -> Tuple[Savings, SweepReport]:
    results, report = sweep_results(
        settings, required_cells(settings, policies)
    )
    out: Savings = {p: {"L2": {}, "L3": {}} for p in policies}
    for benchmark in settings.benchmarks:
        base = results[(benchmark, "baseline")]
        for policy in policies:
            result = results[(benchmark, policy)]
            for level in ("L2", "L3"):
                out[policy][level][benchmark] = result.energy_savings_over(
                    base, level
                )
    return out, report


def savings_by_benchmark(
    settings: Optional[ExperimentSettings] = None,
    policies=("slip", "slip_abp"),
) -> Savings:
    """{policy: {level: {benchmark: savings}}} over the shared sweep."""
    return _savings(settings or ExperimentSettings(), policies)[0]


def run(settings: Optional[ExperimentSettings] = None,
        include_nuca: bool = False) -> Table:
    settings = settings or ExperimentSettings()
    policies = ("slip", "slip_abp") + (
        ("nurapid", "lru_pea") if include_nuca else ()
    )
    data, report = _savings(settings, policies)
    rows = []
    for benchmark in settings.benchmarks:
        rows.append(
            [benchmark]
            + [
                pct(data[p][lvl][benchmark])
                for p in policies
                for lvl in ("L2", "L3")
            ]
        )
    rows.append(
        ["average"]
        + [
            pct(arithmetic_mean(list(data[p][lvl].values())))
            for p in policies
            for lvl in ("L2", "L3")
        ]
    )
    headers = ["benchmark"] + [
        f"{p}:{lvl}" for p in policies for lvl in ("L2", "L3")
    ]
    return Table(
        title="Figure 9: energy savings over the regular hierarchy",
        headers=headers,
        rows=rows,
        notes=(
            "Paper averages: SLIP 21%/13% (L2/L3), SLIP+ABP 35%/22%; "
            "NuRAPID -84%/-94%, LRU-PEA -79%/-83% (they increase energy)."
        ),
        perf=report.lines(),
    )
