"""Figure 14: breakdown of insertions by optimal-SLIP class.

Each insertion (or bypass) at a level is classified by the SLIP that
steered it: the All-Bypass Policy, a partial-bypass SLIP (some sublevels
unused), the Default SLIP, or another non-bypassing multi-chunk SLIP.
The paper observes that ABP + partial bypass + Default cover >95% of
insertions, that 27% of L2 and 14% of L3 insertions are full bypasses,
and that multi-chunk non-bypassing SLIPs are rarely optimal.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .common import ExperimentSettings, Table, sweep_results
from .parallel import SweepReport

PAPER = {"L2_bypass": 0.27, "L3_bypass": 0.14}
CLASSES = ("abp", "partial_bypass", "default", "other")


Fractions = Dict[str, Dict[str, float]]


def required_cells(settings: ExperimentSettings, policy: str = "slip_abp"):
    """The (benchmark, policy) cells this figure reads."""
    return [(b, policy) for b in settings.benchmarks]


def _fractions(settings: ExperimentSettings, policy: str,
               level: str) -> Tuple[Fractions, SweepReport]:
    results, report = sweep_results(settings,
                                    required_cells(settings, policy))
    out = {}
    for benchmark in settings.benchmarks:
        result = results[(benchmark, policy)]
        stats = {"L2": result.l2, "L3": result.l3}[level]
        total = sum(stats.insertions_by_class.values()) or 1
        out[benchmark] = {
            cls: stats.insertions_by_class[cls] / total for cls in CLASSES
        }
    return out, report


def class_fractions(settings: Optional[ExperimentSettings] = None,
                    policy: str = "slip_abp",
                    level: str = "L2") -> Fractions:
    return _fractions(settings or ExperimentSettings(), policy, level)[0]


def run(settings: Optional[ExperimentSettings] = None,
        level: str = "L2") -> Table:
    settings = settings or ExperimentSettings()
    data, report = _fractions(settings, "slip_abp", level)
    rows = []
    totals = {cls: [] for cls in CLASSES}
    for benchmark, fracs in data.items():
        rows.append(
            [benchmark] + [f"{fracs[cls]:.1%}" for cls in CLASSES]
        )
        for cls in CLASSES:
            totals[cls].append(fracs[cls])
    rows.append(
        ["average"]
        + [
            f"{sum(totals[cls]) / len(totals[cls]):.1%}"
            for cls in CLASSES
        ]
    )
    return Table(
        title=f"Figure 14 ({level}): insertions by SLIP class (SLIP+ABP)",
        headers=["benchmark", "ABP", "partial bypass", "default", "others"],
        rows=rows,
        notes=(
            "Paper: 27% of L2 and 14% of L3 insertions fully bypassed; "
            "ABP+partial+default cover >95%."
        ),
        perf=report.lines(),
    )
