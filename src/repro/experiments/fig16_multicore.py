"""Figure 16: two-core multiprogrammed mixes with a shared L3.

The paper runs eight random SPEC pairs on private 256 KB L2s + shared
2 MB L3 and reports 47% average L3 energy savings and 5.5% lower DRAM
traffic for SLIP+ABP — larger than single-core because interleaved
cores roughly double each line's observed reuse distance, pushing more
pages into (cheap) bypassing policies. NuRAPID and LRU-PEA again
increase L3 energy (+97% / +85%).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..sim.multi_core import MulticoreResult
from ..workloads.mixes import MULTICORE_MIXES, mix_name
from .common import ExperimentSettings, Table, arithmetic_mean, pct
from .parallel import MixRequest, SweepReport, run_cells

PAPER = {"L3": 0.47, "DRAM": 0.055}


def mix_results(
    settings: Optional[ExperimentSettings] = None,
    policies: Tuple[str, ...] = ("baseline", "slip_abp"),
    length_scale: float = 1.0,
) -> Tuple[Dict[Tuple[str, str], Dict[str, MulticoreResult]], SweepReport]:
    """Per-core trace length defaults to the full settings length: the
    shared L3 needs as much page-learning time as the single-core runs.

    Every (mix, policy) cell goes through
    :func:`~repro.experiments.parallel.run_cells`: a cell already run in
    this process is served from its memo, the rest fan out across
    ``settings.jobs`` workers. Returns the results plus the sweep's
    timing report.
    """
    settings = settings or ExperimentSettings()
    per_core = max(20_000, int(settings.length * length_scale))
    requests = [
        MixRequest(
            mix=mix,
            policy=policy,
            length_per_core=per_core,
            seed=settings.seed,
            warmup_fraction=settings.warmup_fraction,
        )
        for mix in MULTICORE_MIXES
        for policy in policies
    ]
    results, report = run_cells(requests, jobs=settings.jobs)
    cells = iter(results)
    out: Dict[Tuple[str, str], Dict[str, MulticoreResult]] = {}
    for mix in MULTICORE_MIXES:
        out[mix] = {policy: next(cells) for policy in policies}
    return out, report


def run(settings: Optional[ExperimentSettings] = None) -> Table:
    settings = settings or ExperimentSettings()
    results, report = mix_results(settings)
    rows = []
    l3_savings, combined, dram = [], [], []
    for mix, by_policy in results.items():
        base = by_policy["baseline"]
        slip = by_policy["slip_abp"]
        l3 = slip.savings_over(base, "L3")
        both = slip.savings_over(base, "L2+L3")
        traffic = slip.savings_over(base, "DRAM")
        l3_savings.append(l3)
        combined.append(both)
        dram.append(traffic)
        rows.append([mix_name(mix), pct(l3), pct(both), pct(traffic)])
    rows.append([
        "average",
        pct(arithmetic_mean(l3_savings)),
        pct(arithmetic_mean(combined)),
        pct(arithmetic_mean(dram)),
    ])
    return Table(
        title="Figure 16: two-core shared-L3 mixes (SLIP+ABP vs baseline)",
        headers=["mix", "L3 savings", "L2+L3 savings", "DRAM traffic saved"],
        rows=rows,
        notes=(
            "Paper: 47% average L3 energy savings, 5.5% DRAM traffic "
            "reduction; worst-case DRAM degradation 2% (leslie3D+soplex)."
        ),
        perf=report.lines(),
    )
