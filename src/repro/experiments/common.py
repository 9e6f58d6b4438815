"""Shared infrastructure for the per-figure experiment modules.

All single-core figures (9-15) are views over the same policy sweep:
each figure module reads its own cells through :func:`sweep_results`,
whose process-wide memo (:func:`~repro.experiments.parallel.run_cells`)
simulates every distinct cell once, and formats its own slice.
Experiment scale is set by ``ExperimentSettings``; the defaults aim for
minutes, not hours, and ``slip-experiments --length`` scales everything
up for higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.results import RunResult
from ..workloads.benchmarks import SPEC_ORDER
from .parallel import RunRequest, SweepReport, run_cells

ALL_POLICIES: Tuple[str, ...] = (
    "baseline", "nurapid", "lru_pea", "slip", "slip_abp",
)
SLIP_POLICIES: Tuple[str, ...] = ("slip", "slip_abp")


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and reproducibility knobs shared by every experiment.

    ``jobs`` is the worker-process fan-out for sweeps; ``None`` runs
    serially. Worker count never changes results — only wall-clock.
    The CLI sets ``length``, ``seed`` and ``jobs`` from ``--length``,
    ``--seed`` and ``--jobs``.
    """

    length: int = 300_000
    seed: int = 0
    warmup_fraction: float = 0.3
    benchmarks: Tuple[str, ...] = SPEC_ORDER
    jobs: Optional[int] = None

    def scaled(self, factor: float) -> "ExperimentSettings":
        return ExperimentSettings(
            length=max(1000, int(self.length * factor)),
            seed=self.seed,
            warmup_fraction=self.warmup_fraction,
            benchmarks=self.benchmarks,
            jobs=self.jobs,
        )


@dataclass
class Table:
    """A printable experiment result: headers, rows, paper reference.

    ``perf`` carries the sweep's per-job wall-clock/throughput lines.
    They are rendered by :meth:`perf_text` and deliberately excluded
    from :meth:`formatted`/:meth:`to_markdown`: the table body must be
    byte-identical across worker counts, while timing never is.
    """

    title: str
    headers: List[str]
    rows: List[List[str]]
    notes: str = ""
    perf: List[str] = field(default_factory=list)

    def perf_text(self) -> str:
        """The timing/throughput report, one line per job."""
        return "\n".join(self.perf)

    def to_markdown(self) -> str:
        """Render as a GitHub-flavoured markdown table."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(f"*{self.notes}*")
        lines.append("")
        return "\n".join(lines)

    def formatted(self) -> str:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in self.rows))
            if self.rows else len(str(h))
            for i, h in enumerate(self.headers)
        ]
        def fmt_row(cells: Sequence[str]) -> str:
            return "  ".join(
                str(c).rjust(w) if i else str(c).ljust(w)
                for i, (c, w) in enumerate(zip(cells, widths))
            )
        lines = [self.title, "=" * len(self.title), fmt_row(self.headers),
                 fmt_row(["-" * w for w in widths])]
        lines.extend(fmt_row(row) for row in self.rows)
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


def sweep_results(
    settings: ExperimentSettings,
    cells: Sequence[Tuple[str, str]],
) -> Tuple[Dict[Tuple[str, str], RunResult], SweepReport]:
    """The (benchmark, policy) cells of the default system at this scale.

    Runs through :func:`~repro.experiments.parallel.run_cells`, so a cell
    another experiment already read in this process is not simulated
    again. Returns the results by cell and the sweep's report.
    """
    requests = [
        RunRequest(
            benchmark=benchmark,
            policy=policy,
            length=settings.length,
            seed=settings.seed,
            warmup_fraction=settings.warmup_fraction,
        )
        for benchmark, policy in cells
    ]
    results, report = run_cells(requests, jobs=settings.jobs)
    return dict(zip(cells, results)), report


def pct(x: float) -> str:
    return f"{x:+.1%}"


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
