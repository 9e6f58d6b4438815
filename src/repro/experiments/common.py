"""Shared infrastructure for the per-figure experiment modules.

All single-core figures (9-15) are views over the same policy sweep, so
results are cached per (benchmark, policy, length, seed, config) and
each figure module formats its own slice. Experiment scale is set by
``ExperimentSettings``; the defaults aim for minutes, not hours, and the
``REPRO_EXP_LENGTH`` environment variable scales everything up for
higher-fidelity runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.config import SystemConfig, default_system
from ..sim.results import RunResult
from ..sim.single_core import run_trace
from ..workloads.benchmarks import SPEC_ORDER, make_trace
from ..workloads.capture_store import default_store

ALL_POLICIES: Tuple[str, ...] = (
    "baseline", "nurapid", "lru_pea", "slip", "slip_abp",
)
SLIP_POLICIES: Tuple[str, ...] = ("slip", "slip_abp")


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and reproducibility knobs shared by every experiment.

    ``jobs`` is the worker-process fan-out for sweeps; ``None`` defers
    to the ``REPRO_EXP_JOBS`` environment variable (default serial).
    Worker count never changes results — only wall-clock.
    """

    length: int = int(os.environ.get("REPRO_EXP_LENGTH", 300_000))
    seed: int = int(os.environ.get("REPRO_EXP_SEED", 0))
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


class SweepCache:
    """Memoized (benchmark, policy) -> RunResult sweep runner."""

    def __init__(self, settings: ExperimentSettings,
                 config: Optional[SystemConfig] = None) -> None:
        self.settings = settings
        self.config = config or default_system()
        self._results: Dict[Tuple[str, str], RunResult] = {}

    def trace(self, benchmark: str):
        # Delegates to the process-wide LRU trace cache, so traces are
        # shared across SweepCache instances and pool workers alike.
        return make_trace(
            benchmark, self.settings.length, self.settings.seed
        )

    def result(self, benchmark: str, policy: str) -> RunResult:
        key = (benchmark, policy)
        if key not in self._results:
            # The shared store lets every policy of a benchmark replay
            # one captured front end (byte-identical results).
            self._results[key] = run_trace(
                self.trace(benchmark),
                policy,
                config=self.config,
                seed=self.settings.seed,
                warmup_fraction=self.settings.warmup_fraction,
                store=default_store(),
            )
        return self._results[key]

    def results_for(self, benchmark: str,
                    policies: Sequence[str]) -> Dict[str, RunResult]:
        return {p: self.result(benchmark, p) for p in policies}

    def prefetch(self, cells: Optional[Sequence[Tuple[str, str]]] = None,
                 jobs: Optional[int] = None):
        """Fill missing (benchmark, policy) cells via the parallel engine.

        Jobs carry exactly the arguments :meth:`result` would pass
        serially, so a prefetched cell is indistinguishable from a
        lazily computed one. Returns the :class:`SweepReport` for the
        cells actually run, or ``None`` if everything was cached.
        """
        from .parallel import RunRequest, run_jobs

        if cells is None:
            cells = [(b, p) for b in self.settings.benchmarks
                     for p in ALL_POLICIES]
        missing = [c for c in dict.fromkeys(cells) if c not in self._results]
        if not missing:
            return None
        requests = [
            RunRequest(
                benchmark=benchmark,
                policy=policy,
                length=self.settings.length,
                seed=self.settings.seed,
                warmup_fraction=self.settings.warmup_fraction,
                config=self.config,
            )
            for benchmark, policy in missing
        ]
        report = run_jobs(requests, jobs=jobs if jobs is not None
                          else self.settings.jobs)
        for cell, job in zip(missing, report.results):
            self._results[cell] = job.result
        return report


_shared_caches: Dict[Tuple[int, int, float], SweepCache] = {}


def shared_cache(settings: ExperimentSettings) -> SweepCache:
    """Process-wide cache so figure modules reuse each other's runs."""
    key = (settings.length, settings.seed, settings.warmup_fraction)
    if key not in _shared_caches:
        _shared_caches[key] = SweepCache(settings)
    return _shared_caches[key]


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
