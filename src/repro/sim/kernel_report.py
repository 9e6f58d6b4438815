"""Shared decline/success reporting for the vectorized kernels.

All three batched kernels (:mod:`~repro.sim.vector_replay`,
:mod:`~repro.sim.vector_replay_slip`,
:mod:`~repro.sim.vector_frontend`) record their outcome through this
module, so two things can never drift apart:

* the structured per-hierarchy record
  (:class:`~repro.mem.hierarchy.KernelDeclines` on
  ``hierarchy.kernel_declines``) tests and benches assert on (``replay``
  for both replay kernels, ``frontend`` for the capture kernel);
* the process-wide tallies behind ``slip-experiments
  --kernel-report``: kernel runs and a per-reason decline histogram,
  per kernel. The tallies are in-process only — with ``--jobs > 1``
  the pool workers' counts never travel back, so the report covers the
  parent process's share of the work (the serial path covers
  everything).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

#: The hierarchy.kernel_declines field names, one per reported kernel.
KERNELS = ("frontend", "replay")

_RUNS: Counter = Counter()
_DECLINES: Dict[str, Counter] = {kernel: Counter() for kernel in KERNELS}


def record_decline(hierarchy, kernel: str, reason: str) -> None:
    """One kernel bypassed a hierarchy: record where, why, and count.

    The reason lands on the matching ``hierarchy.kernel_declines``
    field so tests and benches can assert *why* a cell fell back to
    the scalar walk instead of inferring it from timings.
    """
    setattr(hierarchy.kernel_declines, kernel, reason)
    _DECLINES[kernel][reason] += 1


def record_success(hierarchy, kernel: str) -> None:
    """One kernel accepted a hierarchy: clear the record and count."""
    setattr(hierarchy.kernel_declines, kernel, None)
    _RUNS[kernel] += 1


def reset_kernel_counts() -> None:
    """Zero the process-wide tallies (tests, repeated report runs)."""
    _RUNS.clear()
    for declines in _DECLINES.values():
        declines.clear()


def kernel_report_lines() -> List[str]:
    """The ``--kernel-report`` summary, one line per kernel.

    Lines are ``[``-prefixed like the runner's timing lines, so the
    byte-identity smoke's ``grep -v '^\\['`` strips them: the report
    depends on scheduling (worker counts never travel back from a
    pool), not on the experiment's deterministic output.
    """
    lines = []
    for kernel in KERNELS:
        runs = _RUNS[kernel]
        declines = _DECLINES[kernel]
        line = (f"[kernel-report] vector-{kernel}: {runs} kernel "
                f"run(s), {sum(declines.values())} decline(s)")
        if declines:
            detail = ", ".join(f"{reason}={count}" for reason, count
                               in sorted(declines.items()))
            line += f" [{detail}]"
        lines.append(line)
    return lines
