"""Shared decline/success reporting for the vectorized kernels.

All three batched kernels (:mod:`~repro.sim.vector_replay`,
:mod:`~repro.sim.vector_replay_slip`,
:mod:`~repro.sim.vector_frontend`) record their outcome through this
module, so three things can never drift apart:

* the structured per-hierarchy record
  (:class:`~repro.mem.hierarchy.KernelDeclines` on
  ``hierarchy.kernel_declines``) tests and benches assert on;
* the one stderr decline format — ``vector-<kernel>: decline
  (<reason>)`` — gated by the kernel's ``REPRO_VECTOR_*_DEBUG``
  variable (``replay`` and the SLIP replay share
  ``REPRO_VECTOR_REPLAY_DEBUG``; the capture kernel uses
  ``REPRO_VECTOR_FRONTEND_DEBUG``);
* the process-wide tallies behind ``slip-experiments
  --kernel-report``: kernel runs and a per-reason decline histogram,
  per kernel. The tallies are in-process only — with ``--jobs > 1``
  the pool workers' counts never travel back, so the report covers the
  parent process's share of the work (the serial path covers
  everything).
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Dict, List

_FALSEY = ("0", "false", "no", "off")

#: hierarchy.kernel_declines field name -> debug env var.
KERNEL_DEBUG_ENVS: Dict[str, str] = {
    "replay": "REPRO_VECTOR_REPLAY_DEBUG",
    "frontend": "REPRO_VECTOR_FRONTEND_DEBUG",
}

_RUNS: Counter = Counter()
_DECLINES: Dict[str, Counter] = {kernel: Counter()
                                 for kernel in KERNEL_DEBUG_ENVS}


def debug_flag(env_var: str) -> bool:
    """One truthy-env convention for the kernel debug toggles.

    ``REPRO_VECTOR_REPLAY_DEBUG`` and ``REPRO_VECTOR_FRONTEND_DEBUG``
    both resolve through here (empty/unset is off, and the usual falsey
    spellings stay off), so the two decline-echo switches can never
    drift apart.
    """
    value = os.environ.get(env_var, "").strip().lower()
    return bool(value) and value not in _FALSEY


def record_decline(hierarchy, kernel: str, reason: str) -> None:
    """One kernel bypassed a hierarchy: record where, why, and count.

    The reason lands on the matching ``hierarchy.kernel_declines``
    field so tests and benches can assert *why* a cell fell back to
    the scalar walk instead of inferring it from timings; with the
    kernel's debug env var set, the reason is also echoed to stderr
    (stdout stays reserved for deterministic experiment output).
    """
    setattr(hierarchy.kernel_declines, kernel, reason)
    _DECLINES[kernel][reason] += 1
    if debug_flag(KERNEL_DEBUG_ENVS[kernel]):
        print(f"vector-{kernel}: decline ({reason})", file=sys.stderr)


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
    for kernel in sorted(KERNEL_DEBUG_ENVS):
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
