"""The kernels' always-on conservation audits.

:mod:`repro.analysis.invariants` holds the audits the capture and
replay kernels run on every cell they serve; a failed audit raises
:class:`InvariantViolation`. See ANALYSIS.md for the invariant
reference.
"""

from .invariants import InvariantViolation, check_capture_replay

__all__ = ["InvariantViolation", "check_capture_replay"]
