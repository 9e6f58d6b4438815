"""Static analysis and runtime invariant checking ("SimCheck").

Two pillars keep the reproduction's accounting trustworthy:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — the
  ``slip-lint`` AST pass with simulator-specific rules (SLIP001...),
  runnable as ``slip-lint src/`` or ``python -m repro.analysis.lint``;
* :mod:`repro.analysis.audit` (on :mod:`repro.analysis.dataflow`) —
  the ``slip-audit`` determinism-taint pass (SLIP013-SLIP014), runnable
  as ``slip-audit src/`` or ``python -m repro.analysis.audit``;
* :mod:`repro.analysis.invariants` — the ``REPRO_CHECK_INVARIANTS=1``
  runtime mode installing conservation/consistency checkers on every
  :class:`~repro.mem.hierarchy.MemoryHierarchy`.

See ANALYSIS.md for the rule catalog and invariant reference.
"""

from .invariants import (
    HierarchyInvariantChecker,
    InvariantViolation,
    LevelChecker,
    check_capture_replay,
    check_period,
    invariants_enabled,
    maybe_install,
)
from .rules import RULES, Finding, lint_source, module_parts_of


_AUDIT_EXPORTS = ("audit_paths", "audit_sources", "AUDIT_RULES")


def __getattr__(name):
    # Lazy so `python -m repro.analysis.lint` (or `.audit`) doesn't
    # import the CLI module twice (runpy warns when __init__ eagerly
    # imports it).
    if name == "lint_paths":
        from .lint import lint_paths

        return lint_paths
    if name in _AUDIT_EXPORTS:
        from . import audit

        return getattr(audit, name)
    raise AttributeError(name)

__all__ = [
    "AUDIT_RULES",
    "RULES",
    "Finding",
    "audit_paths",
    "audit_sources",
    "HierarchyInvariantChecker",
    "InvariantViolation",
    "LevelChecker",
    "check_capture_replay",
    "check_period",
    "invariants_enabled",
    "lint_paths",
    "lint_source",
    "maybe_install",
    "module_parts_of",
]
