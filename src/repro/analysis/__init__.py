"""Static analysis and runtime invariant checking ("SimCheck").

Three tools keep the reproduction's accounting trustworthy:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — the
  ``slip-lint`` AST pass with simulator-specific rules (SLIP001...),
  runnable as ``slip-lint src/`` or ``python -m repro.analysis.lint``;
* :mod:`repro.analysis.audit` (on :mod:`repro.analysis.dataflow`) —
  the ``slip-audit`` determinism-taint pass (SLIP013-SLIP014), runnable
  as ``slip-audit src/`` or ``python -m repro.analysis.audit``;
* :mod:`repro.analysis.invariants` — SimCheck's per-access checkers,
  which the tests install on the hierarchies they walk, and the
  always-on conservation audits the kernels and replays run.

The simulator imports only :mod:`~repro.analysis.invariants`; the lint
and audit modules load on first use of their names. See ANALYSIS.md for
the rule catalog and invariant reference.
"""

from .invariants import (
    HierarchyInvariantChecker,
    InvariantViolation,
    LevelChecker,
    check_capture_replay,
)

#: Names served lazily, by the module that defines them.
_LAZY = {
    "RULES": "rules",
    "Finding": "rules",
    "lint_source": "rules",
    "module_parts_of": "rules",
    "lint_paths": "lint",
    "AUDIT_RULES": "audit",
    "audit_paths": "audit",
    "audit_sources": "audit",
}


def __getattr__(name):
    # Lazy so the simulator, which imports this package for its
    # invariants, never loads the lint rule set, and so
    # `python -m repro.analysis.lint` (or `.audit`) doesn't import the
    # CLI module twice (runpy warns when __init__ eagerly imports it).
    if name not in _LAZY:
        raise AttributeError(name)
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


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
    "lint_paths",
    "lint_source",
    "module_parts_of",
]
