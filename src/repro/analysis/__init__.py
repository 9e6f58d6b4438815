"""Static analysis and the kernels' always-on conservation audits.

Two tools keep the reproduction's accounting trustworthy:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — the
  ``slip-lint`` AST pass with simulator-specific rules (SLIP001...),
  runnable as ``slip-lint src/`` or ``python -m repro.analysis.lint``;
* :mod:`repro.analysis.invariants` — the conservation audits the
  capture and replay kernels run on every cell they serve.

The simulator imports only :mod:`~repro.analysis.invariants`; the lint
modules load on first use of their names. See ANALYSIS.md for the rule
catalog and invariant reference.
"""

from .invariants import InvariantViolation, check_capture_replay

#: Names served lazily, by the module that defines them.
_LAZY = {
    "RULES": "rules",
    "Finding": "rules",
    "lint_source": "rules",
    "module_parts_of": "rules",
    "lint_paths": "lint",
}


def __getattr__(name):
    # Lazy so the simulator, which imports this package for its
    # invariants, never loads the lint rule set, and so
    # `python -m repro.analysis.lint` doesn't import the CLI module
    # twice (runpy warns when __init__ eagerly imports it).
    if name not in _LAZY:
        raise AttributeError(name)
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "RULES",
    "Finding",
    "InvariantViolation",
    "check_capture_replay",
    "lint_paths",
    "lint_source",
    "module_parts_of",
]
