"""slip-audit: determinism taint analysis of published counters.

A flow-sensitive walk (:mod:`repro.analysis.dataflow`) tracks values
derived from ``os.environ`` / ``time.*`` / unseeded RNGs / set
iteration into counter writes (the stats that ``RunResult.to_dict``
publishes), with kills on reassignment — the flows SLIP001-003's
syntactic rules cannot see. It shares slip-lint's Finding, reporting,
pragma and ``--select`` machinery:

* **SLIP013** — a tainted value is written into a counter;
* **SLIP014** — a counter write is control-dependent on a tainted
  condition.

Usage::

    slip-audit src/
    python -m repro.analysis.audit src/      # equivalent module form
    slip-audit --format json --select SLIP013 src/
    slip-audit --list-rules

Exit codes match slip-lint: 0 clean, 1 findings, 2 usage error.
Suppressions use the same pragma grammar under the ``slip-audit``
tool name: ``# slip-audit: disable=SLIP013`` (or ``disable-file=``).
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .dataflow import (
    SUBSCRIPT,
    index_functions,
    path_segments,
    taint_function,
    terminal_attr,
)
from .reporting import render_json, render_rule_catalog, render_text
from .rules import SYNTAX_ERROR_CODE, Finding, module_parts_of, suppressed

#: Packages whose functions the taint pass covers: simulator, policy,
#: workload and experiment code.
AUDIT_PACKAGES: Tuple[Tuple[str, ...], ...] = (
    ("repro", "mem"),
    ("repro", "core"),
    ("repro", "sim"),
    ("repro", "policies"),
    ("repro", "workloads"),
    ("repro", "experiments"),
)


# ----------------------------------------------------------------------
# Rule metadata (catalog / --select)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AuditRule:
    code: str
    name: str
    summary: str


AUDIT_RULES: Tuple[AuditRule, ...] = (
    AuditRule("SLIP013", "tainted-stats-write",
              "a value derived from os.environ/time/unseeded-RNG/"
              "set-iteration flows into a published counter"),
    AuditRule("SLIP014", "tainted-stats-guard",
              "a counter write is control-dependent on a "
              "nondeterministic condition"),
)


# ----------------------------------------------------------------------
# Determinism taint (SLIP013 / SLIP014)
# ----------------------------------------------------------------------
#: Path segments that anchor the accounting vocabulary.
COUNTER_SEGMENTS = ("stats", "counters")

#: Structural state tails that count as counters wherever they are
#: reached from.
STATE_COUNTER_TAILS = frozenset({
    "valid_count", "_clock", "_alloc_rotor", "access_counter",
})


def counter_key(path: str) -> Optional[str]:
    """Classify a normalized write path as an accounting counter.

    Any path through a ``stats`` or ``counters`` segment is a counter,
    keyed from that segment on (``stats.demand_hits``,
    ``counters.l1_hits``, ``stats.wb_out_events[]``), as is a bare
    structural tail (``_clock``); ``None`` for non-accounting state.
    """
    segments = path_segments(path)
    for idx, segment in enumerate(segments):
        if segment.replace(SUBSCRIPT, "") in COUNTER_SEGMENTS:
            return ".".join([segment.replace(SUBSCRIPT, "")]
                            + segments[idx + 1:])
    tail = terminal_attr(path)
    if tail in STATE_COUNTER_TAILS:
        return tail
    return None


def _in_audit_scope(path: str) -> bool:
    return any(tuple(module_parts_of(path)[:len(pkg)]) == pkg
               for pkg in AUDIT_PACKAGES)


def check_taint(trees: Mapping[str, ast.AST]) -> List[Finding]:
    findings: List[Finding] = []
    for path, tree in trees.items():
        if not _in_audit_scope(path):
            continue
        for info in index_functions(tree, path):
            for hit in taint_function(info.node, counter_key):
                if hit.kind == "write":
                    findings.append(Finding(
                        path=info.path, line=hit.line, col=hit.col,
                        code="SLIP013",
                        message=(f"counter '{hit.sink}' in "
                                 f"{info.qualname} receives a value "
                                 f"derived from {hit.source}; published "
                                 f"stats must not depend on "
                                 f"nondeterministic sources"),
                    ))
                else:
                    findings.append(Finding(
                        path=info.path, line=hit.line, col=hit.col,
                        code="SLIP014",
                        message=(f"counter '{hit.sink}' in "
                                 f"{info.qualname} is written under a "
                                 f"condition derived from {hit.source}; "
                                 f"the write becomes "
                                 f"run-order-dependent"),
                    ))
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def audit_sources(sources: Mapping[str, str],
                  select: Optional[Sequence[str]] = None
                  ) -> Tuple[List[Finding], int]:
    """Audit a set of in-memory sources (path -> text).

    The in-memory form is what the fixture tests use. SLIP999 parse
    failures are always reported, regardless of ``select``.
    """
    findings: List[Finding] = []
    trees: Dict[str, ast.AST] = {}
    for path in sorted(sources):
        source = sources[path]
        try:
            trees[path] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(Finding(
                path=path, line=exc.lineno or 1,
                col=(exc.offset or 1) - 1, code=SYNTAX_ERROR_CODE,
                message=f"syntax error: {exc.msg}"))
            continue

    raw = check_taint(trees)

    if select:
        wanted = {c.upper() for c in select}
        raw = [f for f in raw if f.code in wanted]

    by_path: Dict[str, List[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    for path, group in by_path.items():
        findings.extend(
            suppressed(group, sources.get(path, ""), tool="slip-audit"))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, len(sources)


def audit_paths(paths: Iterable[str],
                select: Optional[Sequence[str]] = None
                ) -> Tuple[List[Finding], int]:
    """Audit every .py file under ``paths``; (findings, files_scanned).

    Files that cannot be decoded are reported as SLIP999 findings and
    the scan continues (same contract as ``lint_paths``).
    """
    from .lint import discover_files, read_source

    sources: Dict[str, str] = {}
    decode_findings: List[Finding] = []
    for file_path in discover_files(paths):
        source, failure = read_source(file_path)
        if failure is not None:
            decode_findings.append(failure)
        else:
            sources[file_path] = source
    findings, _ = audit_sources(sources, select=select)
    findings.extend(decode_findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, len(sources) + len(decode_findings)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slip-audit",
        description=("Determinism taint analysis for the SLIP "
                     "reproduction (nondeterminism flow into published "
                     "stats)."),
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to audit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all; SLIP999 is always on)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_catalog(AUDIT_RULES))
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("slip-audit: error: no paths given", file=sys.stderr)
        return 2

    select = None
    if args.select:
        select = [c.strip().upper() for c in args.select.split(",")
                  if c.strip()]
        known = {rule.code for rule in AUDIT_RULES} | {SYNTAX_ERROR_CODE}
        unknown = [c for c in select if c not in known]
        if unknown:
            print(f"slip-audit: error: unknown rule code(s) "
                  f"{', '.join(unknown)}", file=sys.stderr)
            return 2

    try:
        findings, files_scanned = audit_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(f"slip-audit: error: no such file or directory: {exc}",
              file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(findings, files_scanned, tool="slip-audit"))
    else:
        print(render_text(findings, files_scanned, tool="slip-audit"))
    return 1 if findings else 0


if __name__ == "__main__":  # python -m repro.analysis.audit
    raise SystemExit(main())
