"""slip-lint's reporters: text, JSON and the rule catalog."""

from __future__ import annotations

import json
from typing import Dict, Sequence

from .rules import RULES, SYNTAX_ERROR_CODE, Finding


def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    """Classic path:line:col one-per-line report with a summary tail."""
    lines = [f.render() for f in findings]
    by_code: Dict[str, int] = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    if findings:
        breakdown = ", ".join(
            f"{code} x{count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"slip-lint: {len(findings)} finding(s) in "
            f"{files_scanned} file(s) scanned ({breakdown})"
        )
    else:
        lines.append(
            f"slip-lint: clean ({files_scanned} file(s) scanned)"
        )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_scanned: int) -> str:
    """Stable JSON for CI consumption (sorted keys, no wall-clock)."""
    payload = {
        "tool": "slip-lint",
        "files_scanned": files_scanned,
        "count": len(findings),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The --list-rules output; ANALYSIS.md holds the long-form docs.

    Always appends the SLIP999 line: parse/decode failures are reported
    regardless of ``--select``.
    """
    lines = []
    for rule in RULES:
        lines.append(f"{rule.code}  {rule.name}: {rule.summary}")
    lines.append(
        f"{SYNTAX_ERROR_CODE}  syntax-error: file fails to parse or "
        f"decode; always on — reported even when --select names other "
        f"rules"
    )
    return "\n".join(lines)
