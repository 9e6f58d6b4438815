"""slip-lint's reporters: text and JSON rendering, stable machine
output, and the rule catalog."""

import json

from repro.analysis.reporting import (
    render_json,
    render_rule_catalog,
    render_text,
)
from repro.analysis.rules import RULES, Finding

FINDINGS = [
    Finding(path="src/a.py", line=3, col=4, code="SLIP002",
            message="wall clock in simulator"),
    Finding(path="src/a.py", line=9, col=0, code="SLIP002",
            message="wall clock in simulator"),
    Finding(path="src/b.py", line=1, col=0, code="SLIP999",
            message="syntax error: unexpected EOF"),
]


# ----------------------------------------------------------------------
# render_text
# ----------------------------------------------------------------------
def test_render_text_one_line_per_finding_plus_summary():
    out = render_text(FINDINGS, files_scanned=7)
    lines = out.splitlines()
    assert len(lines) == len(FINDINGS) + 1
    assert lines[0] == FINDINGS[0].render()
    assert lines[-1] == ("slip-lint: 3 finding(s) in 7 file(s) scanned "
                         "(SLIP002 x2, SLIP999 x1)")


def test_render_text_clean_summary_carries_files_scanned():
    assert render_text([], files_scanned=42) == \
        "slip-lint: clean (42 file(s) scanned)"


# ----------------------------------------------------------------------
# render_json
# ----------------------------------------------------------------------
def test_render_json_payload_fields():
    payload = json.loads(render_json(FINDINGS, files_scanned=7))
    assert payload["tool"] == "slip-lint"
    assert payload["files_scanned"] == 7
    assert payload["count"] == 3
    assert payload["findings"][0] == {
        "path": "src/a.py", "line": 3, "col": 4, "code": "SLIP002",
        "message": "wall clock in simulator",
    }


def test_render_json_key_order_is_stable():
    # sort_keys guarantees byte-identical output across runs and
    # Python versions — CI diffs the raw text.
    out = render_json(FINDINGS, files_scanned=7)
    assert out == render_json(list(FINDINGS), files_scanned=7)
    top_keys = [line.split('"')[1] for line in out.splitlines()
                if line.startswith('  "')]
    assert top_keys == sorted(top_keys)
    finding_keys = [line.split('"')[1] for line in out.splitlines()
                    if line.startswith('      "')]
    per_object = finding_keys[:5]
    assert per_object == sorted(per_object)


# ----------------------------------------------------------------------
# render_rule_catalog
# ----------------------------------------------------------------------
def test_catalog_lists_every_lint_rule_and_slip999():
    out = render_rule_catalog()
    for rule in RULES:
        assert f"{rule.code}  {rule.name}:" in out
    assert "SLIP999" in out
    assert "always on" in out
