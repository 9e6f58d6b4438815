"""slip-audit: the real src/ tree must audit clean, fixture modules
cover the taint and pragma rules, and the CLI must use the documented
exit codes."""

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis.audit import AUDIT_RULES, audit_paths, audit_sources, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

FIXTURE = "src/repro/sim/fixture.py"


def _audit_fixture(source):
    findings, _ = audit_sources({FIXTURE: textwrap.dedent(source)})
    return findings


# ----------------------------------------------------------------------
# The shipped tree is the first fixture: it must be clean.
# ----------------------------------------------------------------------
def test_src_tree_audits_clean():
    findings, files_scanned = audit_paths([SRC_DIR])
    assert findings == []
    assert files_scanned > 0


def test_audit_rules_are_the_taint_rules():
    assert [rule.code for rule in AUDIT_RULES] == ["SLIP013", "SLIP014"]


# ----------------------------------------------------------------------
# SLIP013 / SLIP014: determinism taint into published stats
# ----------------------------------------------------------------------
def test_slip013_wall_clock_into_stats():
    findings = _audit_fixture("""
        import time

        class Probe:
            def tick(self):
                self.stats.last_seen = time.time()
    """)
    assert [f.code for f in findings] == ["SLIP013"]
    assert "time.time" in findings[0].message


def test_slip014_counter_guarded_by_environment():
    findings = _audit_fixture("""
        import os

        class Probe:
            def cond(self):
                if os.getenv("FAST"):
                    self.stats.hits += 1
    """)
    assert [f.code for f in findings] == ["SLIP014"]
    assert "run-order-dependent" in findings[0].message


def test_taint_killed_by_clean_reassignment():
    # Flow sensitivity: the tainted value never reaches the counter.
    findings = _audit_fixture("""
        import time

        class Probe:
            def killed(self):
                t = time.time()
                t = 0
                self.stats.safe = t
    """)
    assert findings == []


def test_slip013_unseeded_rng_into_stats():
    findings = _audit_fixture("""
        import random

        class Probe:
            def roll(self):
                rng = random.Random()
                self.stats.sample = rng.random()
    """)
    assert any(f.code == "SLIP013" for f in findings)


# ----------------------------------------------------------------------
# Pragmas are tool-scoped
# ----------------------------------------------------------------------
TAINTED = """
    import time

    class Probe:
        def tick(self):
            self.stats.last_seen = time.time(){pragma}
"""


def test_slip_audit_pragma_suppresses():
    findings = _audit_fixture(
        TAINTED.format(pragma="  # slip-audit: disable=SLIP013"))
    assert findings == []


def test_slip_lint_pragma_does_not_suppress_audit_findings():
    findings = _audit_fixture(
        TAINTED.format(pragma="  # slip-lint: disable=SLIP013"))
    assert [f.code for f in findings] == ["SLIP013"]


# ----------------------------------------------------------------------
# SLIP999 stays on regardless of --select
# ----------------------------------------------------------------------
def test_syntax_error_reported_even_under_select():
    findings, _ = audit_sources({FIXTURE: "def broken(:\n"},
                                select=["SLIP013"])
    assert [f.code for f in findings] == ["SLIP999"]


# ----------------------------------------------------------------------
# CLI exit codes and formats
# ----------------------------------------------------------------------
def test_cli_clean_tree_exits_zero(capsys):
    assert main([SRC_DIR]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_findings_exit_one(tmp_path, capsys):
    bad = tmp_path / "repro_fixture.py"
    bad.write_text("import time\n\nclass P:\n"
                   "    def t(self):\n"
                   "        self.stats.x = time.time()\n")
    # Outside the audited packages taint is skipped, so point the
    # in-memory API at a package path instead for the finding itself;
    # the CLI path check here uses a syntax error, which is scope-free.
    bad.write_text("def broken(:\n")
    assert main([str(bad)]) == 1
    assert "SLIP999" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert main(["--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "slip-audit"
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "SLIP999"


def test_cli_no_paths_exits_two(capsys):
    assert main([]) == 2
    assert "no paths" in capsys.readouterr().err


def test_cli_missing_path_exits_two(capsys):
    assert main(["definitely/not/here"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_unknown_select_exits_two(capsys):
    assert main(["--select", "SLIP042", SRC_DIR]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_cli_list_rules_catalogs_every_audit_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in AUDIT_RULES:
        assert rule.code in out
    assert "SLIP999" in out
    assert "always on" in out


def test_module_invocation_matches_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.audit", SRC_DIR],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR}, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
