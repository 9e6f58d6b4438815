"""slip-audit: the real src/ tree must audit clean, and deleting any
single counter-update line from a registered twin (fast or reference
side) must make the drift rules fire on the mutated copy. Fixture
modules cover the gate-registration, taint and pragma rules, and the
CLI must use the documented exit codes."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.audit import (
    AUDIT_RULES,
    TWIN_REGISTRY,
    audit_paths,
    audit_sources,
    explain_pair,
    main,
    parse_annotations,
)
from repro.analysis.lint import discover_files, read_source

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

FIXTURE = "src/repro/sim/fixture.py"


def _src_sources():
    sources = {}
    for path in discover_files([SRC_DIR]):
        source, failure = read_source(path)
        assert failure is None, failure
        sources[path] = source
    return sources


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


def test_registry_covers_the_documented_pairs():
    assert {p.pair_id for p in TWIN_REGISTRY} == {
        "eou-optimize", "vector-replay", "vector-frontend",
        "capture-replay",
    }


# ----------------------------------------------------------------------
# Mutation sensitivity (SLIP010/SLIP011): delete one real counter
# line, audit the mutated copy, expect drift.
# ----------------------------------------------------------------------
MUTATIONS = [
    # (file suffix, unique line fragment to delete)
    ("mem/cache.py", "stats.hits_by_sublevel[sublevel] += 1"),  # record_hit
    ("mem/cache.py", "self.stats.writebacks_in += 1"),      # wb in
    ("mem/hierarchy.py", "counters.l1_hits += 1"),          # access
    ("core/eou.py", "stats.optimizations += 1"),            # EOU ledger
    ("sim/vector_replay.py", "counters.total_latency_cycles +="),
    ("sim/filtered.py", "counters.l1_hits = int("),         # replay_capture
    ("sim/filtered.py",                                      # _replay_events
     "hierarchy.counters.total_latency_cycles += total"),
]


@pytest.mark.parametrize("suffix,needle", MUTATIONS,
                         ids=[f"{s}:{n[:30]}" for s, n in MUTATIONS])
def test_deleting_counter_line_fires_drift(suffix, needle):
    sources = _src_sources()
    path = next(p for p in sources if p.endswith(suffix))
    lines = sources[path].splitlines()
    hits = [i for i, line in enumerate(lines) if needle in line]
    assert hits, f"needle not found in {suffix}: {needle!r}"
    sources[path] = "\n".join(lines[:hits[0]] + lines[hits[0] + 1:])

    findings, _ = audit_sources(sources)
    drift = [f for f in findings if f.code in ("SLIP010", "SLIP011")]
    assert drift, f"deleting {needle!r} from {suffix} went unnoticed"
    assert all(f.path == path for f in drift if f.path.endswith(suffix))


def test_duplicating_counter_line_fires_site_count():
    # The inverse edit — bumping a counter twice — leaves the write
    # *set* unchanged; only the pinned site counts can see it.
    sources = _src_sources()
    path = next(p for p in sources if p.endswith("core/eou.py"))
    lines = sources[path].splitlines()
    idx = next(i for i, line in enumerate(lines)
               if "stats.optimizations += 1" in line)
    sources[path] = "\n".join(lines[:idx + 1] + [lines[idx]]
                              + lines[idx + 1:])
    findings, _ = audit_sources(sources)
    assert any(f.code == "SLIP011"
               and "2 direct write site(s)" in f.message
               for f in findings)


# ----------------------------------------------------------------------
# SLIP012: unregistered fast gates and annotation discipline
# ----------------------------------------------------------------------
def test_slip012_unregistered_gate_over_counter_writes():
    findings = _audit_fixture("""
        class Thing:
            def bump(self):
                if self._fast_path:
                    self.stats.hits += 1
                else:
                    self.record_hit()
    """)
    assert [f.code for f in findings] == ["SLIP012"]
    assert "not the registered fast path" in findings[0].message


def test_slip012_quiet_on_gate_without_counter_writes():
    findings = _audit_fixture("""
        class Thing:
            def choose(self):
                if self._fast_path:
                    return self.quick()
                return self.slow()
    """)
    assert findings == []


def test_slip012_annotation_for_unknown_pair():
    findings = _audit_fixture("""
        class Thing:
            # slip-audit: twin=not-a-pair role=fast
            def bump(self):
                pass
    """)
    assert [f.code for f in findings] == ["SLIP012"]
    assert "not in TWIN_REGISTRY" in findings[0].message


def test_slip012_annotation_role_must_match_registry():
    findings = _audit_fixture("""
        class Thing:
            # slip-audit: twin=vector-replay role=fast
            def bump(self):
                pass
    """)
    assert [f.code for f in findings] == ["SLIP012"]
    assert "registry names" in findings[0].message


def test_parse_annotations_reads_real_twin_markers():
    path = os.path.join(SRC_DIR, "repro", "sim", "filtered.py")
    source, failure = read_source(path)
    assert failure is None
    found = {(pair, role) for _, pair, role in parse_annotations(source)}
    assert ("capture-replay", "fast") in found
    assert ("capture-replay", "ref") in found


def test_removing_annotation_fires_slip012():
    sources = _src_sources()
    path = next(p for p in sources if p.endswith("core/eou.py"))
    sources[path] = sources[path].replace(
        "# slip-audit: twin=eou-optimize role=fast", "# (removed)")
    findings, _ = audit_sources(sources)
    assert any(f.code == "SLIP012" and "carries no" in f.message
               for f in findings)


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
# --explain-pair
# ----------------------------------------------------------------------
def test_explain_pair_dumps_both_side_sets():
    text = explain_pair("vector-replay", [SRC_DIR])
    assert "shared (fast & ref)" in text
    assert "stats.insertions" in text
    assert "ref direct site counts" in text


def test_explain_pair_unknown_id_lists_known_pairs():
    text = explain_pair("nope", [SRC_DIR])
    assert "unknown pair" in text
    assert "vector-replay" in text


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


def test_cli_explain_pair(capsys):
    assert main(["--explain-pair", "vector-replay", SRC_DIR]) == 0
    assert "vector-replay" in capsys.readouterr().out


def test_module_invocation_matches_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.audit", SRC_DIR],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR}, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
