"""slip-lint: every rule must trigger on its fixture and stay quiet on
the corrected form, the pragma escape hatch must work, the CLI must use
the documented exit codes — and the real src/ tree must lint clean."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import lint_source, module_parts_of
from repro.analysis.lint import discover_files, lint_paths, main
from repro.analysis.rules import RULES

SIM_MODULE = ("repro", "mem", "fixture")
EXPERIMENTS_MODULE = ("repro", "experiments", "fixture")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def codes(source, module=SIM_MODULE):
    source = textwrap.dedent(source)
    return [f.code for f in lint_source(source, path="fixture.py",
                                        module=module)]


# ----------------------------------------------------------------------
# SLIP001 unseeded RNG
# ----------------------------------------------------------------------
def test_slip001_triggers_on_unseeded_random():
    assert "SLIP001" in codes("""
        import random
        rng = random.Random()
    """)


def test_slip001_triggers_on_unseeded_default_rng():
    assert "SLIP001" in codes("""
        import numpy as np
        rng = np.random.default_rng()
    """)


def test_slip001_quiet_on_seeded_rng():
    found = codes("""
        import random
        import numpy as np
        a = random.Random(42)
        b = np.random.default_rng(seed=7)
    """)
    assert "SLIP001" not in found


# ----------------------------------------------------------------------
# SLIP002 wall-clock in simulator packages
# ----------------------------------------------------------------------
def test_slip002_triggers_in_sim_package():
    assert "SLIP002" in codes("""
        import time
        started = time.time()
    """)


def test_slip002_triggers_on_datetime_now():
    assert "SLIP002" in codes("""
        import datetime
        stamp = datetime.datetime.now()
    """)


def test_slip002_quiet_in_experiments_package():
    found = codes("""
        import time
        started = time.perf_counter()
    """, module=EXPERIMENTS_MODULE)
    assert "SLIP002" not in found


# ----------------------------------------------------------------------
# SLIP003 unordered iteration
# ----------------------------------------------------------------------
def test_slip003_triggers_on_set_iteration():
    assert "SLIP003" in codes("""
        def pick_victim(ways):
            for way in set(ways):
                return way
    """)


def test_slip003_triggers_on_keys_iteration():
    assert "SLIP003" in codes("""
        def enumerate_policies(table):
            return [k for k in table.keys()]
    """)


def test_slip003_quiet_on_sorted_and_plain_dict():
    found = codes("""
        def pick_victim(ways, table):
            for way in sorted(set(ways)):
                pass
            for key in table:
                pass
    """)
    assert "SLIP003" not in found


def test_slip003_quiet_outside_policy_packages():
    found = codes("""
        def dedupe(names):
            for name in set(names):
                yield name
    """, module=EXPERIMENTS_MODULE)
    assert "SLIP003" not in found


# ----------------------------------------------------------------------
# SLIP005 float sum on energy quantities
# ----------------------------------------------------------------------
def test_slip005_triggers_on_pj_sum():
    assert "SLIP005" in codes("""
        def total(stats):
            return sum(s.energy.read_pj for s in stats)
    """)


def test_slip005_triggers_inside_energy_function():
    assert "SLIP005" in codes("""
        def level_energy_pj(values):
            return sum(values)
    """)


def test_slip005_triggers_on_sum_of_products():
    # exact_dot's shape: sum over count x energy products, in a function
    # whose name and argument say nothing about energy.
    assert "SLIP005" in codes("""
        def exact_dot(counts, values):
            return sum(c * v for c, v in zip(counts, values))
    """)


def test_slip005_triggers_on_chained_sums_of_products():
    # LevelStats.materialize's shape: the products reach sum() through
    # itertools.chain.
    assert "SLIP005" in codes("""
        import itertools

        def materialize(self, stats, read_table, write_table):
            self.movement_pj = sum(itertools.chain(
                (c * e for c, e in zip(stats.move_read_events, read_table)),
                (c * e for c, e in zip(stats.move_write_events,
                                       write_table)),
            ))
    """)


def test_slip005_products_outside_the_simulator_are_quiet():
    found = codes("""
        def weighted(counts, weights):
            return sum(c * w for c, w in zip(counts, weights))
    """, module=EXPERIMENTS_MODULE)
    assert "SLIP005" not in found


def test_slip005_quiet_on_fsum_and_plain_counts():
    found = codes("""
        import math

        def total_pj_exact(stats):
            return math.fsum(s.read_pj for s in stats)

        def total_hits(stats):
            return sum(s.hits for s in stats)
    """)
    assert "SLIP005" not in found


# ----------------------------------------------------------------------
# SLIP006 missing __slots__ on record classes
# ----------------------------------------------------------------------
RECORD_CLASS = """
    class LineMeta:
        def __init__(self):
            self.tag = -1
            self.dirty = False
            self.ts = 0
            self.hits = 0
"""


def test_slip006_triggers_on_unslotted_record():
    assert "SLIP006" in codes(RECORD_CLASS)


def test_slip006_quiet_with_slots():
    found = codes("""
        class LineMeta:
            __slots__ = ("tag", "dirty", "ts", "hits")

            def __init__(self):
                self.tag = -1
                self.dirty = False
                self.ts = 0
                self.hits = 0
    """)
    assert "SLIP006" not in found


def test_slip006_quiet_on_dataclass_and_behavior_class():
    found = codes("""
        from dataclasses import dataclass

        @dataclass
        class Stats:
            hits: int = 0
            misses: int = 0
            energy: float = 0.0

        class Controller:
            def __init__(self):
                self.a = 1
                self.b = 2
                self.c = 3

            def step(self):
                return self.a
    """)
    assert "SLIP006" not in found


def test_slip006_quiet_outside_sim_packages():
    assert "SLIP006" not in codes(RECORD_CLASS,
                                  module=EXPERIMENTS_MODULE)


# ----------------------------------------------------------------------
# SLIP007 float += onto *_pj stats fields
# ----------------------------------------------------------------------
def test_slip007_triggers_on_pj_augassign():
    assert "SLIP007" in codes("""
        def charge(stats, read_pj):
            stats.read_pj += read_pj
    """)


def test_slip007_triggers_on_nested_attribute_chain():
    assert "SLIP007" in codes("""
        def charge(level):
            level.stats.energy.movement_queue_pj += 0.3
    """)


def test_slip007_quiet_on_event_counters_and_assignment():
    found = codes("""
        def charge(stats, events):
            stats.read_events[0] += 1
            stats.read_pj = stats.read_events[0] * 1.27
            stats.read_pj -= 0.0
    """)
    assert "SLIP007" not in found


def test_slip007_quiet_outside_sim_packages():
    found = codes("""
        def tally(report, cell):
            report.total_pj += cell.total_pj
    """, module=EXPERIMENTS_MODULE)
    assert "SLIP007" not in found


def test_slip007_pragma_suppresses():
    found = codes("""
        def complete(stats, lookup_pj):
            stats.energy_pj += lookup_pj  # slip-lint: disable=SLIP007
    """)
    assert "SLIP007" not in found


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_line_pragma_suppresses_single_code():
    found = codes("""
        def total_energy_pj(values):
            return sum(values)  # slip-lint: disable=SLIP005
    """)
    assert "SLIP005" not in found


def test_line_pragma_leaves_other_lines_alone():
    found = codes("""
        def total_energy_pj(values):
            a = sum(values)  # slip-lint: disable=SLIP005
            b = sum(values)
            return a + b
    """)
    assert found.count("SLIP005") == 1


def test_file_pragma_suppresses_whole_file():
    found = codes("""
        # slip-lint: disable-file=SLIP005,SLIP007
        def total_energy_pj(values, stats):
            stats.energy_pj += 1.0
            return sum(values)
    """)
    assert "SLIP005" not in found and "SLIP007" not in found


def test_disable_all_pragma():
    found = codes("""
        import random
        rng = random.Random()  # slip-lint: disable=all
    """)
    assert found == []


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_slip999():
    assert codes("def broken(:\n    pass") == ["SLIP999"]


def test_module_parts_derivation():
    assert module_parts_of("src/repro/mem/cache.py") == (
        "repro", "mem", "cache")
    assert module_parts_of("/abs/path/src/repro/sim/config.py") == (
        "repro", "sim", "config")
    assert module_parts_of("scripts/tool.py") == ("tool",)


def test_select_restricts_rules():
    source = textwrap.dedent("""
        import random
        rng = random.Random()

        def total_energy_pj(values):
            return sum(values)
    """)
    only = lint_source(source, path="fixture.py", module=SIM_MODULE,
                       select=["SLIP005"])
    assert [f.code for f in only] == ["SLIP005"]


def test_every_rule_has_unique_code_and_docs():
    seen = set()
    for rule in RULES:
        assert rule.code.startswith("SLIP") and rule.code not in seen
        assert rule.summary
        seen.add(rule.code)


# ----------------------------------------------------------------------
# CLI behaviour and exit codes
# ----------------------------------------------------------------------
def test_cli_nonzero_on_violation_fixture(tmp_path, capsys):
    bad = tmp_path / "repro" / "mem" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nrng = random.Random()\n")
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "SLIP001" in out


def test_cli_zero_on_clean_tree(tmp_path, capsys):
    good = tmp_path / "clean.py"
    good.write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def total_energy_pj(values):\n"
                   "    return sum(values)\n")
    assert main(["--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "SLIP005"


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["--select", "SLIP777", "."]) == 2
    assert main(["/no/such/path-xyz"]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.code in out


def test_discovery_skips_caches_and_sorts(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x=1")
    (tmp_path / "b.py").write_text("x=1")
    (tmp_path / "a.py").write_text("x=1")
    files = discover_files([str(tmp_path)])
    assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]


def test_module_entry_point_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "--list-rules"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "SLIP001" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


# ----------------------------------------------------------------------
# Robustness: one unreadable file must not abort the whole run
# ----------------------------------------------------------------------
def test_non_utf8_file_reported_and_scan_continues(tmp_path):
    (tmp_path / "garbled.py").write_bytes(b"x = 1\n\xff\xfe\x00bad\n")
    (tmp_path / "repro" / "mem").mkdir(parents=True)
    bad = tmp_path / "repro" / "mem" / "bad.py"
    bad.write_text("import random\nrng = random.Random()\n")

    findings, files_scanned = lint_paths([str(tmp_path)])
    assert files_scanned == 2
    by_code = {f.code for f in findings}
    # The decode failure is a finding, not a crash...
    assert "SLIP999" in by_code
    decode = next(f for f in findings if f.code == "SLIP999")
    assert "not valid UTF-8" in decode.message
    assert decode.path.endswith("garbled.py")
    # ...and the other file was still scanned.
    assert "SLIP001" in by_code


def test_non_utf8_file_cli_exit_code(tmp_path, capsys):
    (tmp_path / "garbled.py").write_bytes(b"\xff\xfe\x00")
    assert main([str(tmp_path)]) == 1
    assert "SLIP999" in capsys.readouterr().out


# ----------------------------------------------------------------------
# SLIP999 is always on, independent of --select
# ----------------------------------------------------------------------
def test_slip999_fires_even_when_select_names_other_rules():
    findings = lint_source("def broken(:\n", path="fixture.py",
                           module=SIM_MODULE, select=["SLIP001"])
    assert [f.code for f in findings] == ["SLIP999"]


def test_select_slip999_is_a_valid_code(tmp_path, capsys):
    good = tmp_path / "clean.py"
    good.write_text("x = 1\n")
    assert main(["--select", "SLIP999", str(tmp_path)]) == 0
    capsys.readouterr()


def test_list_rules_documents_always_on_slip999(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SLIP999" in out
    assert "always on" in out


# ----------------------------------------------------------------------
# The real tree must lint clean (wires slip-lint into every pytest run)
# ----------------------------------------------------------------------
def test_src_tree_lints_clean():
    findings, files_scanned = lint_paths([SRC_DIR])
    assert files_scanned > 50
    assert findings == [], "\n".join(f.render() for f in findings)
