"""What the simulator package may read, load and call.

No module under ``src/repro`` reads the environment, so no knob can
switch a run onto another code path unseen; the simulator loads
only ``repro.analysis.invariants`` of ``repro.analysis``; the
kernels publish their tallies through one step; and only the TLB and
the capture kernel compute PTE-line addresses.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def source_trees():
    """``(module path, AST)`` of every module under ``src/repro``."""
    for root, _, files in os.walk(os.path.join(SRC_DIR, "repro")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    yield (os.path.relpath(path, SRC_DIR),
                           ast.parse(handle.read(), filename=path))


def environment_reads(tree):
    """Line numbers of ``os.environ`` / ``os.getenv`` references and of
    ``from os import environ/getenv``. String literals naming them are
    data, not reads."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv", "environb",
                                  "getenvb")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name.startswith(("environ", "getenv"))
                   for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    reads = [f"{module}:{line}" for module, tree in source_trees()
             for line in environment_reads(tree)]
    assert reads == []


def test_environment_reads_are_found():
    tree = ast.parse("import os\nfrom os import getenv\n"
                     "a = os.environ.get('X')\nb = os.getenv('Y')\n"
                     "c = 'os.environ'\n")
    assert environment_reads(tree) == [2, 3, 4]


def test_simulator_loads_only_the_invariants():
    probe = ("import sys, repro.sim.single_core; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('repro.analysis')))")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR)).stdout
    assert out.strip() == "['repro.analysis', 'repro.analysis.invariants']"


def adopt_counts_callers():
    """``(module, function)`` of every ``.adopt_counts(...)`` call."""
    callers = set()
    for module, tree in source_trees():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "adopt_counts"):
                    callers.add((module, function.name))
    return callers


def test_kernels_publish_through_one_step():
    """Both replay kernels land their tallies through ``publish_level``;
    only the capture kernel's L1 freeze calls ``adopt_counts`` too."""
    assert adopt_counts_callers() == {
        ("repro/sim/vector_replay.py", "publish_level"),
        ("repro/sim/vector_frontend.py", "_frozen_frontend"),
    }


def modules_naming(names):
    """Modules that import, read or bind any of ``names``."""
    modules = set()
    for module, tree in source_trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id in names)
                    or (isinstance(node, ast.Attribute)
                        and node.attr in names)
                    or (isinstance(node, ast.alias)
                        and node.name in names)):
                modules.add(module)
    return modules


def test_pte_lines_have_one_writer():
    """The capture kernel writes each TLB miss's PTE line into the
    boundary stream, so every replay reads it from there: only the TLB
    and the capture kernel compute the address."""
    assert modules_naming({"PTE_TABLE_BASE", "PTES_PER_LINE"}) == {
        "repro/mem/tlb.py",
        "repro/sim/vector_frontend.py",
    }
