"""slip-lint rule set: simulator-specific static-analysis checks.

Each rule is an AST pass with a stable ``SLIPnnn`` code. The rules
encode determinism and accounting hazards that generic linters do not
know about: an unseeded RNG or a ``set`` iteration in a victim-selection
path silently breaks run-to-run reproducibility, and a plain ``sum()``
over picojoule floats accumulates rounding error into headline energy
numbers. Findings can be suppressed per line with
``# slip-lint: disable=SLIP005`` (or ``disable=all``), or for a whole
file with ``# slip-lint: disable-file=SLIP002``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: The always-on diagnostic code for files that fail to parse or
#: decode. Not a Rule instance: it can never be deselected (a file the
#: linter cannot read is a finding regardless of ``--select``).
SYNTAX_ERROR_CODE = "SLIP999"

#: Packages whose code runs inside the simulator hot loop; wall-clock
#: reads and unslotted metadata classes are only hazards there.
SIM_PACKAGES: Tuple[Tuple[str, ...], ...] = (
    ("repro", "mem"),
    ("repro", "core"),
    ("repro", "sim"),
)

#: Packages holding victim-selection / policy-enumeration code, where
#: iteration order feeds directly into simulated decisions.
ORDERING_PACKAGES: Tuple[Tuple[str, ...], ...] = SIM_PACKAGES + (
    ("repro", "policies"),
)


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, addressable as path:line:col."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def module_parts_of(path: str) -> Tuple[str, ...]:
    """Dotted-module components of a file path, rooted at ``repro``.

    ``src/repro/mem/cache.py`` -> ``("repro", "mem", "cache")``; paths
    outside a ``repro`` tree map to their bare stem, which matches no
    package-scoped rule.
    """
    parts = re.split(r"[\\/]", path)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    parts = [p for p in parts if p]
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return tuple(parts[idx:])
    return tuple(parts[-1:])


def _in_packages(module: Sequence[str],
                 packages: Sequence[Tuple[str, ...]]) -> bool:
    return any(tuple(module[:len(pkg)]) == pkg for pkg in packages)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class: one code, one AST pass."""

    code: str = "SLIP000"
    name: str = "base"
    summary: str = ""

    def applies_to(self, module: Sequence[str]) -> bool:
        return True

    def check(self, tree: ast.AST, source: str, path: str,
              module: Sequence[str]) -> List[Finding]:
        raise NotImplementedError

    def _finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(path=path, line=node.lineno, col=node.col_offset,
                       code=self.code, message=message)


class UnseededRngRule(Rule):
    """SLIP001: RNG constructed without an explicit seed."""

    code = "SLIP001"
    name = "unseeded-rng"
    summary = ("random.Random() / np.random.default_rng() without an "
               "explicit seed breaks run-to-run determinism")

    _CTORS = ("Random", "default_rng")

    def check(self, tree, source, path, module):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf not in self._CTORS:
                continue
            if node.args or node.keywords:
                continue
            findings.append(self._finding(
                path, node,
                f"{dotted}() constructed without a seed; pass an explicit "
                f"seed so simulations are reproducible",
            ))
        return findings


class WallClockRule(Rule):
    """SLIP002: wall-clock reads inside simulator packages."""

    code = "SLIP002"
    name = "wall-clock-in-sim"
    summary = ("time.time()/datetime.now() inside repro.mem/core/sim; "
               "timing belongs only in the experiments layer")

    _BANNED = {
        "time.time", "time.perf_counter", "time.monotonic",
        "time.process_time", "time.time_ns", "time.perf_counter_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def applies_to(self, module):
        return _in_packages(module, SIM_PACKAGES)

    def check(self, tree, source, path, module):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted in self._BANNED:
                findings.append(self._finding(
                    path, node,
                    f"{dotted}() read inside a simulator package; "
                    f"wall-clock timing belongs in repro.experiments only",
                ))
        return findings


class UnorderedIterationRule(Rule):
    """SLIP003: iteration over set / dict-.keys() in policy code."""

    code = "SLIP003"
    name = "unordered-iteration"
    summary = ("iteration over a set (or explicit .keys()) in "
               "victim-selection / policy-enumeration code; ordering "
               "hazard for determinism")

    def applies_to(self, module):
        return _in_packages(module, ORDERING_PACKAGES)

    def _offending(self, iter_node: ast.AST) -> Optional[str]:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return "a set expression"
        if isinstance(iter_node, ast.Call):
            dotted = _dotted_name(iter_node.func)
            if dotted in ("set", "frozenset"):
                return f"{dotted}(...)"
            if (isinstance(iter_node.func, ast.Attribute)
                    and iter_node.func.attr == "keys"
                    and not iter_node.args and not iter_node.keywords):
                return ".keys()"
        return None

    def check(self, tree, source, path, module):
        findings = []
        iters: List[ast.AST] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
        for iter_node in iters:
            what = self._offending(iter_node)
            if what is not None:
                findings.append(self._finding(
                    path, iter_node,
                    f"iteration over {what}: set order is not "
                    f"deterministic across runs; iterate a sorted() copy "
                    f"or an order-preserving container",
                ))
        return findings


class FloatSumRule(Rule):
    """SLIP005: builtin sum() over energy quantities.

    A sum is over energy when its argument names picojoules or energy,
    when it sits in an energy-named function, or, in the simulator
    packages, when it runs over a comprehension of ``*`` products (the
    count x per-event-energy terms every ledger is built from), also
    through a wrapper such as ``itertools.chain``.
    """

    code = "SLIP005"
    name = "float-sum-energy"
    summary = ("builtin sum() over picojoule floats; use math.fsum so "
               "energy ledgers are exact and order-independent")

    _ENERGY = re.compile(r"_pj\b|energy", re.IGNORECASE)
    _FUNC = re.compile(r"energy|_pj$", re.IGNORECASE)

    @staticmethod
    def _sums_products(arg: ast.AST) -> bool:
        return any(
            isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
            and isinstance(node.elt, ast.BinOp)
            and isinstance(node.elt.op, ast.Mult)
            for node in ast.walk(arg)
        )

    def check(self, tree, source, path, module):
        findings = []
        func_stack: List[str] = []
        in_sim = _in_packages(module, SIM_PACKAGES)

        def visit(node: ast.AST) -> None:
            is_func = isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
            if is_func:
                func_stack.append(node.name)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"
                    and node.args):
                arg_src = ast.get_source_segment(source, node.args[0]) or ""
                in_energy_fn = bool(
                    func_stack and self._FUNC.search(func_stack[-1])
                )
                if (self._ENERGY.search(arg_src) or in_energy_fn
                        or (in_sim and self._sums_products(node.args[0]))):
                    findings.append(self._finding(
                        path, node,
                        "builtin sum() accumulating energy floats; use "
                        "math.fsum for exact, order-independent "
                        "accumulation (or disable if the sum is integral)",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_func:
                func_stack.pop()

        visit(tree)
        return findings


class MissingSlotsRule(Rule):
    """SLIP006: record-like hot-path class without __slots__."""

    code = "SLIP006"
    name = "missing-slots"
    summary = ("plain record class on the simulator hot path without "
               "__slots__; per-instance dicts dominate memory and access "
               "time for per-line metadata")

    _MIN_ATTRS = 3

    def applies_to(self, module):
        return _in_packages(module, SIM_PACKAGES)

    def _record_attrs(self, init: ast.FunctionDef) -> Optional[int]:
        """Count of self attributes iff __init__ is a plain record."""
        attrs = set()
        body = init.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]
        for stmt in body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
            elif isinstance(stmt, ast.AnnAssign):
                target = stmt.target
            else:
                return None
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                return None
            attrs.add(target.attr)
        return len(attrs)

    def check(self, tree, source, path, module):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # Decorated (dataclasses etc.) and subclassing types manage
            # their own layout; only plain record classes are flagged.
            if node.decorator_list or node.bases:
                continue
            has_slots = any(
                isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)
                for stmt in node.body
            )
            if has_slots:
                continue
            # A record holds data, it doesn't behave: any method beyond
            # __init__ / reset / dunders means this is a behavior class
            # whose instance count the linter cannot bound.
            methods = [stmt for stmt in node.body
                       if isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
            if any(m.name not in ("__init__", "reset")
                   and not (m.name.startswith("__")
                            and m.name.endswith("__"))
                   for m in methods):
                continue
            init = next(
                (stmt for stmt in methods if stmt.name == "__init__"),
                None,
            )
            if init is None:
                continue
            count = self._record_attrs(init)
            if count is not None and count >= self._MIN_ATTRS:
                findings.append(self._finding(
                    path, node,
                    f"class {node.name} is a plain {count}-field record "
                    f"in a simulator package but defines no __slots__",
                ))
        return findings


class EnergyAugAssignRule(Rule):
    """SLIP007: float += onto a picojoule stats field."""

    code = "SLIP007"
    name = "energy-augmented-assign"
    summary = ("augmented += onto a *_pj stats attribute in simulator "
               "code; repeated float accumulation drifts from the exact "
               "product — bump an integer event counter and materialize "
               "the energy once at the stats boundary")

    def applies_to(self, module):
        return _in_packages(module, SIM_PACKAGES)

    def check(self, tree, source, path, module):
        findings = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.target, ast.Attribute)
                    and node.target.attr.endswith("_pj")):
                continue
            target = _dotted_name(node.target) or node.target.attr
            findings.append(self._finding(
                path, node,
                f"float accumulation onto {target}: sequential += "
                f"drifts from the exact product (ULP error per add); "
                f"count integer events and materialize energy once, or "
                f"disable with a justification if the ledger has no "
                f"event-count source of truth",
            ))
        return findings


#: Registry, in code order. lint.py and the docs both derive from this.
RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    FloatSumRule(),
    MissingSlotsRule(),
    EnergyAugAssignRule(),
)


# ----------------------------------------------------------------------
# Pragma handling
# ----------------------------------------------------------------------
_PRAGMA = re.compile(
    r"#\s*slip-lint\s*:\s*"
    r"disable(?P<file>-file)?\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+)"
)


def _parse_codes(raw: str) -> Tuple[str, ...]:
    return tuple(c.strip().upper() for c in raw.split(",") if c.strip())


def suppressed(findings: List[Finding], source: str) -> List[Finding]:
    """Drop findings disabled by line or file pragmas."""
    lines = source.splitlines()
    file_disabled: set = set()
    line_disabled: dict = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if not match:
            continue
        codes = _parse_codes(match.group("codes"))
        if match.group("file"):
            file_disabled.update(codes)
        else:
            line_disabled.setdefault(lineno, set()).update(codes)

    def keep(finding: Finding) -> bool:
        if "ALL" in file_disabled or finding.code in file_disabled:
            return False
        on_line = line_disabled.get(finding.line, ())
        return not ("ALL" in on_line or finding.code in on_line)

    return [f for f in findings if keep(f)]


def lint_source(source: str, path: str = "<string>",
                module: Optional[Sequence[str]] = None,
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one source string; the core entry point behind the CLI.

    ``module`` overrides the dotted-module derivation from ``path``
    (used by tests to exercise package-scoped rules on fixture text).
    ``select`` restricts to a subset of rule codes.
    """
    if module is None:
        module = module_parts_of(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        # SLIP999 is always-on by construction: this return precedes
        # the ``select`` filter below, so a parse failure is reported
        # even under the narrowest ``--select``.
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1, code=SYNTAX_ERROR_CODE,
                        message=f"syntax error: {exc.msg}")]
    findings: List[Finding] = []
    wanted = {c.upper() for c in select} if select else None
    for rule in RULES:
        if wanted is not None and rule.code not in wanted:
            continue
        if not rule.applies_to(module):
            continue
        findings.extend(rule.check(tree, source, path, module))
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return suppressed(findings, source)
