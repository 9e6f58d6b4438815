"""Intraprocedural AST dataflow: paths, aliases and taint.

This module is the engine under ``slip-audit`` (:mod:`repro.analysis.
audit`). It knows nothing about SLIP counters; it provides two generic
capabilities that the audit's taint rules compose:

* **Path normalization** — an assignment target or receiver expression
  is folded to a dotted *path string* (``level.stats.insertions``,
  subscripts collapsing to ``[]``), with local aliases expanded: after
  ``stats = level.stats``, a write to ``stats.demand_hits`` normalizes
  to ``level.stats.demand_hits``.
* **Flow-sensitive taint** — a forward walk tracking which locals are
  derived from nondeterminism sources (``os.environ``, ``time.*``,
  unseeded RNG constructions, set iteration), with kills on
  reassignment, may-taint merges at branch joins, and a second pass
  over loop bodies for loop-carried taint. Sinks are classified by a
  caller-supplied predicate (the audit passes its counter classifier).

Everything here is deliberately *intra*procedural.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional

#: Marker appended to a path segment written/read through a subscript.
SUBSCRIPT = "[]"


# ----------------------------------------------------------------------
# Path normalization
# ----------------------------------------------------------------------
def dotted_path(node: ast.AST,
                aliases: Optional[Mapping[str, str]] = None
                ) -> Optional[str]:
    """Normalize an expression to a dotted path string, or ``None``.

    ``a.b[i].c`` -> ``"a.b[].c"``; a root :class:`ast.Name` found in
    ``aliases`` is replaced by its aliased path. Anything that is not a
    pure Name/Attribute/Subscript chain (calls, literals, arithmetic)
    has no path.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            # Marker for "the segment below me is indexed": x[i] -> x[]
            parts.append(SUBSCRIPT)
            node = node.value
        elif isinstance(node, ast.Name):
            root = node.id
            if aliases and root in aliases:
                root = aliases[root]
            parts.append(root)
            break
        else:
            return None
    # parts are leaf-first and always end with the root Name, so when a
    # marker is seen (walking root-first) its base segment is already out.
    out: List[str] = []
    for part in reversed(parts):
        if part == SUBSCRIPT:
            out[-1] += SUBSCRIPT
        else:
            out.append(part)
    return ".".join(out)


def path_segments(path: str) -> List[str]:
    """Split a normalized path into segments (subscript markers kept)."""
    return path.split(".")


def terminal_attr(path: str) -> str:
    """Last segment of a path, with any subscript marker stripped."""
    return path_segments(path)[-1].replace(SUBSCRIPT, "")


# ----------------------------------------------------------------------
# Function indexing
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    """One function or method found in an analyzed source tree."""

    qualname: str                       # "ClassName.method" or "func"
    node: ast.AST                       # FunctionDef / AsyncFunctionDef
    path: str                           # source file it came from


def index_functions(tree: ast.AST, path: str) -> List[FunctionInfo]:
    """Top-level functions and class methods of one module (one level:
    nested defs belong to their enclosing function's body)."""
    out: List[FunctionInfo] = []
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(FunctionInfo(node.name, node, path))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    out.append(FunctionInfo(f"{node.name}.{item.name}",
                                            item, path))
    return out


# ----------------------------------------------------------------------
# Flow-sensitive taint tracking
# ----------------------------------------------------------------------
#: Dotted call names whose *result* is nondeterministic across runs.
TAINT_CALLS = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.time_ns", "time.perf_counter_ns",
    "time.monotonic_ns", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.getenv", "os.environ.get", "os.urandom", "os.getpid",
    "uuid.uuid1", "uuid.uuid4",
    # Module-level random functions draw from the unseeded global RNG.
    "random.random", "random.randint", "random.randrange",
    "random.uniform", "random.choice", "random.choices",
    "random.sample", "random.getrandbits", "random.gauss",
})

#: Constructors that yield a nondeterministic generator when called
#: with no seed argument.
UNSEEDED_CTORS = ("Random", "default_rng")

#: Attribute chains that are themselves nondeterministic values.
TAINT_PATHS = frozenset({"os.environ"})


@dataclass
class TaintHit:
    """One source-to-sink flow found by the taint walker."""

    kind: str          # "write" (tainted value into sink) or "guard"
    sink: str          # classified sink key (e.g. "stats.demand_hits")
    source: str        # human description of the originating source
    line: int = 0
    col: int = 0


def _call_name(node: ast.Call) -> Optional[str]:
    return dotted_path(node.func)


def _is_set_like(node: ast.AST) -> bool:
    """Expression whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in ("set", "frozenset")
    return False


class TaintTracker:
    """Forward flow-sensitive taint walk over one function body.

    ``sink_of(path) -> Optional[str]`` classifies normalized write
    targets; a non-None return is a sink key. Hits are accumulated on
    :attr:`hits`. The walk is a may-analysis: branch joins union their
    taint sets, straight-line reassignment from a clean value kills.
    """

    def __init__(self, sink_of: Callable[[str], Optional[str]]) -> None:
        self.sink_of = sink_of
        self.hits: List[TaintHit] = []
        self.tainted: Dict[str, str] = {}   # local name -> source desc
        self.aliases: Dict[str, str] = {}

    # -- expression taint ---------------------------------------------
    def expr_source(self, node: ast.AST) -> Optional[str]:
        """The source description if this expression is tainted."""
        if isinstance(node, ast.Name):
            return self.tainted.get(node.id)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None:
                if name in TAINT_CALLS:
                    return f"{name}()"
                leaf = name.rsplit(".", 1)[-1]
                if (leaf in UNSEEDED_CTORS
                        and not node.args and not node.keywords):
                    return f"unseeded {name}()"
            # A call on / with a tainted value stays tainted.
            for child in ast.iter_child_nodes(node):
                src = self.expr_source(child)
                if src is not None:
                    return src
            return None
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            path = dotted_path(node, self.aliases)
            if path is not None:
                for known in TAINT_PATHS:
                    if path == known or path.startswith(known + ".") \
                            or path.startswith(known + SUBSCRIPT):
                        return known
            src = self.expr_source(node.value)
            if src is not None:
                return src
            if isinstance(node, ast.Subscript):
                return self.expr_source(node.slice)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_like(gen.iter):
                    return "set iteration order"
                src = self.expr_source(gen.iter)
                if src is not None:
                    return src
            return None
        for child in ast.iter_child_nodes(node):
            src = self.expr_source(child)
            if src is not None:
                return src
        return None

    # -- statement walk ------------------------------------------------
    def _record_write(self, target: ast.AST, source: str,
                      kind: str = "write") -> None:
        path = dotted_path(target, self.aliases)
        if path is None:
            return
        sink = self.sink_of(path)
        if sink is not None:
            self.hits.append(TaintHit(
                kind=kind, sink=sink, source=source,
                line=getattr(target, "lineno", 0),
                col=getattr(target, "col_offset", 0),
            ))

    def _assign_target(self, target: ast.AST,
                       source: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            if source is not None:
                self.tainted[target.id] = source
            else:
                self.tainted.pop(target.id, None)
            self.aliases.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, source)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, source)
            return
        if source is not None:
            self._record_write(target, source)

    def _sink_writes_under(self, stmts: Iterable[ast.stmt],
                           source: str) -> None:
        """Flag every sink write in a region guarded by a tainted test."""
        for stmt in stmts:
            for node in ast.walk(stmt):
                targets: List[ast.AST] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self._record_write(target, source, kind="guard")

    def _merge(self, *branches: Dict[str, str]) -> None:
        merged: Dict[str, str] = {}
        for env in branches:
            merged.update(env)
        self.tainted = merged

    def process(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._process_stmt(stmt)

    def _process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            source = self.expr_source(stmt.value)
            value_path = dotted_path(stmt.value, self.aliases)
            for target in stmt.targets:
                self._assign_target(target, source)
                # Maintain the alias environment for path-shaped values.
                if isinstance(target, ast.Name) and value_path is not None:
                    self.aliases[target.id] = value_path
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target,
                                    self.expr_source(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            source = self.expr_source(stmt.value)
            if isinstance(stmt.target, ast.Name):
                if source is not None:
                    self.tainted[stmt.target.id] = source
            elif source is not None:
                self._record_write(stmt.target, source)
        elif isinstance(stmt, (ast.If, ast.While)):
            source = self.expr_source(stmt.test)
            if source is not None:
                self._sink_writes_under(stmt.body, source)
                self._sink_writes_under(stmt.orelse, source)
            before = dict(self.tainted)
            self.process(stmt.body)
            after_body = self.tainted
            self.tainted = dict(before)
            self.process(stmt.orelse)
            self._merge(after_body, self.tainted)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            source = self.expr_source(stmt.iter)
            if _is_set_like(stmt.iter):
                source = "set iteration order"
            self._assign_target(stmt.target, source)
            before = dict(self.tainted)
            # Two passes: the second sees loop-carried taint.
            self.process(stmt.body)
            self._assign_target(stmt.target, source)
            self.process(stmt.body)
            self._merge(before, self.tainted)
            self.process(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign_target(
                        item.optional_vars,
                        self.expr_source(item.context_expr),
                    )
            self.process(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.process(stmt.body)
            for handler in stmt.handlers:
                self.process(handler.body)
            self.process(stmt.orelse)
            self.process(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            return  # nested scopes are analyzed on their own
        # Expression statements, returns, raises: no taint state change
        # (sink writes only happen through assignment statements).


def taint_function(fn: ast.AST,
                   sink_of: Callable[[str], Optional[str]]
                   ) -> List[TaintHit]:
    """Run the taint walk over one function body; returns its hits."""
    tracker = TaintTracker(sink_of)
    tracker.process(getattr(fn, "body", []))
    return tracker.hits
