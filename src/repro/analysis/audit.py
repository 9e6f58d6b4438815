"""slip-audit: twin-path effect auditing + determinism taint analysis.

Some accounting paths exist twice: a fast "twin" (a batched numpy
kernel, or any gated branch that inlines the counter bumps) and a
reference body built from the accounting primitives. Runtime goldens
prove the twins byte-identical *on the traces we run*; this tool
proves the stronger static property — both paths mutate the same
counters — before anything runs, and catches a counter added to one
twin and forgotten in the other at lint time.

Two analysis families, built on :mod:`repro.analysis.dataflow` /
:mod:`repro.analysis.effects` and sharing slip-lint's Finding,
reporting, pragma and ``--select`` machinery:

* **Twin-path drift** (SLIP010/011/012) — each fast/reference pair is
  declared in :data:`TWIN_REGISTRY` with its shared counter write-set
  and the expected per-side differences. The effect engine computes
  both sides' reachable counter writes (gated pairs: the same function
  under guards-assumed-True vs guards-assumed-False; explicit pairs:
  two functions) and diffs them against the registration.
* **Determinism taint** (SLIP013/014) — a flow-sensitive walk tracking
  values derived from ``os.environ`` / ``time.*`` / unseeded RNGs /
  set iteration into counter writes (the stats that
  ``RunResult.to_dict`` publishes), with kills on reassignment — the
  flows SLIP001-003's syntactic rules cannot see.

Usage::

    slip-audit src/
    python -m repro.analysis.audit src/      # equivalent module form
    slip-audit --format json --select SLIP013,SLIP014 src/
    slip-audit --list-rules
    slip-audit --explain-pair vector-replay src/  # computed write-sets

Exit codes match slip-lint: 0 clean, 1 findings, 2 usage error.
Suppressions use the same pragma grammar under the ``slip-audit``
tool name: ``# slip-audit: disable=SLIP013`` (or ``disable-file=``).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from .dataflow import FunctionInfo, split_guard_test, taint_function
from .effects import SummaryIndex, counter_key, extract_effects
from .reporting import render_json, render_rule_catalog, render_text
from .rules import SYNTAX_ERROR_CODE, Finding, module_parts_of, suppressed

#: Packages whose functions the taint pass and gate scan cover. The
#: effect engine itself indexes every scanned file (callee resolution
#: needs the whole tree), but findings are only raised for simulator /
#: policy / experiment code.
AUDIT_PACKAGES: Tuple[Tuple[str, ...], ...] = (
    ("repro", "mem"),
    ("repro", "core"),
    ("repro", "sim"),
    ("repro", "policies"),
    ("repro", "workloads"),
    ("repro", "experiments"),
)

#: Attribute names that mark a fused fast-path gate when tested by an
#: ``if``: any name with a `fast` or `unchecked` word, so a new fused
#: branch cannot skip registration.
GATE_ATTR = re.compile(r"(?:^|_)(?:fast|unchecked)(?:_|$)")

#: Twin annotation comments placed next to registered functions.
_ANNOTATION = re.compile(
    r"#\s*slip-audit\s*:\s*twin\s*=\s*(?P<pair>[A-Za-z0-9_-]+)"
    r"\s+role\s*=\s*(?P<role>fast|ref)"
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
    AuditRule("SLIP010", "twin-missing-write",
              "a registered twin-pair counter is no longer written by "
              "one side (fused or reference) of the pair"),
    AuditRule("SLIP011", "twin-unregistered-write",
              "a twin path writes a counter outside the registered "
              "shared/side write-sets, or a duplicated counter's "
              "write-site count changed"),
    AuditRule("SLIP012", "unregistered-fast-gate",
              "a fast-gated branch (fast/unchecked gate) mutates "
              "counters without a registered + annotated twin pair"),
    AuditRule("SLIP013", "tainted-stats-write",
              "a value derived from os.environ/time/unseeded-RNG/"
              "set-iteration flows into a published counter"),
    AuditRule("SLIP014", "tainted-stats-guard",
              "a counter write is control-dependent on a "
              "nondeterministic condition"),
)


# ----------------------------------------------------------------------
# Twin registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TwinPair:
    """One registered fast/reference pair.

    ``fast`` and ``refs`` are qualified names (``Class.method`` or a
    module-level function name). When ``guards`` is non-empty the
    reference side is the *same* function with every gate assumed
    False (the dispatch/checked branches); ``refs`` then documents the
    reference implementations for annotation checking only. With no
    guards, the reference side is the union of the ``refs`` functions.

    ``shared`` must be written by both sides; ``fast_only`` is the
    exact expected fast-minus-reference difference and ``ref_only``
    the reference-minus-fast difference. ``site_counts`` pins the
    number of direct fast-side write sites for counters written more
    than once (a set comparison alone would miss deleting one of two
    duplicated bumps); ``ref_site_counts`` pins the direct counter
    sites of the ``refs`` functions themselves, which catches a
    deleted reference-side bump even when the same key stays reachable
    through a callee (``record_bypass`` also touches
    ``insertions_by_class``, so the expanded *set* would not notice).
    ``ignore`` drops engine noise from both sides before any
    comparison.
    """

    pair_id: str
    fast: str
    refs: Tuple[str, ...] = ()
    guards: Tuple[str, ...] = ()
    shared: FrozenSet[str] = frozenset()
    fast_only: FrozenSet[str] = frozenset()
    ref_only: FrozenSet[str] = frozenset()
    site_counts: Mapping[str, int] = field(default_factory=dict)
    ref_site_counts: Mapping[str, int] = field(default_factory=dict)
    ignore: FrozenSet[str] = frozenset()


TWIN_REGISTRY: Tuple[TwinPair, ...] = (
    # Every shared / fast_only / ref_only / site_counts value below is
    # the engine's own computed output on the current tree, pinned
    # (run `slip-audit --explain-pair <id> src/` to regenerate after a
    # deliberate accounting change). `shared` lists the counters the
    # fast body bumps directly — the keys a hand edit is most likely
    # to touch; `site_counts` pins how many direct fast write sites
    # each has, so deleting one of two duplicated bumps (which leaves
    # the key *set* unchanged) still fires.
    TwinPair(
        # optimize_direct deliberately bypasses the stats (it exists so
        # SimCheck's eou-memo invariant can re-derive answers without
        # perturbing the ledger): the pair registers an empty shared
        # set and the ledger counters as fast-only.
        pair_id="eou-optimize",
        fast="EnergyOptimizerUnit.optimize",
        refs=("EnergyOptimizerUnit.optimize_direct",),
        fast_only=frozenset({
            "stats.optimizations", "stats.tlb_block_cycles",
        }),
        site_counts={
            "stats.optimizations": 1, "stats.tlb_block_cycles": 1,
        },
    ),
    TwinPair(
        # The batched kernel publishes whole tallies through
        # LevelStats.adopt_counts (list assignments — no [] suffix),
        # where the scalar replay bumps element-wise through the
        # hierarchy twins; the side-sets record that shape difference.
        pair_id="vector-replay",
        fast="replay_capture_vector",
        refs=("_replay_events",),
        shared=frozenset({
            "counters.dram_demand_reads", "counters.dram_metadata_reads",
            "counters.dram_writebacks", "counters.total_latency_cycles",
            "stats.demand_hits", "stats.demand_misses",
            "stats.energy.movement_queue_pj", "stats.insertions",
            "stats.insertions_by_class[]", "stats.metadata_hits",
            "stats.metadata_misses", "stats.movements", "stats.reads",
            "stats.reuse_histogram[]", "stats.writebacks_in",
            "stats.writebacks_out", "stats.writes",
        }),
        fast_only=frozenset({
            "stats.hits_by_sublevel", "stats.insert_events",
            "stats.move_read_events", "stats.move_write_events",
            "stats.read_events", "stats.wb_in_events",
            "stats.wb_out_events",
        }),
        ref_only=frozenset({
            "_alloc_rotor", "_clock", "access_counter", "valid_count",
            "counters", "stats",
            "stats._metadata_pj", "stats._read_pj_table",
            "stats._write_pj_table", "stats.bypasses",
            "stats.dirty_bypass_forwards",
            "stats.energy.insertion_pj", "stats.energy.metadata_pj",
            "stats.energy.movement_pj", "stats.energy.read_pj",
            "stats.energy.writeback_pj", "stats.hits_by_sublevel[]",
            "stats.insert_events[]", "stats.insertion_pj",
            "stats.metadata_events", "stats.metadata_pj",
            "stats.move_read_events[]", "stats.move_write_events[]",
            "stats.movement_pj", "stats.read_events[]",
            "stats.read_pj", "stats.wb_in_events[]",
            "stats.wb_out_events[]", "stats.writeback_pj",
        }),
        site_counts={
            "counters.dram_demand_reads": 1,
            "counters.dram_metadata_reads": 1,
            "counters.dram_writebacks": 1,
            "counters.total_latency_cycles": 1,
            "stats.reads": 1, "stats.writes": 1,
        },
        ref_site_counts={"counters.total_latency_cycles": 1},
    ),
    TwinPair(
        # The batched front-end capture kernel vs the scalar shadowed
        # walk: both publish the frozen L1 through adopt_counts /
        # materialize (the large shared set), but the kernel assigns
        # whole tallies (no [] suffix) while the scalar walk drives the
        # live hierarchy — its element-wise bumps, TLB/runtime ledgers
        # and hierarchy counters are ref-only. Neither side bumps a
        # counter directly in its own body (everything flows through
        # callees), so both site-count maps are empty.
        pair_id="vector-frontend",
        fast="capture_front_end_vector",
        refs=("capture_front_end",),
        shared=frozenset({
            "stats._metadata_pj", "stats._read_pj_table",
            "stats._write_pj_table", "stats.bypasses",
            "stats.demand_hits", "stats.demand_misses",
            "stats.dirty_bypass_forwards",
            "stats.energy.insertion_pj", "stats.energy.metadata_pj",
            "stats.energy.movement_pj",
            "stats.energy.movement_queue_pj", "stats.energy.read_pj",
            "stats.energy.writeback_pj", "stats.insertion_pj",
            "stats.insertions", "stats.insertions_by_class[]",
            "stats.metadata_events", "stats.metadata_hits",
            "stats.metadata_misses", "stats.metadata_pj",
            "stats.movement_pj", "stats.movements", "stats.read_pj",
            "stats.reuse_histogram[]", "stats.writeback_pj",
            "stats.writebacks_in", "stats.writebacks_out",
        }),
        fast_only=frozenset({
            "stats.hits_by_sublevel", "stats.insert_events",
            "stats.move_read_events", "stats.move_write_events",
            "stats.read_events", "stats.wb_in_events",
            "stats.wb_out_events",
        }),
        ref_only=frozenset({
            "_alloc_rotor", "_clock", "access_counter", "counters",
            "counters.demand_accesses", "counters.dram_demand_reads",
            "counters.dram_metadata_reads", "counters.dram_writebacks",
            "counters.l1_hits", "counters.total_latency_cycles",
            "stats", "stats.distribution_fetches", "stats.energy_pj",
            "stats.hits", "stats.hits_by_sublevel[]",
            "stats.insert_events[]", "stats.misses",
            "stats.move_read_events[]", "stats.move_write_events[]",
            "stats.optimizations", "stats.policy_recomputations",
            "stats.read_events[]", "stats.reads",
            "stats.state_transitions_to_sampling",
            "stats.state_transitions_to_stable",
            "stats.tlb_block_cycles", "stats.tlb_miss_fetches",
            "stats.wb_in_events[]", "stats.wb_out_events[]",
            "stats.writes", "valid_count",
        }),
    ),
    TwinPair(
        # The capture replay behind run_trace (kernel or scalar replay
        # over a captured front end, plus the frozen front-end restore)
        # vs the golden scalar walk. Both sides reach every counter
        # through their callees (the baseline-kind scalar replay and
        # the walk drive the live hierarchy), so the shared set is the
        # union of the other twin pairs' surfaces. The kernels sit
        # behind calls to names imported from other modules, which the
        # name-based expansion does not follow. So the live runtime and
        # TLB ledgers, which on the fast side only the SLIP kernel
        # drives, are reference-only here.
        # Only the replay body writes directly: the frozen front-end
        # restore assigns the L1, runtime and TLB stats objects whole
        # (fast-only ``stats.energy`` comes with the L1 restore) and
        # sets the front-end counters.
        pair_id="capture-replay",
        fast="replay_capture",
        refs=("walk_cores",),
        shared=frozenset({
            "_alloc_rotor", "_clock", "access_counter", "counters",
            "counters.demand_accesses", "counters.dram_demand_reads",
            "counters.dram_metadata_reads", "counters.dram_writebacks",
            "counters.l1_hits", "counters.total_latency_cycles",
            "stats", "stats._metadata_pj", "stats._read_pj_table",
            "stats._write_pj_table", "stats.bypasses",
            "stats.demand_hits", "stats.demand_misses",
            "stats.dirty_bypass_forwards",
            "stats.energy.insertion_pj", "stats.energy.metadata_pj",
            "stats.energy.movement_pj",
            "stats.energy.movement_queue_pj", "stats.energy.read_pj",
            "stats.energy.writeback_pj", "stats.energy_pj",
            "stats.hits_by_sublevel[]",
            "stats.insert_events[]", "stats.insertion_pj",
            "stats.insertions", "stats.insertions_by_class[]",
            "stats.metadata_events", "stats.metadata_hits",
            "stats.metadata_misses", "stats.metadata_pj",
            "stats.move_read_events[]", "stats.move_write_events[]",
            "stats.movement_pj", "stats.movements",
            "stats.read_events[]", "stats.read_pj", "stats.reads",
            "stats.reuse_histogram[]",
            "stats.wb_in_events[]", "stats.wb_out_events[]",
            "stats.writeback_pj", "stats.writebacks_in",
            "stats.writebacks_out", "stats.writes", "valid_count",
        }),
        ref_only=frozenset({
            "stats.distribution_fetches", "stats.hits", "stats.misses",
            "stats.optimizations", "stats.policy_recomputations",
            "stats.state_transitions_to_sampling",
            "stats.state_transitions_to_stable",
            "stats.tlb_block_cycles", "stats.tlb_miss_fetches",
        }),
        fast_only=frozenset({"stats.energy"}),
        site_counts={
            "counters.demand_accesses": 1, "counters.l1_hits": 1,
            "counters.total_latency_cycles": 1, "stats": 3,
        },
    ),
)

_PAIRS_BY_FAST: Dict[str, TwinPair] = {p.fast: p for p in TWIN_REGISTRY}
_PAIRS_BY_ID: Dict[str, TwinPair] = {p.pair_id: p for p in TWIN_REGISTRY}


def _finding(code: str, info: FunctionInfo, message: str,
             line: Optional[int] = None) -> Finding:
    return Finding(path=info.path, line=line or info.lineno, col=0,
                   code=code, message=message)


# ----------------------------------------------------------------------
# Annotations
# ----------------------------------------------------------------------
def parse_annotations(source: str) -> List[Tuple[int, str, str]]:
    """All ``# slip-audit: twin=<id> role=<fast|ref>`` comment lines."""
    out: List[Tuple[int, str, str]] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        for match in _ANNOTATION.finditer(text):
            out.append((lineno, match.group("pair"), match.group("role")))
    return out


def _attach_annotations(
    annotations: Mapping[str, List[Tuple[int, str, str]]],
    functions: Iterable[FunctionInfo],
) -> Dict[int, List[Tuple[str, str]]]:
    """Map id(function node) -> [(pair_id, role)].

    An annotation binds to the function whose body contains it, or to
    the next ``def`` starting within 3 lines below it.
    """
    by_path: Dict[str, List[FunctionInfo]] = {}
    for info in functions:
        by_path.setdefault(info.path, []).append(info)
    bound: Dict[int, List[Tuple[str, str]]] = {}
    for path, items in annotations.items():
        infos = sorted(by_path.get(path, []), key=lambda i: i.lineno)
        for lineno, pair_id, role in items:
            target = None
            for info in infos:
                if info.lineno <= lineno <= info.end_lineno:
                    target = info      # keep innermost (later) match
            if target is None:
                for info in infos:
                    if 0 < info.lineno - lineno <= 3:
                        target = info
                        break
            if target is not None:
                bound.setdefault(id(target.node), []).append(
                    (pair_id, role))
    return bound


# ----------------------------------------------------------------------
# Twin-path drift (SLIP010 / SLIP011 / SLIP012)
# ----------------------------------------------------------------------
def _pair_sides(index: SummaryIndex,
                pair: TwinPair) -> Optional[Tuple[Set[str], Set[str],
                                                  FunctionInfo]]:
    """(fast_keys, ref_keys, fast_info) for one pair, or None if the
    fast function is not in the analyzed tree."""
    fast = index.find(pair.fast)
    if fast is None:
        return None
    assume_true = {g: True for g in pair.guards}
    fast_keys = index.expanded_counter_keys(fast, assume_true)
    if pair.guards:
        assume_false = {g: False for g in pair.guards}
        ref_keys = index.expanded_counter_keys(fast, assume_false)
    else:
        ref_keys = set()
        for ref_name in pair.refs:
            ref = index.find(ref_name)
            if ref is not None:
                ref_keys |= index.expanded_counter_keys(ref)
    return (set(fast_keys) - pair.ignore,
            set(ref_keys) - pair.ignore, fast)


def check_twin_pairs(index: SummaryIndex) -> List[Finding]:
    findings: List[Finding] = []
    for pair in TWIN_REGISTRY:
        sides = _pair_sides(index, pair)
        if sides is None:
            continue
        fast_keys, ref_keys, fast = sides
        ref_desc = ("guard-false reference path" if pair.guards
                    else " + ".join(pair.refs))
        for key in sorted(pair.shared):
            if key not in fast_keys:
                findings.append(_finding(
                    "SLIP010", fast,
                    f"twin pair '{pair.pair_id}': shared counter "
                    f"'{key}' is registered but the fused path "
                    f"({pair.fast}) no longer writes it",
                ))
            if key not in ref_keys:
                findings.append(_finding(
                    "SLIP010", fast,
                    f"twin pair '{pair.pair_id}': shared counter "
                    f"'{key}' is registered but the reference path "
                    f"({ref_desc}) no longer writes it",
                ))
        for key in sorted(pair.fast_only):
            if key not in fast_keys:
                findings.append(_finding(
                    "SLIP010", fast,
                    f"twin pair '{pair.pair_id}': fast-only counter "
                    f"'{key}' is registered but no longer written by "
                    f"{pair.fast}",
                ))
        for key in sorted(pair.ref_only):
            if key not in ref_keys:
                findings.append(_finding(
                    "SLIP010", fast,
                    f"twin pair '{pair.pair_id}': reference-only "
                    f"counter '{key}' is registered but no longer "
                    f"written by the reference path ({ref_desc})",
                ))
        for key in sorted((fast_keys - ref_keys) - set(pair.fast_only)):
            findings.append(_finding(
                "SLIP011", fast,
                f"twin pair '{pair.pair_id}': fused path writes "
                f"counter '{key}' which the reference path never "
                f"writes and the registry does not allow as fast-only",
            ))
        for key in sorted((ref_keys - fast_keys) - set(pair.ref_only)):
            findings.append(_finding(
                "SLIP011", fast,
                f"twin pair '{pair.pair_id}': reference path writes "
                f"counter '{key}' which the fused path never writes "
                f"and the registry does not allow as reference-only",
            ))
        if pair.site_counts:
            assume_true = {g: True for g in pair.guards}
            counts = Counter(
                key for key, _ in
                index.direct_counter_sites(fast, assume_true)
            )
            for key in sorted(pair.site_counts):
                expected = pair.site_counts[key]
                got = counts.get(key, 0)
                if got != expected:
                    findings.append(_finding(
                        "SLIP011", fast,
                        f"twin pair '{pair.pair_id}': counter '{key}' "
                        f"has {got} direct write site(s) in the fused "
                        f"path, registry expects {expected}",
                    ))
        if pair.ref_site_counts:
            ref_counts: Counter = Counter()
            for ref_name in pair.refs:
                ref = index.find(ref_name)
                if ref is not None:
                    ref_counts.update(
                        key for key, _ in index.direct_counter_sites(ref)
                    )
            for key in sorted(pair.ref_site_counts):
                expected = pair.ref_site_counts[key]
                got = ref_counts.get(key, 0)
                if got != expected:
                    findings.append(_finding(
                        "SLIP011", fast,
                        f"twin pair '{pair.pair_id}': counter '{key}' "
                        f"has {got} direct write site(s) across the "
                        f"reference function(s) "
                        f"({' + '.join(pair.refs)}), registry expects "
                        f"{expected}",
                    ))
    return findings


def _gated_counter_ifs(info: FunctionInfo) -> List[Tuple[int, str]]:
    """(line, gate) for each ``if`` on a fast-gate attribute whose
    branches contain direct counter writes."""
    out: List[Tuple[int, str]] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.If):
            continue
        split = split_guard_test(node.test)
        if split is None or not GATE_ATTR.search(split[0]):
            continue
        branch_module = ast.Module(body=list(node.body) + list(node.orelse),
                                   type_ignores=[])
        summary = extract_effects(branch_module)
        if summary.counter_sites:
            out.append((node.lineno, split[0]))
    return out


def check_gates_and_annotations(
    index: SummaryIndex,
    annotations: Mapping[str, List[Tuple[int, str, str]]],
) -> List[Finding]:
    findings: List[Finding] = []
    in_scope = [info for info in index.functions
                if _in_audit_scope(info.path)]
    bound = _attach_annotations(annotations, in_scope)

    registered_refs: Dict[str, Set[str]] = {}
    for pair in TWIN_REGISTRY:
        for ref in pair.refs:
            registered_refs.setdefault(ref, set()).add(pair.pair_id)

    for info in in_scope:
        own = bound.get(id(info.node), [])
        # (1) gate tests over counter-mutating branches need a pair
        for line, gate in _gated_counter_ifs(info):
            pair = _PAIRS_BY_FAST.get(info.qualname)
            if pair is None or gate not in pair.guards:
                findings.append(_finding(
                    "SLIP012", info,
                    f"{info.qualname} gates counter writes on "
                    f"'{gate}' but is not the registered fast path "
                    f"of any twin pair covering that gate; register "
                    f"it in repro.analysis.audit.TWIN_REGISTRY and "
                    f"annotate it with "
                    f"'# slip-audit: twin=<id> role=fast'",
                    line=line,
                ))
        # (2) every annotation must match the registry
        for pair_id, role in own:
            pair = _PAIRS_BY_ID.get(pair_id)
            if pair is None:
                findings.append(_finding(
                    "SLIP012", info,
                    f"{info.qualname} is annotated for twin pair "
                    f"'{pair_id}' which is not in TWIN_REGISTRY",
                ))
            elif role == "fast" and pair.fast != info.qualname:
                findings.append(_finding(
                    "SLIP012", info,
                    f"{info.qualname} is annotated role=fast for "
                    f"pair '{pair_id}' but the registry names "
                    f"{pair.fast} as its fast path",
                ))
            elif role == "ref" and info.qualname not in pair.refs:
                findings.append(_finding(
                    "SLIP012", info,
                    f"{info.qualname} is annotated role=ref for "
                    f"pair '{pair_id}' but the registry's reference "
                    f"list is {list(pair.refs)}",
                ))
        # (3) registered functions must carry the annotation
        pair = _PAIRS_BY_FAST.get(info.qualname)
        if pair is not None and (pair.pair_id, "fast") not in own:
            findings.append(_finding(
                "SLIP012", info,
                f"{info.qualname} is the registered fast path of "
                f"twin pair '{pair.pair_id}' but carries no "
                f"'# slip-audit: twin={pair.pair_id} role=fast' "
                f"annotation",
            ))
        for pair_id in registered_refs.get(info.qualname, ()):
            if (pair_id, "ref") not in own:
                findings.append(_finding(
                    "SLIP012", info,
                    f"{info.qualname} is a registered reference path "
                    f"of twin pair '{pair_id}' but carries no "
                    f"'# slip-audit: twin={pair_id} role=ref' "
                    f"annotation",
                ))
    return findings


# ----------------------------------------------------------------------
# Determinism taint (SLIP013 / SLIP014)
# ----------------------------------------------------------------------
def _in_audit_scope(path: str) -> bool:
    return any(tuple(module_parts_of(path)[:len(pkg)]) == pkg
               for pkg in AUDIT_PACKAGES)


def check_taint(index: SummaryIndex) -> List[Finding]:
    findings: List[Finding] = []
    for info in index.functions:
        if not _in_audit_scope(info.path):
            continue
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

    The in-memory form is what the mutation tests use: lint a modified
    copy of the real tree without touching the working copy. SLIP999
    parse failures are always reported, regardless of ``select``.
    """
    findings: List[Finding] = []
    trees: Dict[str, ast.AST] = {}
    annotations: Dict[str, List[Tuple[int, str, str]]] = {}
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
        annotations[path] = parse_annotations(source)

    index = SummaryIndex(trees)
    raw: List[Finding] = []
    raw.extend(check_twin_pairs(index))
    raw.extend(check_gates_and_annotations(index, annotations))
    raw.extend(check_taint(index))

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


def explain_pair(pair_id: str, paths: Iterable[str]) -> str:
    """Human dump of one pair's computed write-sets (registry tuning)."""
    from .lint import discover_files, read_source

    pair = _PAIRS_BY_ID.get(pair_id)
    if pair is None:
        known = ", ".join(sorted(_PAIRS_BY_ID))
        return f"unknown pair '{pair_id}' (known: {known})"
    sources: Dict[str, str] = {}
    for file_path in discover_files(paths):
        source, failure = read_source(file_path)
        if failure is None:
            try:
                ast.parse(source, filename=file_path)
            except SyntaxError:
                continue
            sources[file_path] = source
    trees = {p: ast.parse(s, filename=p) for p, s in sources.items()}
    index = SummaryIndex(trees)
    sides = _pair_sides(index, pair)
    if sides is None:
        return f"pair '{pair_id}': fast function {pair.fast} not found"
    fast_keys, ref_keys, fast = sides
    assume_true = {g: True for g in pair.guards}
    counts = Counter(key for key, _ in
                     index.direct_counter_sites(fast, assume_true))
    ref_counts: Counter = Counter()
    for ref_name in pair.refs:
        ref = index.find(ref_name)
        if ref is not None:
            ref_counts.update(key for key, _ in
                              index.direct_counter_sites(ref))
    lines = [
        f"pair '{pair.pair_id}' (fast={pair.fast}, "
        f"refs={list(pair.refs)}, guards={list(pair.guards)})",
        f"  shared (fast & ref): "
        f"{sorted(fast_keys & ref_keys)}",
        f"  fast - ref: {sorted(fast_keys - ref_keys)}",
        f"  ref - fast: {sorted(ref_keys - fast_keys)}",
        f"  fast direct site counts: "
        f"{dict(sorted(counts.items()))}",
        f"  ref direct site counts: "
        f"{dict(sorted(ref_counts.items()))}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slip-audit",
        description=("Twin-path effect auditing and determinism taint "
                     "analysis for the SLIP reproduction (write-set "
                     "equivalence of fused fast paths, nondeterminism "
                     "flow into published stats)."),
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
    parser.add_argument("--explain-pair", default=None, metavar="PAIR",
                        help="print the computed write-sets of one "
                             "registered twin pair and exit")
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

    if args.explain_pair:
        try:
            print(explain_pair(args.explain_pair, args.paths))
        except FileNotFoundError as exc:
            print(f"slip-audit: error: no such file or directory: "
                  f"{exc}", file=sys.stderr)
            return 2
        return 0

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
