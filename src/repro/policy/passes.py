"""Compiler passes: structural validation, Sec. 4.5 vetting, optimizations.

Every pass returns structured :class:`Diagnostic` records instead of
raising, so ``repro policy verify`` can show *all* problems at once; the
compiler turns the first ``error`` into the exception.

These are the only implementations of the checks:
:meth:`ComponentGraph.validate` raises the structural pass's first error
and :func:`~repro.core.safety.vet_graph` is the compiler with vetting on,
so a graph is rejected identically whichever entry point checks it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.components import Verdict
from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS, vet_component
from repro.errors import VettingError
from repro.policy.ir import OpKind, Policy

__all__ = [
    "Severity",
    "Diagnostic",
    "structural_pass",
    "vetting_pass",
    "dead_op_pass",
    "topo_order",
    "fuse_filter_runs",
    "reorder_observer_runs",
]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding from a compiler pass."""

    severity: Severity
    code: str
    message: str
    ops: tuple[str, ...] = field(default=())

    def __str__(self) -> str:  # pragma: no cover - display helper
        where = f" [{', '.join(self.ops)}]" if self.ops else ""
        return f"{self.severity.value}: {self.code}: {self.message}{where}"


# ------------------------------------------------------------------ structure
def structural_pass(policy: Policy) -> list[Diagnostic]:
    """Cycles + reachability (what ``ComponentGraph.validate()`` raises)."""
    if not policy.ops or policy.entry is None:
        return [Diagnostic(Severity.ERROR, "structure.empty",
                           f"graph {policy.name!r} is empty")]
    # acyclicity over the union of PASS/DROP edges, from any node —
    # adjacency built in edge insertion order, nodes visited in insertion
    # order, so the cycle witness is deterministic
    adjacency: dict[int, list[int]] = {op.index: [] for op in policy.ops}
    for src, _verdict, dst in policy.edge_list:
        adjacency[src].append(dst)
    state: dict[int, int] = {}
    cycle_witness: Optional[int] = None

    def visit(node: int) -> bool:
        nonlocal cycle_witness
        state[node] = 1
        for nxt in adjacency[node]:
            mark = state.get(nxt, 0)
            if mark == 1:
                cycle_witness = nxt
                return True
            if mark == 0 and visit(nxt):
                return True
        state[node] = 2
        return False

    for op in policy.ops:
        if state.get(op.index, 0) == 0 and visit(op.index):
            name = policy.ops[cycle_witness].name  # type: ignore[index]
            return [Diagnostic(
                Severity.ERROR, "structure.cycle",
                f"graph {policy.name!r} has a cycle through {name!r}",
                (name,))]
    # unreachable components are almost certainly configuration bugs, so
    # they are an error rather than a warning
    reachable = {policy.entry}
    frontier = [policy.entry]
    while frontier:
        node = frontier.pop()
        op = policy.ops[node]
        for nxt in (op.pass_to, op.drop_to):
            if nxt is not None and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    unreachable = sorted(
        op.name for op in policy.ops if op.index not in reachable)
    if unreachable:
        return [Diagnostic(
            Severity.ERROR, "structure.unreachable",
            f"graph {policy.name!r}: unreachable components {unreachable}",
            tuple(unreachable))]
    return []


# -------------------------------------------------------------------- vetting
def vetting_pass(policy: Policy) -> list[Diagnostic]:
    """Sec. 4.5 static vetting as diagnostics (what ``vet_graph`` raises)."""
    diags: list[Diagnostic] = []
    for op in policy.ops:
        try:
            vet_component(op.component)
        except VettingError as exc:
            diags.append(Diagnostic(Severity.ERROR, "vet.component",
                                    str(exc), (op.name,)))
    total_extra = sum(
        op.component.capabilities.extra_traffic_bps for op in policy.ops)
    if total_extra > 2 * MAX_EXTRA_TRAFFIC_BPS:
        diags.append(Diagnostic(
            Severity.ERROR, "vet.aggregate",
            f"graph {policy.name!r} aggregates {total_extra:.0f} bit/s of "
            f"side-channel traffic (max {2 * MAX_EXTRA_TRAFFIC_BPS:.0f})"))
    return diags


# -------------------------------------------------------------- optimizations
def _feasible_successors(policy: Policy, index: int) -> list[int]:
    """Successors a packet can actually reach: a DROP edge out of an op
    whose component declares ``may_drop=False`` can never fire."""
    op = policy.ops[index]
    out = []
    if op.pass_to is not None:
        out.append(op.pass_to)
    if op.drop_to is not None and op.may_drop:
        out.append(op.drop_to)
    return out


def dead_op_pass(policy: Policy) -> tuple[set[int], list[Diagnostic]]:
    """Ops only reachable through infeasible edges are dead: no packet can
    ever arrive, so the batch program skips them entirely."""
    assert policy.entry is not None
    live = {policy.entry}
    frontier = [policy.entry]
    while frontier:
        node = frontier.pop()
        for nxt in _feasible_successors(policy, node):
            if nxt not in live:
                live.add(nxt)
                frontier.append(nxt)
    dead = sorted(op.name for op in policy.ops if op.index not in live)
    diags = []
    if dead:
        diags.append(Diagnostic(
            Severity.INFO, "opt.dead",
            f"removed {len(dead)} op(s) reachable only via infeasible "
            f"DROP edges", tuple(dead)))
    return live, diags


def topo_order(policy: Policy, live: set[int]) -> list[int]:
    """Deterministic topological order of the live ops over feasible edges
    (lowest insertion index first among ready ops)."""
    indegree = {i: 0 for i in live}
    for i in live:
        for nxt in _feasible_successors(policy, i):
            if nxt in live:
                indegree[nxt] += 1
    ready = sorted(i for i, d in indegree.items() if d == 0)
    order: list[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in _feasible_successors(policy, node):
            if nxt in live:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    # keep ready sorted: insert in index order
                    ready.append(nxt)
                    ready.sort()
    return order


def _in_degree(policy: Policy, live: set[int]) -> dict[int, int]:
    indeg = {i: 0 for i in live}
    for i in live:
        for nxt in _feasible_successors(policy, i):
            if nxt in live:
                indeg[nxt] += 1
    return indeg


def fuse_filter_runs(policy: Policy, order: list[int],
                     live: set[int]) -> tuple[list[list[int]], list[Diagnostic]]:
    """Group maximal PASS-chains of HeaderFilters with unwired DROP edges.

    Members after the first must have in-degree 1 (rows can only arrive
    from the previous member), so the fused step evaluates all predicates
    over one row set with per-member counter accounting.
    """
    indeg = _in_degree(policy, live)
    groups: list[list[int]] = []
    consumed: set[int] = set()
    diags: list[Diagnostic] = []

    def fusable(i: int) -> bool:
        op = policy.ops[i]
        return op.kind is OpKind.FILTER and op.drop_to is None

    for i in order:
        if i in consumed:
            continue
        group = [i]
        if fusable(i):
            nxt = policy.ops[i].pass_to
            while (nxt is not None and nxt in live and nxt not in consumed
                   and fusable(nxt) and indeg[nxt] == 1):
                group.append(nxt)
                nxt = policy.ops[nxt].pass_to
        consumed.update(group)
        groups.append(group)
        if len(group) > 1:
            diags.append(Diagnostic(
                Severity.INFO, "opt.fuse",
                f"fused {len(group)} adjacent header filters into one "
                f"batch step",
                tuple(policy.ops[j].name for j in group)))
    return groups, diags


_PURE_OBSERVER_KINDS = frozenset({OpKind.OBSERVER_BATCH, OpKind.LOGGER})


def reorder_observer_runs(
        policy: Policy, groups: list[list[int]],
        live: set[int]) -> tuple[list[tuple[list[int], int]], list[Diagnostic]]:
    """Merge PASS-chains of pure observers into one step and sink scalar
    loggers behind vectorized observers.

    Pure observers never drop and never mutate, so every member of such a
    run sees the identical row set — any execution order yields identical
    state, and putting ``process_batch`` observers first keeps the
    vectorized updates together.  The scalar program is left untouched
    (source order); only the batch schedule is reordered.

    Returns ``(exec_order, tail)`` runs: ``tail`` is the *original* chain
    tail, whose PASS edge routes rows out of the run.
    """
    indeg = _in_degree(policy, live)
    diags: list[Diagnostic] = []
    out: list[tuple[list[int], int]] = []
    consumed: set[int] = set()

    def observer(i: int) -> bool:
        return policy.ops[i].kind in _PURE_OBSERVER_KINDS

    for group in groups:
        if group[0] in consumed:
            continue
        if len(group) == 1 and observer(group[0]):
            run = [group[0]]
            nxt = policy.ops[group[0]].pass_to
            while (nxt is not None and nxt in live and nxt not in consumed
                   and observer(nxt) and indeg[nxt] == 1):
                run.append(nxt)
                nxt = policy.ops[nxt].pass_to
            consumed.update(run)
            scheduled = sorted(
                run, key=lambda i: policy.ops[i].kind is not OpKind.OBSERVER_BATCH)
            if scheduled != run:
                diags.append(Diagnostic(
                    Severity.INFO, "opt.reorder",
                    "sank scalar observers behind vectorized observers in "
                    "an equal-row-set run",
                    tuple(policy.ops[j].name for j in scheduled)))
            out.append((scheduled, run[-1]))
        else:
            consumed.update(group)
            out.append((group, group[-1]))
    return out, diags
