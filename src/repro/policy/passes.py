"""Compiler passes: structural validation and Sec. 4.5 vetting.

Every pass returns structured :class:`Diagnostic` records instead of
raising, so ``repro policy verify`` can show *all* problems at once; the
compiler turns the first ``error`` into the exception.

These are the only implementations of the checks, and
:func:`~repro.policy.compiler.compile_policy` is their one raising
driver: a graph is rejected with the first error's message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS, vet_component
from repro.errors import VettingError
from repro.policy.ir import Policy

__all__ = [
    "Severity",
    "Diagnostic",
    "structural_pass",
    "vetting_pass",
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
    """Cycles + reachability (``ComponentGraphError`` in ``compile_policy``)."""
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
    """Sec. 4.5 static vetting as diagnostics (``VettingError`` in
    ``compile_policy``)."""
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
