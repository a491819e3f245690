"""Typed intermediate representation for component graphs.

Lowering keeps a *live* reference to each component: the IR describes the
graph's structure, while mutable component state
(blacklist prefixes, token buckets, collectors) stays on the components,
so a compiled program reads it as it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.components import Component, Verdict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ComponentGraph

__all__ = ["PolicyOp", "Policy", "lower_graph"]


@dataclass
class PolicyOp:
    """One component in IR form: live component + explicit verdict edges."""

    index: int
    name: str
    component: Component
    pass_to: Optional[int] = None
    drop_to: Optional[int] = None


@dataclass
class Policy:
    """A lowered graph: ops in insertion order plus the raw edge list.

    ``edge_list`` preserves ``connect()`` insertion order so structural
    diagnostics are deterministic (same cycle witness, same messages).
    """

    name: str
    ops: list[PolicyOp]
    entry: Optional[int]
    edge_list: list[tuple[int, Verdict, int]]

    def __len__(self) -> int:
        return len(self.ops)


def lower_graph(graph: "ComponentGraph") -> Policy:
    """Lower a component graph into IR (structure is *not* validated here —
    the structural pass reports cycles/reachability as diagnostics)."""
    index_of: dict[str, int] = {}
    ops: list[PolicyOp] = []
    for i, component in enumerate(graph.components()):
        index_of[component.name] = i
        ops.append(PolicyOp(index=i, name=component.name,
                            component=component))
    edge_list: list[tuple[int, Verdict, int]] = []
    for (src, verdict), dst in graph.edges().items():
        src_i, dst_i = index_of[src], index_of[dst]
        edge_list.append((src_i, verdict, dst_i))
        if verdict is Verdict.PASS:
            ops[src_i].pass_to = dst_i
        else:
            ops[src_i].drop_to = dst_i
    entry = index_of[graph.entry] if graph.entry is not None else None
    return Policy(name=graph.name, ops=ops, entry=entry, edge_list=edge_list)
