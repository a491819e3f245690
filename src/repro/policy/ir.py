"""Typed intermediate representation for component graphs.

Lowering keeps a *live* reference to each component: the IR describes the
graph's structure and per-op semantics, while mutable component state
(blacklist prefixes, token buckets, collectors) stays shared between the
interpreter and any compiled program, so both observe the same world.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.components import (
    Component,
    DigestStoreComponent,
    HeaderFilter,
    LoggerComponent,
    PayloadHashFilter,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    TriggerComponent,
    Verdict,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ComponentGraph

__all__ = ["OpKind", "PolicyOp", "Policy", "lower_graph", "classify"]


class OpKind(enum.Enum):
    """Semantic family of one op — part of the plan key and signature."""

    #: header-predicate drop
    FILTER = "filter"
    #: source-prefix membership drop
    BLACKLIST = "blacklist"
    #: context-aware anti-spoofing drop
    ANTISPOOF = "antispoof"
    #: token-bucket admission
    RATE_LIMIT = "rate-limit"
    #: bounded per-packet log lines
    LOGGER = "logger"
    #: payload deletion — mutates sizes
    SCRUB = "scrub"
    #: payload-digest drop
    HASH_FILTER = "hash-filter"
    #: threshold trigger — callback side effects
    TRIGGER = "trigger"
    #: packet-digest backlog
    DIGEST = "digest"
    #: anything the compiler has no model for (collectors included)
    OPAQUE = "opaque"


def classify(component: Component) -> OpKind:
    """Map a component onto its IR op kind."""
    if isinstance(component, HeaderFilter):
        return OpKind.FILTER
    if isinstance(component, PrefixBlacklist):
        return OpKind.BLACKLIST
    if isinstance(component, SourceAntiSpoof):
        return OpKind.ANTISPOOF
    if isinstance(component, RateLimiterComponent):
        return OpKind.RATE_LIMIT
    if isinstance(component, LoggerComponent):
        return OpKind.LOGGER
    if isinstance(component, TriggerComponent):
        return OpKind.TRIGGER
    if isinstance(component, PayloadScrubber):
        return OpKind.SCRUB
    if isinstance(component, PayloadHashFilter):
        return OpKind.HASH_FILTER
    if isinstance(component, DigestStoreComponent):
        return OpKind.DIGEST
    return OpKind.OPAQUE


@dataclass
class PolicyOp:
    """One component in IR form: live component + explicit verdict edges."""

    index: int
    name: str
    kind: OpKind
    component: Component
    pass_to: Optional[int] = None
    drop_to: Optional[int] = None

    @property
    def may_drop(self) -> bool:
        return self.component.capabilities.may_drop


@dataclass
class Policy:
    """A lowered graph: ops in insertion order plus the raw edge list.

    ``edge_list`` preserves ``connect()`` insertion order so structural
    diagnostics replay :meth:`ComponentGraph.validate` exactly (same cycle
    witness, same messages).
    """

    name: str
    ops: list[PolicyOp]
    entry: Optional[int]
    edge_list: list[tuple[int, Verdict, int]]

    def op(self, name: str) -> PolicyOp:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)

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
                            kind=classify(component), component=component))
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
