"""Compile component graphs into executable policies.

:func:`compile_policy` reads a graph once, runs the structural check and
the Sec. 4.5 vetting check on what it read, and produces a
:class:`CompiledPolicy`: a scalar program over the graph's live
components and counters — the one verdict walk, with edge lookups
precomputed into index arrays.

Mutable component state (blacklist prefixes, token buckets, collector
dicts) is read at execution time, so runtime reconfiguration never
requires a recompile.  A program is fixed at compile time: the decision
core compiles each stage graph once, when it installs it, and a graph
mutated afterwards keeps running its installed program until the next
install.

Compiling splits into a **plan** and a **binding**.  The plan holds what
a successful compile derives from the graph's shape (the scalar edge
arrays) and is shared, through a weak process-wide cache, by every graph
of one shape; only graphs that compile without errors reach the cache.
The binding is the :class:`CompiledPolicy`: one graph's components and
counters, so per-component state is never shared.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional, Union

from repro.core.components import Component, ComponentContext, Verdict
from repro.core.safety import MAX_EXTRA_TRAFFIC_BPS, vet_component
from repro.errors import ComponentGraphError, VettingError
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ComponentGraph

__all__ = ["CompiledPolicy", "compile_policy", "problems"]

#: A finding, as the exception :func:`compile_policy` raises for it.
Problem = Union[ComponentGraphError, VettingError]


class _Shape:
    """One read of a graph: its live components, the PASS/DROP edge
    arrays (-1 = exit) and entry, and the edges as ``(src, dst)`` index
    pairs in ``connect()`` order, which fixes the cycle witness."""

    __slots__ = ("name", "comps", "pass_next", "drop_next", "entry", "edges")

    def __init__(self, graph: "ComponentGraph") -> None:
        self.name = graph.name
        comps = self.comps = list(graph.components())
        index_of = {c.name: i for i, c in enumerate(comps)}
        self.pass_next = [-1] * len(comps)
        self.drop_next = [-1] * len(comps)
        self.edges: list[tuple[int, int]] = []
        for (src, verdict), dst in graph.edges().items():
            s, d = index_of[src], index_of[dst]
            self.edges.append((s, d))
            (self.pass_next if verdict is Verdict.PASS else self.drop_next)[s] = d
        self.entry = -1 if graph.entry is None else index_of[graph.entry]

    def key(self) -> tuple:
        """The key graphs share a plan under: everything a successful
        compile reads.  The checks read each op's capabilities and
        PASS/DROP edges and the entry; op and graph names appear only in
        error messages, and a graph with errors never reaches the cache.
        Component parameters are not read at all: the program reads them
        from the live components as it runs."""
        return (tuple(zip(map(_caps_key, self.comps), self.pass_next,
                          self.drop_next)), self.entry)


def _caps_key(component: Component) -> tuple:
    caps = component.capabilities
    return (caps.may_drop, caps.may_shrink, tuple(sorted(caps.modifies_headers)),
            caps.max_outputs_per_input, caps.max_size_ratio,
            caps.extra_traffic_bps)


# ------------------------------------------------------------------ checks
def _structure_problem(shape: _Shape) -> Optional[ComponentGraphError]:
    """Emptiness, then cycles over the union of PASS/DROP edges, then
    components unreachable from the entry (almost certainly configuration
    bugs, so an error)."""
    if not shape.comps:
        return ComponentGraphError(f"graph {shape.name!r} is empty")
    # nodes and their successors visited in insertion order, so the cycle
    # witness is deterministic
    adjacency: list[list[int]] = [[] for _ in shape.comps]
    for src, dst in shape.edges:
        adjacency[src].append(dst)
    state = [0] * len(shape.comps)  # 0 new, 1 on the DFS path, 2 done

    def witness(node: int) -> Optional[int]:
        state[node] = 1
        for nxt in adjacency[node]:
            if state[nxt] == 1:
                return nxt
            found = witness(nxt) if state[nxt] == 0 else None
            if found is not None:
                return found
        state[node] = 2
        return None

    for node in range(len(shape.comps)):
        found = witness(node) if state[node] == 0 else None
        if found is not None:
            return ComponentGraphError(
                f"graph {shape.name!r} has a cycle through "
                f"{shape.comps[found].name!r}")
    reachable = {shape.entry}
    frontier = [shape.entry]
    while frontier:
        node = frontier.pop()
        for nxt in (shape.pass_next[node], shape.drop_next[node]):
            if nxt >= 0 and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    unreachable = sorted(c.name for i, c in enumerate(shape.comps)
                         if i not in reachable)
    if unreachable:
        return ComponentGraphError(
            f"graph {shape.name!r}: unreachable components {unreachable}")
    return None


def _problems(shape: _Shape) -> list[Problem]:
    """The structural error, or else every Sec. 4.5 vetting error."""
    structural = _structure_problem(shape)
    if structural is not None:
        return [structural]
    found: list[Problem] = []
    for component in shape.comps:
        try:
            vet_component(component)
        except VettingError as exc:
            found.append(exc)
    total_extra = sum(c.capabilities.extra_traffic_bps for c in shape.comps)
    if total_extra > 2 * MAX_EXTRA_TRAFFIC_BPS:
        found.append(VettingError(
            f"graph {shape.name!r} aggregates {total_extra:.0f} bit/s of "
            f"side-channel traffic (max {2 * MAX_EXTRA_TRAFFIC_BPS:.0f})"))
    return found


def problems(graph: "ComponentGraph") -> list[Problem]:
    """Every finding, as the exception :func:`compile_policy` would raise
    for it; never raises — for tooling (``repro policy verify``) that
    wants them all."""
    return _problems(_Shape(graph))


# -------------------------------------------------------------------- program
class _Plan:
    """What a successful compile derives from a graph's shape: the scalar
    edge arrays.  Holds no component, so every graph of one shape shares
    it."""

    __slots__ = ("pass_next", "drop_next", "entry", "__weakref__")

    def __init__(self, shape: _Shape) -> None:
        self.pass_next = shape.pass_next
        self.drop_next = shape.drop_next
        self.entry = shape.entry


class CompiledPolicy:
    """The compiler's output: a shared :class:`_Plan` bound to one graph's
    live components (``components``, in insertion order) and counters."""

    __slots__ = ("graph", "components", "_plan", "_g_in", "_g_dropped")

    def __init__(self, graph: "ComponentGraph", components: list[Component],
                 plan: _Plan) -> None:
        self.graph = graph
        self.components = components
        self._plan = plan
        self._g_in = graph._m_packets_in
        self._g_dropped = graph._m_packets_dropped

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        """Walk the graph as compiled: follow each verdict's edge from the
        entry; DROP is sticky.  Bumps the graph's counters."""
        self._g_in.value += 1
        plan = self._plan
        comps, pn, dn = self.components, plan.pass_next, plan.drop_next
        doomed = False
        i = plan.entry
        while i >= 0:
            verdict = comps[i](packet, ctx)
            if verdict is Verdict.DROP:
                doomed = True
                i = dn[i]
            elif verdict is Verdict.PASS:
                i = pn[i]
            else:  # pragma: no cover - a foreign verdict has no edge
                i = -1
        if doomed:
            self._g_dropped.value += 1
            return Verdict.DROP
        return Verdict.PASS


#: Live plans by key.  A plan lives only while some CompiledPolicy uses it.
_PLANS: "weakref.WeakValueDictionary[tuple, _Plan]" = (
    weakref.WeakValueDictionary())


def compile_policy(graph: "ComponentGraph") -> CompiledPolicy:
    """Compile ``graph``: the one structural and Sec. 4.5 check.

    Raises the first of :func:`problems` — a :class:`ComponentGraphError`
    for a structural error, else a :class:`VettingError`.  A graph whose
    plan key matches a live plan skips the checks: the key fixes their
    outcome.
    """
    shape = _Shape(graph)
    key = shape.key()
    plan = _PLANS.get(key)
    if plan is None:
        found = _problems(shape)
        if found:
            raise found[0]
        plan = _PLANS[key] = _Plan(shape)
    return CompiledPolicy(graph, shape.comps, plan)
