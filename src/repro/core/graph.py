"""Component graphs (paper Sec. 5.2).

"Services are composed of components that are arranged as directed graphs
[10, 5].  Each component performs some well defined packet processing."

A :class:`ComponentGraph` is a DAG of named components with per-verdict
edges (Click-style ports): after a component returns PASS or DROP the
packet continues along the matching edge, or exits the graph on that
verdict if no edge is defined.  A DROP is **sticky**: once any component
drops, downstream components on the drop path may still observe the packet
(e.g. log it) but can never resurrect it — a structural piece of the
Sec. 4.5 safety story.
"""

from __future__ import annotations

from typing import Iterator, Optional, TYPE_CHECKING

from repro.errors import ComponentGraphError
from repro.core.components import Component, ComponentContext, Verdict
from repro.net.packet import Packet
from repro.obs.metrics import declare

if TYPE_CHECKING:  # pragma: no cover
    from repro.policy.compiler import CompiledPolicy

_PACKETS_IN = declare(
    "graph.packets_in", "counter", labels=("graph",),
    help="packets entering a component graph")
_PACKETS_DROPPED = declare(
    "graph.packets_dropped", "counter", labels=("graph",),
    help="packets leaving a component graph with a DROP verdict")

__all__ = ["ComponentGraph"]


class ComponentGraph:
    """A validated DAG of packet-processing components."""

    def __init__(self, name: str = "service") -> None:
        self.name = name
        self._components: dict[str, Component] = {}
        self._edges: dict[tuple[str, Verdict], str] = {}
        self._entry: Optional[str] = None
        # registry-backed tallies; ``packets_in``/``packets_dropped`` stay
        # available as attribute views below
        self._m_packets_in = _PACKETS_IN.labelled(graph=name)
        self._m_packets_dropped = _PACKETS_DROPPED.labelled(graph=name)
        # structural version: bumped on every mutation so cached compiled
        # policies (repro.policy) know when to re-lower
        self._version = 0
        self._compiled: Optional["CompiledPolicy"] = None
        self._compiled_version = -1

    # ------------------------------------------------ read-only counter views
    @property
    def packets_in(self) -> int:
        return self._m_packets_in.value

    @property
    def packets_dropped(self) -> int:
        return self._m_packets_dropped.value

    # ---------------------------------------------------------------- building
    def add(self, component: Component, entry: bool = False) -> "ComponentGraph":
        """Add a component; the first added (or ``entry=True``) is the entry."""
        if component.name in self._components:
            raise ComponentGraphError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component
        if entry or self._entry is None:
            self._entry = component.name
        self._version += 1
        return self

    def connect(self, src: str, dst: str, on: Verdict = Verdict.PASS) -> "ComponentGraph":
        """Route packets leaving ``src`` with verdict ``on`` into ``dst``."""
        for name in (src, dst):
            if name not in self._components:
                raise ComponentGraphError(f"unknown component {name!r}")
        self._edges[(src, on)] = dst
        self._version += 1
        return self

    def chain(self, *components: Component) -> "ComponentGraph":
        """Convenience: add components and connect them linearly on PASS."""
        for component in components:
            self.add(component)
        names = [c.name for c in components]
        for a, b in zip(names, names[1:]):
            self.connect(a, b, Verdict.PASS)
        return self

    @property
    def entry(self) -> Optional[str]:
        return self._entry

    def component(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError as exc:
            raise ComponentGraphError(f"unknown component {name!r}") from exc

    def components(self) -> Iterator[Component]:
        return iter(self._components.values())

    def edges(self) -> dict[tuple[str, Verdict], str]:
        """Copy of the verdict-edge map, in insertion order."""
        return dict(self._edges)

    def __len__(self) -> int:
        return len(self._components)

    @property
    def version(self) -> int:
        """Structural version; bumped on every :meth:`add`/:meth:`connect`."""
        return self._version

    def compiled(self) -> "CompiledPolicy":
        """The cached compiled policy for this graph (re-lowered on mutation).

        Compiles with ``vet=False``: runtime execution of an installed graph
        must never newly fail vetting that the interpreter would have
        tolerated — install/compose paths vet explicitly.
        """
        if self._compiled is None or self._compiled_version != self._version:
            # deferred import: repro.policy lowers graphs, so importing it
            # at module scope would be circular
            from repro.policy.compiler import compile_policy

            self._compiled = compile_policy(self, vet=False)
            self._compiled_version = self._version
        return self._compiled

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise unless the graph is non-empty, acyclic, and fully wired."""
        if not self._components or self._entry is None:
            raise ComponentGraphError(f"graph {self.name!r} is empty")
        # acyclicity over the union of PASS/DROP edges, from any node
        adjacency: dict[str, list[str]] = {n: [] for n in self._components}
        for (src, _), dst in self._edges.items():
            adjacency[src].append(dst)
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for nxt in adjacency[node]:
                mark = state.get(nxt, 0)
                if mark == 1:
                    raise ComponentGraphError(
                        f"graph {self.name!r} has a cycle through {nxt!r}"
                    )
                if mark == 0:
                    visit(nxt)
            state[node] = 2

        for node in self._components:
            if state.get(node, 0) == 0:
                visit(node)
        # reachability: warn-level condition made strict — unreachable
        # components are almost certainly configuration bugs
        reachable = {self._entry}
        frontier = [self._entry]
        while frontier:
            node = frontier.pop()
            for verdict in (Verdict.PASS, Verdict.DROP):
                nxt = self._edges.get((node, verdict))
                if nxt is not None and nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        unreachable = set(self._components) - reachable
        if unreachable:
            raise ComponentGraphError(
                f"graph {self.name!r}: unreachable components {sorted(unreachable)}"
            )

    # --------------------------------------------------------------- execution
    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        """Run the packet through the graph; returns the final verdict.

        DROP is sticky: once set it cannot be reversed by later components.
        """
        if self._entry is None:
            raise ComponentGraphError(f"graph {self.name!r} is empty")
        self._m_packets_in.value += 1
        doomed = False
        node: Optional[str] = self._entry
        steps = 0
        limit = len(self._components) + 1
        while node is not None:
            if steps >= limit:  # defense in depth; validate() prevents cycles
                raise ComponentGraphError(f"graph {self.name!r} did not terminate")
            steps += 1
            verdict = self._components[node](packet, ctx)
            if verdict is Verdict.DROP:
                doomed = True
            node = self._edges.get((node, verdict))
        if doomed:
            self._m_packets_dropped.value += 1
            return Verdict.DROP
        return Verdict.PASS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentGraph({self.name!r}, components={len(self._components)})"
