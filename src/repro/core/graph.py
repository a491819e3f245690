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

A graph is a description: :func:`repro.policy.compiler.compile_policy`
checks it (structure and Sec. 4.5 vetting) and turns it into the program
a decision core runs, which walks it and bumps the graph's counters.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ComponentGraphError
from repro.core.components import Component, Verdict
from repro.obs.metrics import declare

_PACKETS_IN = declare(
    "graph.packets_in", "counter", labels=("graph",),
    help="packets entering a component graph")
_PACKETS_DROPPED = declare(
    "graph.packets_dropped", "counter", labels=("graph",),
    help="packets leaving a component graph with a DROP verdict")

__all__ = ["ComponentGraph"]


class ComponentGraph:
    """A DAG of packet-processing components (a builder; the compiled
    program runs it)."""

    def __init__(self, name: str = "service") -> None:
        self.name = name
        self._components: dict[str, Component] = {}
        self._edges: dict[tuple[str, Verdict], str] = {}
        self._entry: Optional[str] = None
        # registry-backed tallies; ``packets_in``/``packets_dropped`` stay
        # available as attribute views below
        self._m_packets_in = _PACKETS_IN.labelled(graph=name)
        self._m_packets_dropped = _PACKETS_DROPPED.labelled(graph=name)

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
        return self

    def connect(self, src: str, dst: str, on: Verdict = Verdict.PASS) -> "ComponentGraph":
        """Route packets leaving ``src`` with verdict ``on`` into ``dst``."""
        for name in (src, dst):
            if name not in self._components:
                raise ComponentGraphError(f"unknown component {name!r}")
        self._edges[(src, on)] = dst
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentGraph({self.name!r}, components={len(self._components)})"
