"""Compile component graphs into executable policies.

:func:`compile_policy` lowers a graph to IR, runs the pass pipeline
(structure, then Sec. 4.5 vetting) and produces a :class:`CompiledPolicy`:
a scalar program over the graph's live components and counters — the
one verdict walk, with edge lookups precomputed into index arrays.

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
from typing import TYPE_CHECKING

from repro.core.components import Component, ComponentContext, Verdict
from repro.errors import ComponentGraphError, VettingError
from repro.net.packet import Packet
from repro.policy.ir import Policy, lower_graph
from repro.policy.passes import (
    Diagnostic,
    Severity,
    structural_pass,
    vetting_pass,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ComponentGraph

__all__ = ["CompiledPolicy", "analyze", "compile_policy"]


class _Plan:
    """What a successful compile derives from a graph's shape: the scalar
    edge arrays.  Holds no component, so every graph of one shape shares
    it."""

    __slots__ = ("pass_next", "drop_next", "entry", "__weakref__")

    def __init__(self, policy: Policy) -> None:
        ops = policy.ops
        self.pass_next = [-1 if op.pass_to is None else op.pass_to
                          for op in ops]
        self.drop_next = [-1 if op.drop_to is None else op.drop_to
                          for op in ops]
        assert policy.entry is not None  # only valid graphs get a plan
        self.entry = policy.entry


class CompiledPolicy:
    """The compiler's output: a shared :class:`_Plan` bound to one graph's
    live components and counters."""

    __slots__ = ("graph", "policy", "_plan", "_comps", "_g_in", "_g_dropped")

    def __init__(self, graph: "ComponentGraph", policy: Policy,
                 plan: _Plan) -> None:
        self.graph = graph
        self.policy = policy
        self._plan = plan
        self._comps = [op.component for op in policy.ops]
        self._g_in = graph._m_packets_in
        self._g_dropped = graph._m_packets_dropped

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        """Walk the graph as compiled: follow each verdict's edge from the
        entry; DROP is sticky.  Bumps the graph's counters."""
        self._g_in.value += 1
        plan = self._plan
        comps, pn, dn = self._comps, plan.pass_next, plan.drop_next
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


# ------------------------------------------------------------------- plan key
def _caps_key(component: Component) -> tuple:
    caps = component.capabilities
    return (caps.may_drop, caps.may_shrink, tuple(sorted(caps.modifies_headers)),
            caps.max_outputs_per_input, caps.max_size_ratio,
            caps.extra_traffic_bps)


def _plan_key(policy: Policy) -> tuple:
    """The key graphs share a plan under: everything a successful compile
    reads.  The passes read each op's capabilities and PASS/DROP edges
    and the entry; op and graph names appear only in error messages, and
    a graph with errors never reaches the cache.  Component parameters
    are not read at all: the program reads them from the live components
    as it runs."""
    return (tuple((_caps_key(op.component), op.pass_to, op.drop_to)
                  for op in policy.ops), policy.entry)


#: Live plans by key.  A plan lives only while some CompiledPolicy uses it.
_PLANS: "weakref.WeakValueDictionary[tuple, _Plan]" = (
    weakref.WeakValueDictionary())


# ------------------------------------------------------------------- drivers
def analyze(graph: "ComponentGraph") -> tuple[Policy, list[Diagnostic]]:
    """Lower + run validation/vetting passes; never raises — for tooling
    (``repro policy verify``) that wants *all* findings."""
    policy = lower_graph(graph)
    diags = structural_pass(policy)
    if not any(d.severity is Severity.ERROR for d in diags):
        diags.extend(vetting_pass(policy))
    return policy, diags


def compile_policy(graph: "ComponentGraph") -> CompiledPolicy:
    """Compile ``graph``: the one structural and Sec. 4.5 check.

    Structural errors raise :class:`ComponentGraphError` and vetting
    errors raise :class:`VettingError`, each carrying the first
    diagnostic's message (:func:`analyze` reports them all).  A graph
    whose plan key matches a live plan skips the passes: the key fixes
    their outcome.
    """
    policy = lower_graph(graph)
    key = _plan_key(policy)
    plan = _PLANS.get(key)
    if plan is None:
        for check, error in ((structural_pass, ComponentGraphError),
                             (vetting_pass, VettingError)):
            errors = [d for d in check(policy) if d.severity is Severity.ERROR]
            if errors:
                raise error(errors[0].message)
        plan = _PLANS[key] = _Plan(policy)
    return CompiledPolicy(graph, policy, plan)
