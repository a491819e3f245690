"""Compile component graphs into executable policies.

:func:`compile_policy` lowers a graph to IR, runs the pass pipeline
(structure, then Sec. 4.5 vetting) and produces a :class:`CompiledPolicy`:
a scalar program over the graph's live components and counters — the
verdict walk with edge lookups precomputed into index arrays, giving
byte-identical counters and verdicts to :meth:`ComponentGraph.process`
(the interpreter stays available as the differential oracle).

Mutable component state (blacklist prefixes, token buckets, collector
dicts) is read at execution time, so runtime reconfiguration never
requires a recompile; only structural graph mutation does
(:meth:`ComponentGraph.compiled` re-lowers on version bumps).

Compiling splits into a **plan** and a **binding**.  The plan holds what
follows from the graph's structural key alone (diagnostics, edge arrays,
the signature) and is shared, through a weak process-wide cache, by every
graph of one shape; only graphs that compile without errors reach the
cache.  The binding is the :class:`CompiledPolicy`: one graph's
components and counters, so per-component state is never shared.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Optional, Sequence, TYPE_CHECKING

from repro.core.components import Component, ComponentContext, Verdict
from repro.errors import ComponentGraphError, VettingError
from repro.net.packet import Packet
from repro.policy.ir import OpKind, Policy, PolicyOp, lower_graph
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
    """What compiling derives from a graph's structural key alone: the
    diagnostics and the scalar edge arrays.  Holds no component, so every
    graph of one shape shares it."""

    __slots__ = ("key", "diagnostics", "pass_next", "drop_next", "entry",
                 "_signature", "__weakref__")

    def __init__(self, key: tuple, policy: Policy,
                 diagnostics: Sequence[Diagnostic]) -> None:
        self.key = key
        ops = policy.ops
        self.pass_next = [-1 if op.pass_to is None else op.pass_to
                          for op in ops]
        self.drop_next = [-1 if op.drop_to is None else op.drop_to
                          for op in ops]
        assert policy.entry is not None  # only valid graphs get a plan
        self.entry = policy.entry
        self._signature: Optional[str] = None
        self.diagnostics = tuple(diagnostics)

    @property
    def signature(self) -> str:
        """Deterministic sha256 over structure + per-op parameters.

        Excludes the graph name (so the same spec compiled for different
        devices signs identically) and never iterates unordered sets.
        """
        if self._signature is None:
            op_keys, entry = self.key[0], self.key[1]
            h = hashlib.sha256()
            for op_key in op_keys:
                h.update(repr(op_key).encode())
                h.update(b"\n")
            h.update(repr(("entry", entry)).encode())
            self._signature = h.hexdigest()
        return self._signature


class CompiledPolicy:
    """The compiler's output: a shared :class:`_Plan` bound to one graph's
    live components and counters."""

    __slots__ = ("graph", "policy", "diagnostics", "_plan", "_comps",
                 "_g_in", "_g_dropped")

    def __init__(self, graph: "ComponentGraph", policy: Policy,
                 plan: _Plan) -> None:
        self.graph = graph
        self.policy = policy
        self.diagnostics = plan.diagnostics
        self._plan = plan
        self._comps = [op.component for op in policy.ops]
        self._g_in = graph._m_packets_in
        self._g_dropped = graph._m_packets_dropped

    @property
    def signature(self) -> str:
        return self._plan.signature

    def process(self, packet: Packet, ctx: ComponentContext) -> Verdict:
        """Scalar execution — verdicts and counters byte-identical to
        :meth:`ComponentGraph.process` on a validated graph."""
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
            else:  # pragma: no cover - foreign verdicts exit like the walk
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


def _params_key(op: PolicyOp) -> tuple:
    comp = op.component
    if op.kind is OpKind.FILTER:
        m = comp.match
        # enum members sign by name (flags by value); any other predicate
        # value signs as itself, so it never collides with "no predicate"
        return (
            getattr(m.proto, "name", m.proto),
            m.sport, m.dport, tuple(m.dport_not_in),
            None if m.flags_any is None
            else int(getattr(m.flags_any, "value", m.flags_any)),
            (m.src_prefix.base, m.src_prefix.length) if m.src_prefix else None,
            (m.dst_prefix.base, m.dst_prefix.length) if m.dst_prefix else None,
            m.min_size, m.max_size,
            getattr(m.icmp_type, "name", m.icmp_type),
        )
    if op.kind is OpKind.BLACKLIST:
        return tuple((p.base, p.length) for p in comp.prefixes)
    if op.kind is OpKind.ANTISPOOF:
        return tuple((p.base, p.length) for p in comp.protected)
    if op.kind is OpKind.RATE_LIMIT:
        return (comp.bucket.rate, comp.bucket.burst)
    if op.kind is OpKind.LOGGER:
        return (comp.max_entries,)
    if op.kind is OpKind.HASH_FILTER:
        return tuple(sorted(d.hex() for d in comp.banned))
    if op.kind is OpKind.TRIGGER:
        return (comp.threshold_pps, comp.window_span, comp.rearm)
    return ()


def _plan_key(policy: Policy, vet: bool) -> tuple:
    """The key graphs share a plan under: the per-op tuples the signature
    hashes, the entry and ``vet``."""
    op_keys = tuple(
        (op.index, op.name, op.kind.value, type(op.component).__name__,
         _caps_key(op.component), _params_key(op), op.pass_to, op.drop_to)
        for op in policy.ops)
    return op_keys, policy.entry, vet


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


def compile_policy(graph: "ComponentGraph", vet: bool = True) -> CompiledPolicy:
    """Compile ``graph``: the one structural and Sec. 4.5 check.

    Structural errors raise :class:`ComponentGraphError` and (with
    ``vet=True``) vetting errors raise :class:`VettingError`, each carrying
    the first diagnostic's message; ``graph.validate()`` and
    ``vet_graph(graph)`` run these same passes.  ``vet=False`` is the
    runtime path (:meth:`ComponentGraph.compiled`): execution of an
    already-installed graph must never start failing vetting the
    interpreter would have tolerated.  A graph whose structural key
    matches a live plan skips the passes: the key fixes their outcome.
    """
    policy = lower_graph(graph)
    key = _plan_key(policy, vet)
    plan = _PLANS.get(key)
    if plan is None:
        diags = structural_pass(policy)
        structural_errors = [d for d in diags if d.severity is Severity.ERROR]
        if structural_errors:
            raise ComponentGraphError(structural_errors[0].message)
        if vet:
            vet_diags = vetting_pass(policy)
            vet_errors = [d for d in vet_diags if d.severity is Severity.ERROR]
            if vet_errors:
                raise VettingError(vet_errors[0].message)
            diags.extend(vet_diags)
        plan = _PLANS[key] = _Plan(key, policy, diags)
    compiled = CompiledPolicy(graph, policy, plan)
    # prime the graph's cache so execution layers (device/decision core)
    # reuse this compilation instead of re-lowering
    graph._compiled = compiled
    graph._compiled_version = graph.version
    return compiled
