"""Compile component graphs into executable policies.

:func:`compile_policy` lowers a graph to IR, runs the pass pipeline
(structure → Sec. 4.5 vetting → optimizations) and produces a
:class:`CompiledPolicy` with two programs over the *same* live components
and counters:

* a **scalar program** — the verdict walk with edge lookups precomputed
  into index arrays; byte-identical counters and verdicts to
  :meth:`ComponentGraph.process` (the interpreter stays available as the
  differential oracle),
* a **batch program** — row-mask partitioning over
  :class:`~repro.net.packet.PacketBatch` columns: each op receives the
  mask of rows that reach it (with per-row sticky-DROP flags), evaluates
  its drop decisions vectorized, accounts ``processed``/``dropped``
  exactly like the scalar walk, and routes rows along its PASS/DROP edges.

Mutable component state (blacklist prefixes, token buckets, collector
dicts) is read at execution time, so runtime reconfiguration never
requires a recompile; only structural graph mutation does
(:meth:`ComponentGraph.compiled` re-lowers on version bumps).

Compiling splits into a **plan** and a **binding**.  The plan holds what
follows from the graph's structural key alone (diagnostics, edge arrays,
the batch schedule as op indices, the signature) and is shared, through a
weak process-wide cache, by every graph of one shape; only graphs that
compile without errors reach the cache.  The binding is the
:class:`CompiledPolicy`: one graph's components and counters, so per-
component state is never shared.
"""

from __future__ import annotations

import enum
import hashlib
import weakref
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.components import (
    Component,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PrefixBlacklist,
    RateLimiterComponent,
    SourceAntiSpoof,
    Verdict,
)
from repro.core.components import ComponentContext
from repro.errors import ComponentGraphError, VettingError
from repro.net.packet import Packet, Protocol
from repro.policy.ir import (
    ORDER_SENSITIVE_KINDS,
    VECTORIZABLE_KINDS,
    OpKind,
    Policy,
    PolicyOp,
    lower_graph,
)
from repro.policy.passes import (
    Diagnostic,
    Severity,
    dead_op_pass,
    fuse_filter_runs,
    reorder_observer_runs,
    structural_pass,
    topo_order,
    vetting_pass,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.graph import ComponentGraph
    from repro.net.packet import PacketBatch

__all__ = ["CompiledPolicy", "analyze", "compile_policy"]


# ------------------------------------------------------------------- kernels
def _filter_vectorizable(match: HeaderMatch) -> bool:
    """All predicate fields must map onto batch columns (enum-valued)."""
    for value in (match.proto, match.flags_any, match.icmp_type):
        if value is not None and not isinstance(value, enum.Enum):
            return False
    return True


def _match_mask(match: HeaderMatch, batch: "PacketBatch",
                rows: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`HeaderMatch.matches` over ``batch[rows]``."""
    m = np.ones(len(rows), dtype=bool)
    if match.proto is not None:
        m &= batch.proto[rows] == int(match.proto.value)
    if match.sport is not None:
        m &= batch.sport[rows] == match.sport
    if match.dport is not None:
        m &= batch.dport[rows] == match.dport
    if match.dport_not_in:
        m &= ~np.isin(batch.dport[rows], list(match.dport_not_in))
    if match.flags_any is not None:
        m &= (batch.flags[rows] & int(match.flags_any.value)) != 0
    if match.src_prefix is not None:
        p = match.src_prefix
        m &= (batch.src[rows] & p.mask()) == p.base
    if match.dst_prefix is not None:
        p = match.dst_prefix
        m &= (batch.dst[rows] & p.mask()) == p.base
    if match.min_size is not None:
        m &= batch.size[rows] >= match.min_size
    if match.max_size is not None:
        m &= batch.size[rows] <= match.max_size
    if match.icmp_type is not None:
        m &= batch.icmp[rows] == int(match.icmp_type.value)
    return m


def _prefix_mask(prefixes: Iterable, src: np.ndarray) -> np.ndarray:
    m = np.zeros(len(src), dtype=bool)
    for p in prefixes:
        m |= (src & p.mask()) == p.base
    return m


class _BatchStep:
    """One schedule entry: a component run plus its outgoing routing.

    ``members`` execute in schedule order over the step's incoming row
    mask; ``drop_decisions`` returns the mask of rows leaving with a DROP
    verdict (``None`` when no member can drop).  Fused/merged runs always
    have unwired internal DROP edges, so ``drop_to`` only applies to
    single-member steps.
    """

    __slots__ = ("members", "pass_to", "drop_to")

    def __init__(self, members: Sequence[PolicyOp], pass_to: Optional[int],
                 drop_to: Optional[int]) -> None:
        self.members = list(members)
        self.pass_to = pass_to
        self.drop_to = drop_to

    def drop_decisions(self, batch: "PacketBatch", rows: np.ndarray,
                       m: np.ndarray,
                       ctx: ComponentContext) -> Optional[np.ndarray]:
        alive = m
        dropped_any = False
        for op in self.members:
            comp = op.component
            n_here = int(alive.sum())
            comp._m_processed.value += n_here
            kind = op.kind
            if kind is OpKind.FILTER:
                d = _match_mask(comp.match, batch, rows) & alive
            elif kind is OpKind.BLACKLIST:
                d = _prefix_mask(comp.prefixes, batch.src[rows]) & alive
            elif kind is OpKind.ANTISPOOF:
                if ctx.is_transit or not ctx.local_origin:
                    d = np.zeros(len(rows), dtype=bool)
                else:
                    foreign = [p for p in comp.protected
                               if not ctx.local_prefix.overlaps(p)]
                    d = _prefix_mask(foreign, batch.src[rows]) & alive
            elif kind is OpKind.RATE_LIMIT:
                d = np.zeros(len(rows), dtype=bool)
                bucket = comp.bucket
                sizes = batch.size[rows]
                for i in np.flatnonzero(alive):
                    if not bucket.admit(ctx.now, cost=int(sizes[i])):
                        d[i] = True
            elif kind is OpKind.LOGGER:
                entries = comp.entries
                if len(entries) < comp.max_entries:
                    srcs = batch.src[rows]
                    dsts = batch.dst[rows]
                    protos = batch.proto[rows]
                    for i in np.flatnonzero(alive):
                        if len(entries) >= comp.max_entries:
                            break
                        entries.append((ctx.now, ctx.asn,
                                        Protocol(int(protos[i])).name,
                                        int(srcs[i]), int(dsts[i])))
                continue  # pure observer: no drops
            else:  # OBSERVER_BATCH
                if n_here:
                    comp.process_batch(batch, rows[alive], ctx)
                continue
            n_drop = int(d.sum())
            if n_drop:
                comp._m_dropped.value += n_drop
                alive = alive & ~d
                dropped_any = True
        if not dropped_any:
            return None
        return m & ~alive


class _Plan:
    """What compiling derives from a graph's structural key alone: the
    diagnostics, the scalar edge arrays and the batch schedule in op-index
    form.  Holds no component, so every graph of one shape shares it."""

    __slots__ = ("key", "diagnostics", "pass_next", "drop_next", "entry",
                 "order_sensitive", "batch_unsupported", "steps", "slot_of",
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
        self.order_sensitive = False
        self.batch_unsupported: Optional[str] = None
        #: ``(member op indices, pass_to, drop_to)`` per batch step
        self.steps: Optional[list[tuple[list[int], Optional[int],
                                        Optional[int]]]] = None
        self.slot_of: dict[int, int] = {}
        self._signature: Optional[str] = None
        self.diagnostics = tuple(diagnostics) + tuple(self._plan_batch(policy))

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

    def _plan_batch(self, policy: Policy) -> list[Diagnostic]:
        live, diags = dead_op_pass(policy)
        self.order_sensitive = any(
            policy.ops[i].kind in ORDER_SENSITIVE_KINDS for i in live)
        unsupported = sorted(
            policy.ops[i].name for i in live
            if policy.ops[i].kind not in VECTORIZABLE_KINDS
            or (policy.ops[i].kind is OpKind.FILTER
                and not _filter_vectorizable(policy.ops[i].component.match)))
        if unsupported:
            self.batch_unsupported = (
                f"op(s) without a batch kernel: {', '.join(unsupported)}")
            diags.append(Diagnostic(
                Severity.INFO, "batch.unsupported",
                self.batch_unsupported, tuple(unsupported)))
            return diags
        order = topo_order(policy, live)
        groups, fuse_diags = fuse_filter_runs(policy, order, live)
        diags.extend(fuse_diags)
        runs, reorder_diags = reorder_observer_runs(policy, groups, live)
        diags.extend(reorder_diags)
        steps: list[tuple[list[int], Optional[int], Optional[int]]] = []
        for exec_order, tail in runs:
            head = policy.ops[tail]
            drop_to = head.drop_to if len(exec_order) == 1 else None
            if drop_to is not None and drop_to not in live:
                drop_to = None  # infeasible edge: target is dead
            for i in exec_order:
                self.slot_of[i] = len(steps)
            steps.append((exec_order, head.pass_to, drop_to))
        self.steps = steps
        return diags


class CompiledPolicy:
    """The compiler's output: a shared :class:`_Plan` bound to one graph's
    live components and counters, with a scalar and a batch program."""

    __slots__ = ("graph", "policy", "diagnostics", "order_sensitive",
                 "batch_unsupported", "_plan", "_comps", "_steps", "_g_in",
                 "_g_dropped", "_component_ids")

    def __init__(self, graph: "ComponentGraph", policy: Policy,
                 plan: _Plan) -> None:
        self.graph = graph
        self.policy = policy
        self.diagnostics = plan.diagnostics
        self.order_sensitive = plan.order_sensitive
        self.batch_unsupported = plan.batch_unsupported
        self._plan = plan
        self._comps = [op.component for op in policy.ops]
        self._g_in = graph._m_packets_in
        self._g_dropped = graph._m_packets_dropped
        self._component_ids = frozenset(id(c) for c in self._comps)
        # bound to this graph's components on the first run_batch
        self._steps: Optional[list[_BatchStep]] = None

    # ------------------------------------------------------------ properties
    @property
    def signature(self) -> str:
        return self._plan.signature

    @property
    def batch_supported(self) -> bool:
        return self._plan.steps is not None

    def shares_state_with(self, other: "CompiledPolicy") -> bool:
        """True when the two policies execute any common component object —
        batching one before the other would reorder that component's view
        of the packet stream."""
        return bool(self._component_ids & other._component_ids)

    # -------------------------------------------------------- scalar program
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

    # --------------------------------------------------------- batch program
    def run_batch(self, batch: "PacketBatch", rows: np.ndarray,
                  ctx: ComponentContext) -> np.ndarray:
        """Vectorized execution of ``batch[rows]``; returns the boolean
        keep-mask over ``rows`` (True = final verdict PASS).

        Counter totals (graph, per-component) match running the scalar
        walk over the same rows in ascending order.
        """
        steps = self._steps
        plan = self._plan
        if steps is None:
            if plan.steps is None:
                raise ComponentGraphError(
                    f"graph {self.policy.name!r} has no batch program "
                    f"({plan.batch_unsupported})")
            ops = self.policy.ops
            steps = self._steps = [
                _BatchStep([ops[i] for i in members], pass_to, drop_to)
                for members, pass_to, drop_to in plan.steps]
        slot_of = plan.slot_of
        n = len(rows)
        self._g_in.value += n
        n_slots = len(steps)
        reach: list[Optional[np.ndarray]] = [None] * n_slots
        doom: list[Optional[np.ndarray]] = [None] * n_slots
        alive_out = np.zeros(n, dtype=bool)

        def route(target: Optional[int], mask: np.ndarray,
                  doomed: np.ndarray) -> None:
            nonlocal alive_out
            if not mask.any():
                return
            if target is None:
                alive_out |= mask & ~doomed
                return
            slot = slot_of[target]
            if reach[slot] is None:
                reach[slot] = mask.copy()
                doom[slot] = doomed & mask
            else:
                reach[slot] |= mask
                doom[slot] |= doomed & mask

        entry_slot = slot_of[plan.entry]
        reach[entry_slot] = np.ones(n, dtype=bool)
        doom[entry_slot] = np.zeros(n, dtype=bool)
        for slot, step in enumerate(steps):
            m = reach[slot]
            if m is None or not m.any():
                continue
            doomed_in = doom[slot]
            assert doomed_in is not None
            d = step.drop_decisions(batch, rows, m, ctx)
            if d is None:
                route(step.pass_to, m, doomed_in)
            else:
                route(step.pass_to, m & ~d, doomed_in)
                route(step.drop_to, d, np.ones(n, dtype=bool))
        self._g_dropped.value += n - int(alive_out.sum())
        return alive_out


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
        return (
            m.proto.name if m.proto is not None else None,
            m.sport, m.dport, tuple(m.dport_not_in),
            int(m.flags_any.value) if isinstance(m.flags_any, enum.Enum) else None,
            (m.src_prefix.base, m.src_prefix.length) if m.src_prefix else None,
            (m.dst_prefix.base, m.dst_prefix.length) if m.dst_prefix else None,
            m.min_size, m.max_size,
            getattr(m.icmp_type, "name", None) if m.icmp_type is not None else None,
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
    hashes, the entry, ``vet``, and which filters have a batch kernel
    (``_params_key`` maps a non-enum predicate value to ``None``)."""
    ops = policy.ops
    op_keys = tuple(
        (op.index, op.name, op.kind.value, type(op.component).__name__,
         _caps_key(op.component), _params_key(op), op.pass_to, op.drop_to)
        for op in ops)
    kernels = tuple(_filter_vectorizable(op.component.match)
                    for op in ops if op.kind is OpKind.FILTER)
    return op_keys, policy.entry, vet, kernels


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
