"""Per-layer attribution for traced runs.

:class:`Tracer` wraps the entry points listed in :data:`ENTRY_POINTS`
(one table per layer, named after the modules) for the duration of a
``with`` block and restores the originals afterwards.  Each wrapper keeps
count, total and self time per entry point — self time is the wrapper's
duration minus that of wrapped callees, kept on a per-thread stack — and
counts caller-layer -> callee-layer calls.  Everything is aggregated in
memory; no per-call spans are kept, since one full-scale E2 pass makes
millions of wrapped calls.

Callables handed to the simulator, to router filters and to host
responders are wrapped where they are registered and charged to the
layer of the module that defined them (:data:`MODULE_LAYERS`), so the
simulator's own self time is only its event loop.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable, Optional

LAYERS = ("sim", "link", "router", "lpm", "attack", "mitigation", "device",
          "decision", "policy", "flowstats", "fluid", "control", "scenario",
          "experiment", "service", "gen")
#: Time outside every wrapped call (the benchmark's own bookkeeping and
#: anything an unlisted caller does before reaching a listed one).
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)

#: layer -> entry points as ``module:qualname``.  Every entry must be hit
#: by at least one workload (``repeat.py`` checks).
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.net.simulator:Simulator.run",
        "repro.net.simulator:Simulator.schedule",
        "repro.net.simulator:Simulator.schedule_at",
        "repro.net.simulator:Simulator.schedule_every",
        "repro.net.simulator:Simulator.schedule_batch",
    ),
    "link": (
        "repro.net.link:Link.send",
        "repro.net.link:Link.transmit_batch",
    ),
    "router": (
        "repro.net.node:Router.receive",
        "repro.net.node:Router.forward",
        "repro.net.node:Router.receive_batch",
        "repro.net.node:Router.forward_batch",
        "repro.net.node:Router.add_filter",
        "repro.net.node:Host.receive",
        "repro.net.node:Host.send",
        "repro.net.node:Host.receive_batch",
        "repro.net.node:Host.send_batch",
        "repro.net.node:Host.add_responder",
        "repro.net.routing:build_routing",
    ),
    "lpm": (
        "repro.net.addressing:PrefixTable.lookup",
        "repro.net.topology:Topology.as_of",
        "repro.net.topology:Topology.as_of_many",
        "repro.core.ownership:OwnershipRegistry.owner_of",
    ),
    "attack": (
        "repro.attack.flood:TrafficGenerator._emit",
        "repro.attack.flood:TrafficGenerator.install",
        "repro.attack.flood:DirectFlood.launch",
        "repro.attack.reflector:ReflectorAttack.launch",
        "repro.attack.protocol_misuse:ProtocolMisuseAttack.launch",
        "repro.attack.protocol_misuse:ConnectionPool.on_packet",
        "repro.attack.campaign:Campaign.launch",
        "repro.attack.campaign:TimelineSampler._sample",
        "repro.attack.scenarios:AttackScenario.launch",
        "repro.attack.scenarios:AttackScenario.launch_legit",
    ),
    "mitigation": (
        "repro.mitigation.pushback:Pushback.deploy",
        "repro.mitigation.pushback:Pushback._check",
        "repro.mitigation.traceback:SpieTraceback.deploy",
        "repro.mitigation.traceback:SpieTraceback._store",
        "repro.mitigation.traceback:SpieTraceback.trace",
        "repro.mitigation.traceback:PPMTraceback.deploy",
        "repro.mitigation.traceback:PPMTraceback.reconstruct",
        "repro.mitigation.traceback:MarkingCollector.on_packet",
        "repro.mitigation.traceback:TracebackFilter.deploy",
        "repro.mitigation.ingress:IngressFiltering.deploy",
        "repro.mitigation.ingress:RouteBasedFiltering.deploy",
        "repro.mitigation.lasthop:LastHopFilter.deploy",
        "repro.mitigation.lasthop:LastHopFilter._observe",
        "repro.mitigation.overlay:SecureOverlay.deploy",
        "repro.mitigation.i3defense:I3Defense.deploy",
    ),
    "device": (
        "repro.core.device:AdaptiveDevice.wants",
        "repro.core.device:AdaptiveDevice.process",
        "repro.core.device:AdaptiveDevice.install",
        "repro.core.device:AdaptiveDevice.set_active",
        "repro.core.device:AdaptiveDevice.crash",
        "repro.core.device:AdaptiveDevice.restart",
        "repro.core.device:attach_device",
    ),
    "decision": (
        "repro.service.core:DecisionCore.flow_entry",
        "repro.service.core:DecisionCore.flow_miss",
        "repro.service.core:DecisionCore.wants",
        "repro.service.core:DecisionCore.process",
        "repro.service.core:DecisionCore.run_stages",
        "repro.service.core:DecisionCore.install",
        "repro.service.core:DecisionCore.invalidate",
    ),
    "policy": (
        "repro.policy.compiler:compile_policy",
        "repro.policy.compiler:CompiledPolicy.process",
    ),
    "flowstats": (
        "repro.core.flowstats:ExactFlowStats.add_batch",
        "repro.core.flowstats:ExactFlowStats.top",
        "repro.core.flowstats:SketchFlowStats.add_batch",
        "repro.core.flowstats:SketchFlowStats.top",
        "repro.core.flowstats:BloomFlowStats.add_batch",
        "repro.core.components:TriggerComponent.process",
        "repro.util.sketch:SpaceSaving.update",
    ),
    "fluid": (
        "repro.net.fluid:FluidNetwork.evaluate",
        "repro.net.fluid:FluidNetwork.path",
        "repro.net.fluid:FluidNetwork.expected_ingress",
        "repro.net.fluid:flood_flows",
        # the reflector attack's fluid model lives with the attack code but
        # is fluid-engine work
        "repro.attack.reflector:ReflectorFluidModel.evaluate",
    ),
    "control": (
        "repro.core.tcsp:Tcsp.register_user",
        "repro.core.tcsp:Tcsp.deploy_service",
        "repro.core.tcsp:Tcsp.contract_isp",
        "repro.core.tcsp:Tcsp.set_active",
        "repro.core.tcsp:Tcsp.resync",
        "repro.core.tcsp:Tcsp.read_logs",
        "repro.core.tcsp:TcspReplicaSet.register_user",
        "repro.core.tcsp:TcspReplicaSet.deploy_service",
        "repro.core.tcsp:TcspReplicaSet.contract_isp",
        "repro.core.tcsp:TcspReplicaSet.set_active",
        "repro.core.nms:IspNms.deploy",
        "repro.core.nms:IspNms.deploy_direct",
        "repro.core.nms:IspNms.set_active",
        "repro.core.nms:IspNms.read_logs",
        "repro.core.nms:IspNms.attach_devices",
        "repro.core.nms:IspNms.reconcile_all",
        "repro.core.nms:IspNms._heartbeat",
        "repro.core.rpc:ControlChannel.call",
        "repro.core.storage:InMemoryBackend.put",
        "repro.core.storage:InMemoryBackend.get",
        "repro.core.storage:ReplicatedBackend.put",
        "repro.core.storage:ReplicatedBackend.get",
        "repro.core.storage:ReplicatedBackend.anti_entropy",
        "repro.core.inband:InbandControlPlane.request",
        "repro.core.inband:InbandControlPlane._serve",
    ),
    "scenario": (
        "repro.scenario.build:build",
        "repro.scenario.engine:PacketEngine.run_built",
        "repro.scenario.defenses:deploy",
        "repro.scenario.metrics:MetricSink.from_packet",
        "repro.scenario.tcs:build_tcs_world",
        "repro.scenario.devices:build_device",
    ),
    "service": (
        "repro.service.facade:ServiceFacade.check",
        "repro.service.facade:ServiceFacade.subscribe",
        "repro.service.facade:ServiceFacade.swap_policy",
    ),
    "gen": (
        "bench_service:Generator.run",
    ),
}

#: Shared utilities: wrapped, but charged to whichever layer called them
#: (a link's arrival window is link work, a trigger's window is
#: flow-statistics work).
SHARED = (
    "repro.util.stats:WindowedCounter.add",
    "repro.util.stats:WindowedCounter.rate",
    "repro.util.stats:WindowedCounter.total",
)

#: Registration points: the positional index of the callable they take.
CALLBACK_ARGS = {
    "repro.net.simulator:Simulator.schedule_at": 2,
    "repro.net.simulator:Simulator.schedule_every": 2,
    "repro.net.node:Router.add_filter": 2,
    "repro.net.node:Host.add_responder": 1,
}

#: Module prefix -> layer for registered callables (longest prefix wins).
MODULE_LAYERS = {
    "repro.net.simulator": "sim",
    "repro.net.link": "link",
    "repro.net.node": "router",
    "repro.net.network": "router",
    "repro.net.fluid": "fluid",
    "repro.net.faults": "scenario",
    "repro.attack": "attack",
    "repro.mitigation": "mitigation",
    "repro.core.device": "device",
    "repro.core.apps": "device",
    "repro.core.tcsp": "control",
    "repro.core.nms": "control",
    "repro.core.rpc": "control",
    "repro.core.storage": "control",
    "repro.core.inband": "control",
    "repro.service.core": "decision",
    "repro.service.facade": "service",
    "repro.policy": "policy",
    "repro.scenario": "scenario",
    "repro.experiments": "experiment",
}


def _count_link(counters: dict, args: tuple, result: Any) -> None:
    counters["link.packets"] += 1
    counters["link.drops"] += result is False


def _count_link_batch(counters: dict, args: tuple, result: Any) -> None:
    counters["link.packets"] += len(args[1])
    counters["link.drops"] += 0 if result is None else len(result)


def _count_events(counters: dict, args: tuple, result: Any) -> None:
    counters["sim.events"] += result


#: Entry points whose arguments or result feed a count.
OBSERVERS: dict[str, Callable[[dict, tuple, Any], None]] = {
    "repro.net.link:Link.send": _count_link,
    "repro.net.link:Link.transmit_batch": _count_link_batch,
    "repro.net.simulator:Simulator.run": _count_events,
}


def layer_of_module(module: str) -> str:
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else OTHER


class _Stacks(threading.local):
    """Per-thread call stack of ``[layer index, wrapped-callee ns]``."""

    def __init__(self, root: int) -> None:
        self.stack = [[root, 0]]


def _resolve(entry: str) -> tuple[Any, str, Any]:
    """``module:Class.attr`` or ``module:func`` -> (owner, attr, raw)."""
    module_name, _, qualname = entry.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr)
    if raw is None:
        raise LookupError(f"trace entry point {entry} not found")
    return owner, attr, raw


class Tracer:
    """Install with ``with Tracer() as tracer:``; read :meth:`report`."""

    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(ALL_LAYERS)}
        self._stacks = _Stacks(self.index[OTHER])
        width = len(ALL_LAYERS)
        self.edges = [0] * (width * width)
        #: entry name -> per-layer [calls, total ns, self ns]
        self.stats: dict[str, list[list[int]]] = {}
        self.counters: dict[str, int] = {"sim.events": 0, "link.packets": 0,
                                         "link.drops": 0}
        self._patches: list[tuple[Any, str, Any]] = []
        self._wrappers: set = set()
        self.wall_ns = 0
        self._t0 = 0

    # ------------------------------------------------------------ wrappers
    def _cells(self, name: str) -> list[list[int]]:
        cells = self.stats.get(name)
        if cells is None:
            cells = self.stats[name] = [[0, 0, 0] for _ in ALL_LAYERS]
        return cells

    def wrap(self, fn: Callable, layer: Optional[str], name: str, *,
             callback_arg: Optional[int] = None,
             observe: Optional[Callable] = None) -> Callable:
        """A counting wrapper around ``fn``, charged to ``layer`` (None:
        to the calling layer)."""
        cells = self._cells(name)
        fixed = None if layer is None else self.index[layer]
        stacks, edges, width = self._stacks, self.edges, len(ALL_LAYERS)
        counters, attribute = self.counters, self._attribute
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if callback_arg is not None and len(args) > callback_arg:
                args = (args[:callback_arg] + (attribute(args[callback_arg]),)
                        + args[callback_arg + 1:])
            stack = stacks.stack
            parent = stack[-1]
            lid = parent[0] if fixed is None else fixed
            edges[parent[0] * width + lid] += 1
            frame = [lid, 0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                cell = cells[lid]
                cell[0] += 1
                cell[1] += dt
                cell[2] += dt - frame[1]
            if observe is not None:
                observe(counters, args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _attribute(self, fn: Any) -> Any:
        """Wrap a registered callable unless it already is an entry point."""
        func = getattr(fn, "__func__", fn)
        if func in self._wrappers or not callable(fn):
            return fn
        module = getattr(func, "__module__", None) or ""
        qualname = getattr(func, "__qualname__", type(fn).__qualname__)
        return self.wrap(fn, layer_of_module(module),
                         f"callback {module}:{qualname}")

    # ------------------------------------------------------------- install
    def _patch(self, owner: Any, attr: str, raw: Any, new: Any) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _install_entry(self, entry: str, layer: Optional[str]) -> None:
        owner, attr, raw = _resolve(entry)
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        wrapper = self.wrap(func, layer, entry,
                            callback_arg=CALLBACK_ARGS.get(entry),
                            observe=OBSERVERS.get(entry))
        self._wrappers.add(wrapper)
        if isinstance(raw, (staticmethod, classmethod)):
            self._patch(owner, attr, raw, type(raw)(wrapper))
            return
        self._patch(owner, attr, raw, wrapper)
        if isinstance(owner, type):
            return
        # a module function is also bound by name wherever it was imported
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, raw, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, entries in ENTRY_POINTS.items():
                for entry in entries:
                    self._install_entry(entry, layer)
            for entry in SHARED:
                self._install_entry(entry, None)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_ns += time.perf_counter_ns() - self._t0
        self.uninstall()

    # -------------------------------------------------------------- report
    def entry_totals(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of one entry over all layers."""
        cells = self.stats.get(name, ())
        return (sum(c[0] for c in cells), sum(c[1] for c in cells),
                sum(c[2] for c in cells))

    def unhit(self) -> list[str]:
        """Listed entry points this run never called."""
        listed = [e for entries in ENTRY_POINTS.values() for e in entries]
        return [e for e in listed + list(SHARED) if self.entry_totals(e)[0] == 0]

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls and self ns; ``other`` gets the unwrapped rest."""
        out = {name: {"calls": 0, "self_ns": 0} for name in ALL_LAYERS}
        for cells in self.stats.values():
            for lid, (calls, _total, self_ns) in enumerate(cells):
                out[ALL_LAYERS[lid]]["calls"] += calls
                out[ALL_LAYERS[lid]]["self_ns"] += self_ns
        charged = sum(v["self_ns"] for v in out.values())
        out[OTHER]["self_ns"] += max(0, self.wall_ns - charged)
        return out

    def coverage(self) -> float:
        """Share of traced wall time charged to a named layer."""
        if not self.wall_ns:
            return 0.0
        totals = self.layer_totals()
        return sum(v["self_ns"] for k, v in totals.items() if k != OTHER) / self.wall_ns

    def edge_counts(self) -> dict[str, int]:
        width = len(ALL_LAYERS)
        return {f"{ALL_LAYERS[i // width]}>{ALL_LAYERS[i % width]}": n
                for i, n in enumerate(self.edges) if n}

    def entries(self) -> list[dict]:
        rows = []
        for name in self.stats:
            calls, total, self_ns = self.entry_totals(name)
            if calls:
                rows.append({"entry": name, "calls": calls,
                             "total_s": total / 1e9, "self_s": self_ns / 1e9})
        rows.sort(key=lambda r: -r["self_s"])
        return rows

    def shared_self_ns(self, layer: str) -> int:
        """Self time of the shared utilities when called from ``layer``."""
        lid = self.index[layer]
        return sum(self.stats[e][lid][2] for e in SHARED if e in self.stats)
