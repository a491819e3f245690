"""Automated reaction to network anomalies (paper Sec. 4.4).

"Automated reaction to network anomalies could be implemented by placing
triggers that fire an event if the traffic statistics (e.g. rate of
connection attempts from/to a particular server) indicate values exceeding
expected boundaries.  As a consequence, a rule that rate limits the
anomalous traffic could be activated."

:class:`AutoReactionApp` deploys, per device, a trigger watching the rate
of matching packets plus a *pre-installed but inactive* reaction graph
(here: a rate limiter).  When the trigger fires, the reaction activates on
that device — "triggers can automatically activate predefined additional
configurations" (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.components import (
    PASS,
    ComponentContext,
    RateLimiterComponent,
    TriggerComponent,
)
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.net.packet import Packet

__all__ = ["AutoReactionApp", "ReactionEvent"]


@dataclass(frozen=True)
class ReactionEvent:
    """One trigger firing."""

    time: float
    asn: int
    rate_pps: float
    #: offending sources identified at the firing (heavy-hitter mode only)
    sources: tuple[int, ...] = ()


@dataclass
class _DeviceReaction:
    trigger: TriggerComponent
    limiter: RateLimiterComponent
    active: bool = False
    sources: set[int] = field(default_factory=set)


class AutoReactionApp:
    """Trigger-armed rate limiting for the user's inbound traffic.

    ``heavy_hitter_k`` (> 0) attaches a SpaceSaving source tracker to each
    trigger so firings carry the offending source addresses, and the
    reaction limits *those sources only* instead of all matching traffic.
    ``per_source`` additionally fires the trigger once per source whose
    own rate exceeds ``threshold_pps`` (not just on the aggregate).
    """

    def __init__(self, service: TrafficControlService,
                 threshold_pps: float, limit_bps: float,
                 predicate: Optional[Callable[[Packet], bool]] = None,
                 window: float = 0.25, heavy_hitter_k: int = 0,
                 per_source: bool = False,
                 hh_min_share: float = 0.05) -> None:
        self.service = service
        self.threshold_pps = threshold_pps
        self.limit_bps = limit_bps
        self.predicate = predicate
        self.window = window
        self.heavy_hitter_k = heavy_hitter_k
        self.per_source = per_source
        self.hh_min_share = hh_min_share
        self.events: list[ReactionEvent] = []
        self.reactions: dict[int, _DeviceReaction] = {}

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        """Trigger -> (inactive) limiter, activated by the trigger's event."""
        limiter = RateLimiterComponent("reaction-limit", self.limit_bps)
        reaction = _DeviceReaction(trigger=None, limiter=limiter)  # type: ignore[arg-type]

        predicate = self.predicate

        class GatedLimiter(RateLimiterComponent):
            """Rate limiter that is a no-op until the trigger activates it,
            and then limits only the *anomalous* traffic ("a rule that rate
            limits the anomalous traffic could be activated") — narrowed to
            the identified offenders when the trigger names any."""

            def process(self, packet: Packet, ctx: ComponentContext):
                if not reaction.active:
                    return PASS
                if predicate is not None and not predicate(packet):
                    return PASS
                if reaction.sources and int(packet.src) not in reaction.sources:
                    return PASS
                return super().process(packet, ctx)

        gated = GatedLimiter("reaction-limit", self.limit_bps)
        reaction.limiter = gated

        def on_fire(ctx: ComponentContext, rate: float) -> None:
            reaction.active = True
            sources = reaction.trigger.last_sources
            reaction.sources.update(sources)
            self.events.append(ReactionEvent(
                time=ctx.now, asn=ctx.asn, rate_pps=rate, sources=sources))

        trigger = TriggerComponent(
            "anomaly-trigger", self.threshold_pps,
            action=on_fire, predicate=self.predicate, window=self.window,
            track_sources=self.heavy_hitter_k,
            per_source_threshold=(self.threshold_pps if self.per_source
                                  else None),
            hh_min_share=self.hh_min_share)
        reaction.trigger = trigger
        self.reactions[device_ctx.asn] = reaction
        graph = ComponentGraph(f"auto-react:{self.service.user.user_id}")
        graph.chain(trigger, gated)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        scope = scope or DeploymentScope.everywhere()
        return self.service.deploy(scope, dst_graph_factory=self.graph_factory)

    # ----------------------------------------------------------------- metrics
    @property
    def fired(self) -> int:
        return len(self.events)

    def detection_delay(self, attack_start: float) -> Optional[float]:
        """Time from attack start to the first trigger firing."""
        if not self.events:
            return None
        return min(e.time for e in self.events) - attack_start

    def limited_packets(self) -> int:
        return sum(r.limiter.dropped for r in self.reactions.values())

    def offending_sources(self) -> set[int]:
        """Union of sources identified across all devices' firings."""
        out: set[int] = set()
        for reaction in self.reactions.values():
            out.update(reaction.sources)
        return out
