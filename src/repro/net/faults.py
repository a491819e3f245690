"""Deterministic fault injection for the simulated TCS world.

The paper argues the service stays controllable while parts of it fail
(Sec. 5.1) and that a failing device must never exceed its owner's mandate
(Sec. 4.5).  This module turns those failure modes into *scheduled,
reproducible events*:

* :class:`FaultPlan` — a pure-data schedule of faults (device crashes,
  link flaps, NMS partitions, TCSP outages, control-message-loss windows).
  :meth:`FaultPlan.random` draws a plan from the seeded RNG, so a plan is
  a deterministic function of ``(seed, knobs)`` — byte-identical whether
  generated serially or inside a :func:`~repro.experiments.common
  .parallel_map` worker (pinned by a property test).
* :class:`FaultInjector` — binds a plan to a live world (network, TCSP,
  NMSes) and schedules each fault's start/clear as simulator events.
  Crashed devices are restarted *wiped* (Sec. 4.5: a crashed device must
  never keep filtering with configuration its owner no longer controls) and
  re-populated by the NMS watchdog's anti-entropy pass.  Message-loss
  windows are consulted by every :class:`~repro.core.rpc.ControlChannel`
  attempt via :meth:`drop_message`.

With no injector armed (every experiment E1-E15) nothing in this module
runs — behaviour is bit-for-bit what it was before the module existed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from repro.errors import FaultConfigError, TopologyError
from repro.obs.metrics import declare, reset_metrics
from repro.util.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nms import IspNms
    from repro.core.storage import ReplicatedBackend
    from repro.core.tcsp import Tcsp
    from repro.net.network import Network

__all__ = ["FaultKind", "Fault", "FaultPlan", "FaultInjector"]

_INJECTED = declare("faults.injected", "counter",
                    help="faults that actually struck their target")
_CLEARED = declare("faults.cleared", "counter",
                   help="faults whose clear event fired")
_SKIPPED = declare("faults.skipped", "counter",
                   help="faults skipped (missing target, would partition)")
_MSG_SEEN = declare("faults.messages_seen", "counter",
                    help="control-plane message attempts consulted")
_MSG_DROPPED = declare("faults.messages_dropped", "counter",
                       help="control-plane message attempts dropped")


class FaultKind(str, Enum):
    """Taxonomy of injectable faults (DESIGN.md: failure model)."""

    DEVICE_CRASH = "device-crash"      #: adaptive device down, then restarted wiped
    LINK_FLAP = "link-flap"            #: AS adjacency down, routing reconverges
    NMS_PARTITION = "nms-partition"    #: one ISP's NMS unreachable
    TCSP_OUTAGE = "tcsp-outage"        #: the TCSP itself unreachable (under DDoS)
    MESSAGE_LOSS = "message-loss"      #: control messages dropped with probability
    STORE_REPLICA_CRASH = "store-replica-crash"  #: one storage replica down
    NMS_SHARD_CRASH = "nms-shard-crash"  #: NMS process dies (volatile state lost)


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``kind`` strikes ``target`` at ``start`` and
    clears ``duration`` seconds later.  ``param`` is kind-specific (loss
    probability for :attr:`FaultKind.MESSAGE_LOSS`)."""

    kind: FaultKind
    start: float
    duration: float
    target: tuple = ()
    param: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def key(self) -> tuple:
        """Canonical sort/identity key (stable across processes)."""
        return (self.start, self.kind.value, self.target, self.duration,
                round(self.param, 12))


@dataclass
class FaultPlan:
    """An ordered, validated schedule of faults."""

    faults: list[Fault] = field(default_factory=list)

    def __post_init__(self) -> None:
        for f in self.faults:
            if f.start < 0:
                raise FaultConfigError(f"fault starts in the past: {f}")
            if f.duration <= 0:
                raise FaultConfigError(f"fault needs positive duration: {f}")
            if f.kind is FaultKind.MESSAGE_LOSS and not 0.0 <= f.param <= 1.0:
                raise FaultConfigError(f"loss probability outside [0,1]: {f}")
        self.faults.sort(key=Fault.key)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def by_kind(self, kind: FaultKind) -> list[Fault]:
        return [f for f in self.faults if f.kind is kind]

    @property
    def last_clear(self) -> float:
        """Time the final injected fault clears (0.0 for an empty plan)."""
        return max((f.end for f in self.faults), default=0.0)

    def signature(self) -> str:
        """Stable content hash — equal iff the schedules are byte-identical."""
        text = ";".join(
            f"{f.kind.value}|{f.start!r}|{f.duration!r}|{f.target!r}|{f.param!r}"
            for f in self.faults
        )
        return hashlib.sha256(text.encode()).hexdigest()

    # ------------------------------------------------------------- generation
    @classmethod
    def random(cls, seed: int, *, horizon: float,
               device_asns: Sequence[int] = (),
               links: Sequence[tuple[int, int]] = (),
               nms_ids: Sequence[str] = (),
               store_replicas: Sequence[int] = (),
               n_crashes: int = 0, n_flaps: int = 0, n_partitions: int = 0,
               n_loss_windows: int = 0, loss_rate: float = 0.5,
               tcsp_outages: int = 0,
               n_store_crashes: int = 0, n_shard_crashes: int = 0,
               mean_downtime: float = 0.4) -> "FaultPlan":
        """Draw a plan from the seeded RNG.

        Fault starts land in ``[0.05, 0.55] * horizon`` and downtimes are
        clipped exponentials, so every fault clears well before the horizon
        — leaving a measurable recovery tail (E16's acceptance criterion).
        New fault families draw *after* the pre-existing ones, so a plan
        with all new knobs at zero is byte-identical to before they
        existed.
        """
        if horizon <= 0:
            raise FaultConfigError(f"horizon must be > 0, got {horizon}")
        rng = derive_rng(seed, "fault-plan")
        faults: list[Fault] = []

        def start() -> float:
            return float(rng.uniform(0.05 * horizon, 0.55 * horizon))

        def downtime() -> float:
            d = float(rng.exponential(mean_downtime))
            return min(max(d, 0.05), 0.25 * horizon)

        for pool, n, kind in (
            (list(device_asns), n_crashes, FaultKind.DEVICE_CRASH),
            (list(links), n_flaps, FaultKind.LINK_FLAP),
            (list(nms_ids), n_partitions, FaultKind.NMS_PARTITION),
        ):
            if n > 0 and not pool:
                raise FaultConfigError(f"no targets available for {kind.value}")
            for _ in range(n):
                victim = pool[int(rng.integers(0, len(pool)))]
                target = tuple(victim) if isinstance(victim, tuple) else (victim,)
                faults.append(Fault(kind, start(), downtime(), target))
        for _ in range(tcsp_outages):
            faults.append(Fault(FaultKind.TCSP_OUTAGE, start(), downtime()))
        for _ in range(n_loss_windows):
            faults.append(Fault(FaultKind.MESSAGE_LOSS, start(), downtime(),
                                param=loss_rate))
        for pool, n, kind in (
            (list(store_replicas), n_store_crashes,
             FaultKind.STORE_REPLICA_CRASH),
            (list(nms_ids), n_shard_crashes, FaultKind.NMS_SHARD_CRASH),
        ):
            if n > 0 and not pool:
                raise FaultConfigError(f"no targets available for {kind.value}")
            for _ in range(n):
                victim = pool[int(rng.integers(0, len(pool)))]
                faults.append(Fault(kind, start(), downtime(), (victim,)))
        return cls(faults)


class FaultInjector:
    """Executes a :class:`FaultPlan` against a live world.

    ``arm()`` schedules every fault's start and clear on the network's
    simulator and registers a reset hook so
    :meth:`~repro.net.simulator.Simulator.reset` leaves no fault state
    behind.  Counters (``injected``, ``cleared``, ``skipped``,
    ``messages_dropped``) feed E16's tables.
    """

    def __init__(self, plan: FaultPlan, network: "Network", *,
                 tcsp: "Optional[Tcsp]" = None,
                 nmses: Iterable["IspNms"] = (),
                 store: "Optional[ReplicatedBackend]" = None,
                 seed: int = 0) -> None:
        self.plan = plan
        self.network = network
        self.tcsp = tcsp
        self.nmses = list(nmses)
        self.store = store
        self.seed = seed
        self._loss_rng = derive_rng(seed, "faults", "message-loss")
        self.armed = False
        self.active: set[Fault] = set()
        # registry-backed tallies (unlabelled: one injector per world);
        # the legacy attributes are property views over these
        self._m_injected = _INJECTED.labelled()
        self._m_cleared = _CLEARED.labelled()
        self._m_skipped = _SKIPPED.labelled()
        self._m_messages_dropped = _MSG_DROPPED.labelled()
        self._m_messages_seen = _MSG_SEEN.labelled()

    # --------------------------------------------------- read-only stat views
    @property
    def injected(self) -> int:
        return self._m_injected.value

    @property
    def cleared(self) -> int:
        return self._m_cleared.value

    @property
    def skipped(self) -> int:
        return self._m_skipped.value

    @property
    def messages_dropped(self) -> int:
        return self._m_messages_dropped.value

    @property
    def messages_seen(self) -> int:
        return self._m_messages_seen.value

    # ---------------------------------------------------------------- arming
    def arm(self) -> None:
        """Schedule every fault; safe to call once per (reset) simulator."""
        if self.armed:
            raise FaultConfigError("injector already armed; reset() first")
        sim = self.network.sim
        for fault in self.plan:
            sim.schedule_at(fault.start, self._start, fault)
            sim.schedule_at(fault.end, self._clear, fault)
        for channel in self._channels():
            channel.injector = self
        sim.add_reset_hook(self.reset)
        self.armed = True

    def _channels(self):
        """Every control channel whose messages this injector may drop."""
        channels = []
        if self.tcsp is not None:
            channels.append(self.tcsp.channel)
        channels.extend(nms.channel for nms in self.nmses)
        return channels

    def reset(self) -> None:
        """Forget all transient fault state (simulator reset hook)."""
        for channel in self._channels():
            if channel.injector is self:
                channel.injector = None
        self.active.clear()
        self.armed = False
        reset_metrics((self._m_injected, self._m_cleared, self._m_skipped,
                       self._m_messages_dropped, self._m_messages_seen))
        self._loss_rng = derive_rng(self.seed, "faults", "message-loss")

    # -------------------------------------------------------------- handlers
    def _start(self, fault: Fault) -> None:
        kind = fault.kind
        try:
            if kind is FaultKind.DEVICE_CRASH:
                device = self._device(fault.target[0])
                if device is None or device.crashed:
                    self._m_skipped.value += 1
                    return
                device.crash()
            elif kind is FaultKind.LINK_FLAP:
                a, b = fault.target
                self.network.fail_link(a, b)
            elif kind is FaultKind.NMS_PARTITION:
                nms = self._nms(fault.target[0])
                if nms is None:
                    self._m_skipped.value += 1
                    return
                nms.partitioned = True
            elif kind is FaultKind.TCSP_OUTAGE:
                if self.tcsp is not None:
                    self.tcsp.reachable = False
            elif kind is FaultKind.STORE_REPLICA_CRASH:
                replica = int(fault.target[0])
                if (self.store is None
                        or replica >= self.store.n_replicas
                        or not self.store.replica_up(replica)):
                    self._m_skipped.value += 1
                    return
                self.store.crash_replica(replica)
            elif kind is FaultKind.NMS_SHARD_CRASH:
                nms = self._nms(fault.target[0])
                if nms is None:
                    self._m_skipped.value += 1
                    return
                nms.crash()
            # MESSAGE_LOSS is purely window-based: drop_message() consults
            # self.active, nothing to mutate here.
        except TopologyError:
            # e.g. the flap would partition the Internet — skip, keep going
            self._m_skipped.value += 1
            return
        self.active.add(fault)
        self._m_injected.value += 1

    def _clear(self, fault: Fault) -> None:
        if fault not in self.active:
            return
        self.active.discard(fault)
        self._m_cleared.value += 1
        kind = fault.kind
        if kind is FaultKind.DEVICE_CRASH:
            device = self._device(fault.target[0])
            if device is not None:
                device.restart()   # comes back *wiped* (Sec. 4.5)
        elif kind is FaultKind.LINK_FLAP:
            a, b = fault.target
            try:
                self.network.restore_link(a, b)
            except TopologyError:  # pragma: no cover - double-clear guard
                pass
        elif kind is FaultKind.NMS_PARTITION:
            nms = self._nms(fault.target[0])
            if nms is not None:
                nms.partitioned = False
        elif kind is FaultKind.TCSP_OUTAGE:
            if self.tcsp is not None and not any(
                    f.kind is FaultKind.TCSP_OUTAGE for f in self.active):
                self.tcsp.reachable = True
        elif kind is FaultKind.STORE_REPLICA_CRASH:
            if self.store is not None:
                self.store.restart_replica(int(fault.target[0]))
        elif kind is FaultKind.NMS_SHARD_CRASH:
            nms = self._nms(fault.target[0])
            if nms is not None:
                nms.restart()

    # -------------------------------------------------------------- messages
    def loss_rate_at(self, now: float) -> float:
        """Effective control-message loss probability at ``now``."""
        rate = 0.0
        for fault in self.active:
            if fault.kind is FaultKind.MESSAGE_LOSS:
                rate = max(rate, fault.param)
        return rate

    def drop_message(self, channel: str, op: str, now: float) -> bool:
        """Should this control-plane message be lost?  Called by
        :meth:`repro.core.rpc.ControlChannel.call` per attempt."""
        self._m_messages_seen.value += 1
        rate = self.loss_rate_at(now)
        if rate <= 0.0:
            return False
        dropped = bool(self._loss_rng.random() < rate)
        if dropped:
            self._m_messages_dropped.value += 1
        return dropped

    # --------------------------------------------------------------- lookups
    def _device(self, asn: int):
        for nms in self.nmses:
            device = nms.devices.get(asn)
            if device is not None:
                return device
        router = self.network.routers.get(asn)
        return getattr(router, "adaptive_device", None)

    def _nms(self, isp_id: str) -> "Optional[IspNms]":
        for nms in self.nmses:
            if nms.isp_id == isp_id:
                return nms
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(faults={len(self.plan)}, armed={self.armed}, "
                f"active={len(self.active)})")
