"""Pluggable control-plane state storage (DESIGN.md: failure model).

The paper's availability story (Sec. 5.1) is that the *service* stays
controllable while individual control-plane entities are attacked.  That
only holds if registration, contract and desired-deployment state outlive
the process that wrote it — otherwise "failover" covers reachability but
not durability.  This module makes the storage of that state an explicit,
swappable dependency:

* :class:`StorageBackend` — the protocol every store implements: named
  tables of key -> value records plus an append-log primitive, with a
  deterministic iteration order (first-insertion order, exactly like the
  plain dicts this layer replaced).
* :class:`InMemoryBackend` — process-local dicts.  Semantics (and the
  resulting experiment tables) are byte-identical to the pre-storage-layer
  code; state dies with the owning instance (``durable = False``), which
  is precisely the failure mode E16e measures.
* :class:`ReplicatedBackend` — a simulated eventually-consistent replica
  set.  Every record is *sharded* to a deterministic owner replica (prefix
  ranges / stable key hash), written synchronously to the owner and
  asynchronously — after an injectable replication lag — to the
  followers.  Replicas crash and restart via
  :class:`~repro.net.faults.FaultInjector` events; anti-entropy
  (:meth:`ReplicatedBackend.anti_entropy`) repairs divergence by copying
  the highest version of each record across live replicas, then collects
  the tombstones every replica agrees on.  All randomness derives from
  ``derive_rng(seed, "storage", ...)``, so runs are byte-identical
  serially, under ``parallel_map`` or on a process pool.

Observability: the replicated backend reports under ``control.store.*``
(replication-lag histogram, stale-read / lost-write / repair counters).
The in-memory backend registers *no* instruments, so every pre-existing
experiment's registry snapshot is unchanged by this module existing.

:class:`StoreTable` and :class:`StoreLog` are the thin mapping / append-
log views :class:`~repro.core.tcsp.Tcsp` and :class:`~repro.core.nms
.IspNms` hold their state through — swapping the backend never touches
the call sites.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, MutableMapping
from typing import Any, Iterable, Optional, Protocol, runtime_checkable

from repro.errors import StorageError
from repro.obs.metrics import declare
from repro.util.rng import derive_rng

__all__ = [
    "StorageBackend", "InMemoryBackend", "ReplicatedBackend",
    "StoreTable", "StoreLog", "shard_key",
]

_WRITES = declare("control.store.writes", "counter",
                  help="records written through the storage backend")
_REPL_WRITES = declare("control.store.replicated_writes", "counter",
                       help="asynchronous follower-replication deliveries")
_LOST_WRITES = declare("control.store.lost_writes", "counter",
                       help="replication deliveries lost (loss window or "
                            "down follower) — repaired by anti-entropy")
_FAILOVER_WRITES = declare("control.store.failover_writes", "counter",
                           help="writes redirected because the shard's "
                                "owner replica was down")
_STALE_READS = declare("control.store.stale_reads", "counter",
                       help="reads served a version older than the newest "
                            "acknowledged write")
_UNAVAILABLE_READS = declare("control.store.unavailable_reads", "counter",
                             help="reads with no live replica to serve them")
_REPAIRS = declare("control.store.repairs", "counter",
                   help="records copied between replicas by anti-entropy")
_REPLICA_CRASHES = declare("control.store.replica_crashes", "counter",
                           help="storage replica crash events")
_LAG_HIST = declare(
    "control.store.replication_lag_s", "histogram",
    help="distribution of follower replication delays",
    buckets=(0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0))


def shard_key(key: Any) -> int:
    """Deterministic integer shard key for a record key.

    Prefix-like keys (anything exposing an integer-convertible ``first``
    address, e.g. :class:`~repro.net.addressing.Prefix`) shard by the top
    byte of their address range, so adjacent prefixes land on the same
    shard — the "sharded by prefix range" layout.  Everything else hashes
    its string form through blake2b (stable across processes, unlike
    ``hash()``).
    """
    first = getattr(key, "first", None)
    if first is not None:
        try:
            return (int(first) >> 24) & 0xFF
        except (TypeError, ValueError):
            pass
    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@runtime_checkable
class StorageBackend(Protocol):
    """Named tables of ordered key -> value records.

    ``durable`` declares whether the state survives the crash of the
    control-plane process that owns the store (False for process-local
    memory, True for an external replica set).
    """

    durable: bool

    def put(self, table: str, key: Any, value: Any) -> None: ...

    def get(self, table: str, key: Any, default: Any = None) -> Any: ...

    def delete(self, table: str, key: Any) -> bool: ...

    def contains(self, table: str, key: Any) -> bool: ...

    def keys(self, table: str) -> list: ...

    def items(self, table: str) -> list[tuple[Any, Any]]: ...

    def length(self, table: str) -> int: ...

    def clear(self, table: str) -> None: ...

    def next_key(self, table: str) -> int: ...


class StoreTable(MutableMapping):
    """Dict-shaped view over one backend table.

    Preserves every mapping idiom the control plane already used
    (``in``, ``.get``, ``.items()``, ``sorted(...)``, subscript
    assignment), so moving state onto a backend is invisible to callers.
    """

    __slots__ = ("_backend", "_table")

    def __init__(self, backend: StorageBackend, table: str) -> None:
        self._backend = backend
        self._table = table

    def __getitem__(self, key: Any) -> Any:
        missing = object()
        value = self._backend.get(self._table, key, missing)
        if value is missing:
            raise KeyError(key)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        self._backend.put(self._table, key, value)

    def __delitem__(self, key: Any) -> None:
        if not self._backend.delete(self._table, key):
            raise KeyError(key)

    def __contains__(self, key: Any) -> bool:
        return self._backend.contains(self._table, key)

    def __iter__(self) -> Iterator:
        return iter(self._backend.keys(self._table))

    def __len__(self) -> int:
        return self._backend.length(self._table)

    def items(self):  # type: ignore[override]
        return self._backend.items(self._table)

    def values(self):  # type: ignore[override]
        return [v for _, v in self._backend.items(self._table)]

    def clear(self) -> None:
        self._backend.clear(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreTable({self._table!r}, {dict(self.items())!r})"


class StoreLog:
    """Append-log view over one backend table (monotone integer keys).

    The list-shaped state the TCSP keeps (``undelivered`` relays, pending
    replay queue) becomes an ordered log; ``remove``/``replace`` cover the
    resync bookkeeping.  Key allocation lives in the *backend*
    (:meth:`StorageBackend.next_key`), so two TCSP replicas sharing one
    store never collide.
    """

    __slots__ = ("_backend", "_table")

    def __init__(self, backend: StorageBackend, table: str) -> None:
        self._backend = backend
        self._table = table

    def append(self, value: Any) -> None:
        self._backend.put(self._table, self._backend.next_key(self._table),
                          value)

    def remove(self, value: Any) -> bool:
        """Delete the first entry equal to ``value``; False if absent."""
        for key, existing in self._backend.items(self._table):
            if existing == value:
                self._backend.delete(self._table, key)
                return True
        return False

    def replace(self, values: Iterable[Any]) -> None:
        """Atomically swap the log contents for ``values`` (in order)."""
        self._backend.clear(self._table)
        for value in values:
            self.append(value)

    def __iter__(self) -> Iterator:
        return iter([v for _, v in self._backend.items(self._table)])

    def __contains__(self, value: Any) -> bool:
        return any(v == value for _, v in self._backend.items(self._table))

    def __len__(self) -> int:
        return self._backend.length(self._table)

    def __getitem__(self, index: int) -> Any:
        return [v for _, v in self._backend.items(self._table)][index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreLog({self._table!r}, {list(self)!r})"


class InMemoryBackend:
    """Process-local storage: plain insertion-ordered dicts.

    Byte-identical to the attributes it replaced and exactly as fragile:
    ``durable`` is False, so an owning process crash takes the state with
    it (:meth:`~repro.core.nms.IspNms.crash` wipes its tables).  Registers
    no metrics — pre-existing registry snapshots are unchanged.
    """

    durable = False

    def __init__(self) -> None:
        self._tables: dict[str, dict] = {}
        self._seq: dict[str, int] = {}

    def _table(self, table: str) -> dict:
        existing = self._tables.get(table)
        if existing is None:
            existing = self._tables[table] = {}
        return existing

    def put(self, table: str, key: Any, value: Any) -> None:
        self._table(table)[key] = value

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        return self._table(table).get(key, default)

    def delete(self, table: str, key: Any) -> bool:
        return self._table(table).pop(key, _MISSING) is not _MISSING

    def contains(self, table: str, key: Any) -> bool:
        return key in self._table(table)

    def keys(self, table: str) -> list:
        return list(self._table(table))

    def items(self, table: str) -> list[tuple[Any, Any]]:
        return list(self._table(table).items())

    def length(self, table: str) -> int:
        return len(self._table(table))

    def clear(self, table: str) -> None:
        self._table(table).clear()

    def next_key(self, table: str) -> int:
        nxt = self._seq.get(table, 0)
        self._seq[table] = nxt + 1
        return nxt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InMemoryBackend(tables={len(self._tables)})"


_MISSING = object()
#: The value of a deleted record: deletes are versioned writes, so
#: anti-entropy carries them like any other record.
_TOMBSTONE = object()


class _Replica:
    """One storage replica: versioned records plus liveness."""

    __slots__ = ("index", "up", "records", "crashes")

    def __init__(self, index: int) -> None:
        self.index = index
        self.up = True
        #: (table, key) -> (version, value)
        self.records: dict[tuple[str, Any], tuple[int, Any]] = {}
        self.crashes = 0


class ReplicatedBackend:
    """Simulated eventually-consistent replica set.

    * **Sharding.**  ``owner_of(table, key)`` maps each record to a
      deterministic owner replica via :func:`shard_key` — prefix-range
      partitioning for address keys, a stable hash otherwise.
    * **Writes** apply synchronously to the owner replica (or, when the
      owner is down, to the next live replica — a counted *failover
      write*), then replicate to every follower after a seeded
      exponential lag drawn around ``replication_lag``; while a
      follower is down the delivery is *lost* (counted) and the follower
      stays stale until anti-entropy repairs it.  With no simulator
      attached, replication is synchronous — the degenerate-but-
      deterministic mode the parity tests pin against
      :class:`InMemoryBackend`.
    * **Reads** prefer the owner; with the owner down they fall through
      the replica ring in deterministic order, counting a *stale read*
      whenever the version served is older than the newest acknowledged
      write, and an *unavailable read* when no replica is live.
    * **Anti-entropy** copies the highest version of every record to
      every live replica, then drops each tombstone that every replica
      holds at its record's newest version while no delivery for the
      record is in flight; :meth:`permanently_lost` counts records whose
      newest acknowledged version survives on *no* replica — the E16
      acceptance number that must be zero after heal.

    Iteration order is first-insertion order of each key (tracked as
    backend metadata), matching dict semantics, so tables read back in
    the same order regardless of which replicas served the reads.
    """

    durable = True

    def __init__(self, n_replicas: int = 3, *, seed: int = 0,
                 replication_lag: float = 0.02, sim: Any = None) -> None:
        if n_replicas < 1:
            raise StorageError(f"need at least one replica, got {n_replicas}")
        if replication_lag < 0.0:
            raise StorageError(f"negative replication lag: {replication_lag}")
        self.n_replicas = n_replicas
        self.replication_lag = replication_lag
        self.sim = sim
        self.seed = seed
        self._rng = derive_rng(seed, "storage", "replication")
        self.replicas = [_Replica(i) for i in range(n_replicas)]
        self._version = 0
        #: newest acknowledged version per record (accounting only — the
        #: repair path never consults it, only replica-held versions)
        self._latest: dict[tuple[str, Any], int] = {}
        #: follower deliveries not yet arrived, per record
        self._in_flight: dict[tuple[str, Any], int] = {}
        self._order: dict[str, list] = {}
        self._seq: dict[str, int] = {}
        self._m_writes = _WRITES.labelled()
        self._m_repl_writes = _REPL_WRITES.labelled()
        self._m_lost_writes = _LOST_WRITES.labelled()
        self._m_failover_writes = _FAILOVER_WRITES.labelled()
        self._m_stale_reads = _STALE_READS.labelled()
        self._m_unavailable_reads = _UNAVAILABLE_READS.labelled()
        self._m_repairs = _REPAIRS.labelled()
        self._m_replica_crashes = _REPLICA_CRASHES.labelled()
        self._lag_hist = _LAG_HIST.labelled()
        if sim is not None:
            sim.add_reset_hook(self._on_sim_reset)

    def _on_sim_reset(self) -> None:
        """A simulator reset drops the scheduled deliveries, so nothing is
        in flight any more; re-arm for the next reset (hooks run once)."""
        self._in_flight.clear()
        self.sim.add_reset_hook(self._on_sim_reset)

    # ------------------------------------------------------------- accounting
    @property
    def writes(self) -> int:
        return self._m_writes.value

    @property
    def lost_writes(self) -> int:
        return self._m_lost_writes.value

    @property
    def stale_reads(self) -> int:
        return self._m_stale_reads.value

    @property
    def repairs(self) -> int:
        return self._m_repairs.value

    @property
    def failover_writes(self) -> int:
        return self._m_failover_writes.value

    # --------------------------------------------------------------- sharding
    def owner_of(self, table: str, key: Any) -> int:
        """Deterministic owner replica index for one record."""
        return shard_key(key) % self.n_replicas

    def _ring(self, start: int) -> Iterable[_Replica]:
        for off in range(self.n_replicas):
            yield self.replicas[(start + off) % self.n_replicas]

    def _live(self, start: int) -> Optional[_Replica]:
        for replica in self._ring(start):
            if replica.up:
                return replica
        return None

    # ----------------------------------------------------------------- writes
    def put(self, table: str, key: Any, value: Any) -> None:
        self._m_writes.value += 1
        self._version += 1
        version = self._version
        self._latest[(table, key)] = version
        order = self._order.setdefault(table, [])
        if key not in order:
            order.append(key)
        owner = self.owner_of(table, key)
        primary = self._live(owner)
        if primary is None:
            # no replica can take the write at all: permanently lost
            # unless a later write supersedes it
            self._m_lost_writes.value += 1
            return
        if primary.index != owner:
            self._m_failover_writes.value += 1
        primary.records[(table, key)] = (version, value)
        for replica in self.replicas:
            if replica.index == primary.index:
                continue
            self._replicate(replica.index, table, key, version, value)

    def _replicate(self, index: int, table: str, key: Any, version: int,
                   value: Any) -> None:
        record_key = (table, key)
        self._in_flight[record_key] = self._in_flight.get(record_key, 0) + 1
        if self.sim is None:
            self._deliver(index, table, key, version, value)
            return
        lag = float(self._rng.exponential(self.replication_lag)) \
            if self.replication_lag > 0 else 0.0
        self._lag_hist.observe(lag)
        self.sim.schedule(lag, self._deliver, index, table, key, version,
                          value)

    def _deliver(self, index: int, table: str, key: Any, version: int,
                 value: Any) -> None:
        record_key = (table, key)
        left = self._in_flight[record_key] - 1
        if left:
            self._in_flight[record_key] = left
        else:
            del self._in_flight[record_key]
        replica = self.replicas[index]
        if not replica.up:
            self._m_lost_writes.value += 1
            return
        current = replica.records.get(record_key)
        if current is None or current[0] < version:
            replica.records[record_key] = (version, value)
        self._m_repl_writes.value += 1

    # ------------------------------------------------------------------ reads
    def _read(self, table: str, key: Any) -> tuple[bool, Any]:
        """(found, value) through the owner-then-ring read path."""
        serving = self._live(self.owner_of(table, key))
        if serving is None:
            self._m_unavailable_reads.value += 1
            return False, None
        record = serving.records.get((table, key))
        latest = self._latest.get((table, key))
        if record is None:
            if latest is not None:
                self._m_stale_reads.value += 1
            return False, None
        version, value = record
        if latest is not None and version < latest:
            self._m_stale_reads.value += 1
        if value is _TOMBSTONE:
            return False, None
        return True, value

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        found, value = self._read(table, key)
        return value if found else default

    def contains(self, table: str, key: Any) -> bool:
        found, _ = self._read(table, key)
        return found

    def delete(self, table: str, key: Any) -> bool:
        # decided on the acknowledged keys, not a read: a stale replica
        # that lacks the record must not turn the delete into a no-op
        order = self._order.get(table)
        if order is None or key not in order:
            return False
        order.remove(key)
        # a delete is a newer version, a tombstone, on every live replica;
        # anti-entropy carries it over any copy a down replica still holds
        self._m_writes.value += 1
        self._version += 1
        self._latest[(table, key)] = self._version
        for replica in self.replicas:
            if replica.up:
                replica.records[(table, key)] = (self._version, _TOMBSTONE)
        return True

    def keys(self, table: str) -> list:
        return [key for key in self._order.get(table, ())
                if self.contains(table, key)]

    def items(self, table: str) -> list[tuple[Any, Any]]:
        out = []
        for key in self._order.get(table, ()):
            found, value = self._read(table, key)
            if found:
                out.append((key, value))
        return out

    def length(self, table: str) -> int:
        return len(self.keys(table))

    def clear(self, table: str) -> None:
        for key in list(self._order.get(table, ())):
            self.delete(table, key)

    def next_key(self, table: str) -> int:
        nxt = self._seq.get(table, 0)
        self._seq[table] = nxt + 1
        return nxt

    # -------------------------------------------------------------- liveness
    def _replica(self, index: int) -> _Replica:
        if not 0 <= index < self.n_replicas:
            raise StorageError(f"no replica {index} (have {self.n_replicas})")
        return self.replicas[index]

    def crash_replica(self, index: int) -> None:
        """Take one replica down; deliveries to it are lost until restart."""
        replica = self._replica(index)
        if replica.up:
            replica.up = False
            replica.crashes += 1
            self._m_replica_crashes.value += 1

    def restart_replica(self, index: int) -> None:
        """Bring a crashed replica back (stale until anti-entropy runs)."""
        self._replica(index).up = True

    def replica_up(self, index: int) -> bool:
        return self._replica(index).up

    @property
    def live_replicas(self) -> int:
        return sum(1 for r in self.replicas if r.up)

    # ---------------------------------------------------------- anti-entropy
    def anti_entropy(self) -> int:
        """Copy the newest replica-held version of every record to every
        live replica; returns how many copies were installed.

        With every replica up, a tombstone at its record's newest
        acknowledged version is then on every replica; unless a delivery
        for the record is still in flight (an older value could land after
        it), it is dropped from every replica and from the accounting."""
        best: dict[tuple[str, Any], tuple[int, Any]] = {}
        for replica in self.replicas:
            if not replica.up:
                continue
            for record_key, (version, value) in replica.records.items():
                current = best.get(record_key)
                if current is None or current[0] < version:
                    best[record_key] = (version, value)
        repaired = 0
        for record_key, (version, value) in best.items():
            for replica in self.replicas:
                if not replica.up:
                    continue
                current = replica.records.get(record_key)
                if current is None or current[0] < version:
                    replica.records[record_key] = (version, value)
                    repaired += 1
        self._m_repairs.value += repaired
        if all(replica.up for replica in self.replicas):
            for record_key, (version, value) in best.items():
                if (value is _TOMBSTONE and self._latest.get(record_key) == version
                        and record_key not in self._in_flight):
                    for replica in self.replicas:
                        del replica.records[record_key]
                    del self._latest[record_key]
        return repaired

    def start_anti_entropy(self, interval: float) -> None:
        """Schedule periodic :meth:`anti_entropy` passes on the simulator."""
        if self.sim is None:
            raise StorageError("anti-entropy loop needs an attached simulator")
        self.sim.schedule_every(interval, self.anti_entropy)

    # ------------------------------------------------------------ consistency
    def divergent_records(self) -> int:
        """Records where some live replica lags the newest live version."""
        divergent = 0
        for record_key in self._latest:
            versions = []
            for replica in self.replicas:
                if replica.up:
                    record = replica.records.get(record_key)
                    versions.append(record[0] if record else -1)
            if versions and any(v < max(max(versions), 0) for v in versions):
                divergent += 1
        return divergent

    def permanently_lost(self) -> int:
        """Records whose newest acknowledged version no replica (up *or*
        down) holds — unrecoverable by any amount of anti-entropy."""
        lost = 0
        for record_key, latest in self._latest.items():
            held = max((replica.records.get(record_key, (-1, None))[0]
                        for replica in self.replicas), default=-1)
            if held < latest:
                lost += 1
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedBackend(replicas={self.n_replicas}, "
                f"live={self.live_replicas}, records={len(self._latest)})")
