"""The two store backends as each other's oracle.

A hypothesis state machine puts, deletes, clears and draws sequence keys
over two tables, running every op on an :class:`InMemoryBackend` and on a
:class:`ReplicatedBackend` of three replicas, while replicas crash and
restart in between (at most two down at once, so every write has a live
replica to land on).  Once every replica is restarted and one
``anti_entropy()`` pass has run, both backends must hold the same keys,
items and lengths per table and answer ``contains`` alike for every key
ever used, and the replicated one must have lost and diverged nothing.
CI draws more cases with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
)

from repro.core import InMemoryBackend, ReplicatedBackend
from repro.net import Prefix

N_REPLICAS = 3
TABLES = st.sampled_from(("reg", "contracts"))
#: small ints and prefixes: prefixes shard by their top byte, everything
#: else by hash, so both placements are drawn
KEYS = st.one_of(
    st.integers(0, 5),
    st.sampled_from([Prefix.parse(p) for p in
                     ("10.1.0.0/16", "10.2.0.0/16", "172.16.0.0/12",
                      "203.0.113.0/24")]))
VALUES = st.integers(0, 9)
REPLICAS = st.integers(0, N_REPLICAS - 1)


class StoreDifferential(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.mem = InMemoryBackend()
        self.rep = ReplicatedBackend(N_REPLICAS, seed=0)
        self.used: set[tuple] = set()

    @rule(table=TABLES, key=KEYS, value=VALUES)
    def put(self, table, key, value):
        self.used.add((table, key))
        self.mem.put(table, key, value)
        self.rep.put(table, key, value)

    @rule(table=TABLES, key=KEYS)
    def delete(self, table, key):
        self.used.add((table, key))
        self.mem.delete(table, key)
        self.rep.delete(table, key)

    @rule(table=TABLES)
    def clear(self, table):
        self.mem.clear(table)
        self.rep.clear(table)

    @rule(table=TABLES)
    def next_key(self, table):
        assert self.mem.next_key(table) == self.rep.next_key(table)

    @precondition(lambda self: self.rep.live_replicas > 1)
    @rule(index=REPLICAS)
    def crash_replica(self, index):
        self.rep.crash_replica(index)

    @rule(index=REPLICAS)
    def restart_replica(self, index):
        self.rep.restart_replica(index)

    @rule()
    def heal(self):
        """Restart every replica, repair, and compare."""
        for index in range(N_REPLICAS):
            self.rep.restart_replica(index)
        self.rep.anti_entropy()
        for table in ("reg", "contracts"):
            assert self.rep.keys(table) == self.mem.keys(table)
            assert self.rep.items(table) == self.mem.items(table)
            assert self.rep.length(table) == self.mem.length(table)
        for table, key in sorted(self.used, key=repr):
            assert (self.rep.contains(table, key)
                    == self.mem.contains(table, key)), (table, key)
        assert self.rep.permanently_lost() == 0
        assert self.rep.divergent_records() == 0

    def teardown(self) -> None:
        self.heal()


TestStoreDifferential = StoreDifferential.TestCase
TestStoreDifferential.settings = settings(stateful_step_count=30)
