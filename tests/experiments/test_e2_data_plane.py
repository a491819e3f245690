"""Pins the scalar data plane: a reduced-scale E2 matrix must reproduce its
table and its event, link and router counts exactly.

E2 is almost nothing but the per-packet path (event heap, links, router
forwarding, LPM), so any change there that alters the simulation — event
order, queueing arithmetic, drop reasons — shows up in these numbers.  The
expected values were recorded before the data plane's hot-path rewrite and
must not move.
"""

import hashlib
from collections import Counter

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments import e2_mitigation_matrix as e2
from repro.scenario import PacketEngine

SCALE = 0.25
TABLE_SHA256 = "c032b77f38a1e53676e8833d1032bd4c7fbe7e4e69261fd207a3b1bf96008620"
TOTALS = {"events": 347866, "link_tx": 295017, "link_dropped": 560,
          "forwarded": 198538}
ROUTER_DROPS = {
    "filter:i3": 5484, "filter:ingress": 3600, "filter:pushback": 616,
    "filter:rbf": 3600, "filter:sos": 5483, "filter:tcs-antispoof": 1800,
    "filter:tcs-blacklist": 1206, "filter:tcs-firewall": 1800,
    "filter:traceback-filter": 2084, "queue-full": 560,
}


@pytest.fixture(scope="module")
def e2_run():
    """(table markdown, summed counters, summed router drops) over every
    cell of the matrix."""
    totals: Counter = Counter()
    drops: Counter = Counter()

    class Recording(PacketEngine):
        def run_built(self, built):
            metrics = super().run_built(built)
            net = built.network
            links = list(net.links.values())
            for host in net.hosts.values():
                links += [host.uplink, host.downlink]
            totals["events"] += net.sim.events_processed
            totals["link_tx"] += sum(link.tx_packets for link in links)
            totals["link_dropped"] += sum(link.dropped_packets for link in links)
            totals["forwarded"] += sum(r.forwarded_packets
                                       for r in net.routers.values())
            for router in net.routers.values():
                drops.update(router.drops)
            return metrics

    mp = pytest.MonkeyPatch()
    mp.setattr(e2, "PacketEngine", Recording)
    try:
        table = e2.matrix_table(ExperimentConfig(seed=42, scale=SCALE))
    finally:
        mp.undo()
    return table.to_markdown(), dict(totals), dict(drops)


def test_table_digest(e2_run):
    markdown, _, _ = e2_run
    assert hashlib.sha256(markdown.encode()).hexdigest() == TABLE_SHA256


def test_event_and_link_counts(e2_run):
    _, totals, _ = e2_run
    assert totals == TOTALS


def test_router_drop_counts(e2_run):
    _, _, drops = e2_run
    assert drops == ROUTER_DROPS
