"""Graph/component counters live on the obs registry (attribute views stay);
the compiled program is what bumps the graph's."""

import pytest

from repro.core.components import (
    ComponentContext,
    HeaderFilter,
    HeaderMatch,
    Verdict,
)
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser
from repro.net import IPv4Address, Packet, Prefix, Protocol
from repro.obs import scoped
from repro.policy import compile_policy


def ctx() -> ComponentContext:
    return ComponentContext(
        now=0.0, asn=1, is_transit=False,
        local_prefix=Prefix.parse("10.9.0.0/16"), stage="dest",
        owner=NetworkUser("u", prefixes=[Prefix.parse("10.1.0.0/16")]),
        ingress_asn=None, local_origin=True)


def test_counters_surface_in_registry_snapshot():
    with scoped() as registry:
        graph = ComponentGraph("snap")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        pkt = Packet.udp(IPv4Address.parse("1.2.3.4"),
                         IPv4Address.parse("10.1.0.1"))
        assert compile_policy(graph).process(pkt, ctx()) is Verdict.DROP
        snap = registry.snapshot()
    assert snap["graph.packets_in{graph=snap}"] == 1
    assert snap["graph.packets_dropped{graph=snap}"] == 1
    assert snap["component.processed{component=f}"] == 1
    assert snap["component.dropped{component=f}"] == 1


def test_legacy_attribute_views_are_read_only():
    graph = ComponentGraph("legacy")
    comp = HeaderFilter("f", HeaderMatch(proto=Protocol.UDP))
    graph.chain(comp)
    assert graph.packets_in == 0 and comp.processed == 0
    compile_policy(graph).process(Packet.udp(IPv4Address.parse("1.2.3.4"),
                             IPv4Address.parse("10.1.0.1")), ctx())
    assert graph.packets_in == 1
    assert graph.packets_dropped == 1
    assert comp.processed == 1 and comp.dropped == 1
    # the views have no setters: counts change only through the registry
    for obj, attr in ((graph, "packets_in"), (graph, "packets_dropped"),
                      (comp, "processed"), (comp, "dropped")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, 0)


def test_namesake_component_clobbers_the_series():
    """``fresh=True`` binding: a later namesake starts the registry series
    from zero with its own cell (a rebuilt graph must not inherit counts),
    while the earlier object keeps counting privately."""
    with scoped() as registry:
        a = HeaderFilter("dup", HeaderMatch(proto=Protocol.UDP))
        a._m_processed.inc(3)
        b = HeaderFilter("dup", HeaderMatch(proto=Protocol.TCP))
        assert b.processed == 0
        assert a.processed == 3  # detached from the series, still readable
        b._m_processed.inc(5)
        snap = registry.snapshot()
    assert snap["component.processed{component=dup}"] == 5
