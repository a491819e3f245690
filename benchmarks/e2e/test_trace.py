"""The tracer: attribution arithmetic, callback charging, clean removal."""

from __future__ import annotations

import sys

import bench_trace as bt
from repro.core import ComponentGraph, HeaderFilter, NetworkUser, OwnershipRegistry
from repro.core.components import HeaderMatch
from repro.net import Prefix
from repro.net.simulator import Simulator
from repro.service import ServiceFacade


def _bindings() -> dict:
    """Every attribute the tracer may patch, as currently bound."""
    out = {}
    for entries in (*bt.ENTRY_POINTS.values(), bt.SHARED):
        for entry in entries:
            owner, attr, raw = bt._resolve(entry)
            out[(id(owner), attr)] = raw
            if not isinstance(owner, type):
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro"):
                        for key, value in vars(module).items():
                            if value is raw:
                                out[(id(module), key)] = value
    return out


def _facade() -> ServiceFacade:
    facade = ServiceFacade(OwnershipRegistry())
    user = NetworkUser("u", prefixes=[Prefix.parse("10.0.0.0/8")])
    graph = ComponentGraph("g").chain(HeaderFilter("f7", HeaderMatch(dport=7)))
    facade.subscribe(user, dst_graph=graph)
    return facade


def test_wrappers_are_removed_afterwards():
    import repro.service.core as core_module

    before = _bindings()
    compile_before = core_module.compile_policy
    with bt.Tracer() as tracer:
        assert core_module.compile_policy is not compile_before
        _facade().check("10.1.2.3", "11.0.0.1", dport=7)
    assert _bindings() == before
    assert core_module.compile_policy is compile_before
    assert tracer.entry_totals("repro.service.facade:ServiceFacade.check")[0] == 1


def test_self_times_add_up_and_callbacks_charge_their_module():
    fired = []
    with bt.Tracer() as tracer:
        sim = Simulator()
        sim.schedule(0.1, lambda: fired.append(sum(range(20_000))))
        sim.run()
        facade = _facade()
        for _ in range(50):
            facade.check(0x0A000001, 0x0B000001, dport=7)
    assert fired
    totals = tracer.layer_totals()
    assert sum(v["self_ns"] for v in totals.values()) == tracer.wall_ns
    assert totals["sim"]["calls"] >= 2  # schedule, schedule_at, run
    # the lambda was defined here, outside every mapped module
    callback = [name for name in tracer.stats if name.startswith("callback ")]
    assert callback and all("test_trace" in name for name in callback)
    assert tracer.edge_counts().get("sim>other", 0) == 1
    assert tracer.edge_counts()["service>decision"] >= 50
    assert 0.0 < tracer.coverage() < 1.0


def test_shared_entries_charge_the_calling_layer():
    from repro.util.stats import WindowedCounter

    with bt.Tracer() as tracer:
        window = WindowedCounter(1.0)
        window.add(0.0, 1.0)
        wrapped = tracer.wrap(lambda: window.add(0.5, 2.0), "link", "test:link-user")
        wrapped()
    cells = tracer.stats["repro.util.stats:WindowedCounter.add"]
    assert cells[tracer.index[bt.OTHER]][0] == 1
    assert cells[tracer.index["link"]][0] == 1
    assert tracer.shared_self_ns("link") > 0


def test_layer_of_module_prefers_the_longest_prefix():
    assert bt.layer_of_module("repro.service.core") == "decision"
    assert bt.layer_of_module("repro.service.facade") == "service"
    assert bt.layer_of_module("repro.mitigation.pushback") == "mitigation"
    assert bt.layer_of_module("repro.serviceable") == bt.OTHER
    assert bt.layer_of_module("builtins") == bt.OTHER
