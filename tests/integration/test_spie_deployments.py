"""The two SPIE deployments agree: router-filter SPIE and the TCS app.

``SpieTraceback`` stores digests in a filter on every router;
``SpieTracebackApp`` stores them in a destination-stage component on
every adaptive device.  Deployed everywhere on the same run, both see the
same packets at the same ASes, so every trace must walk the same path.
"""

import pytest

from repro.core import DeploymentScope
from repro.core.apps import SpieTracebackApp
from repro.experiments.common import ExperimentConfig
from repro.experiments.e9_traceback import _scenario
from repro.mitigation import SpieTraceback
from repro.scenario.tcs import build_tcs_world


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("attack_kind", ["direct-spoofed", "reflector"])
def test_router_spie_and_tcs_spie_trace_the_same_paths(attack_kind, seed):
    net, sc = _scenario(attack_kind, ExperimentConfig(seed=seed))
    spie = SpieTraceback()
    spie.deploy(net, net.topology.as_numbers)
    world = build_tcs_world(net, owner_asn=sc.victim_asn, service=True)
    app = SpieTracebackApp(world.service)
    app.deploy(DeploymentScope.everywhere())
    sc.victim.record = True
    sc.run()
    attack_pkts = [p for _, p in sc.victim.log
                   if p.kind.startswith("attack")][:200]
    assert attack_pkts
    for pkt in attack_pkts:
        router_path = spie.trace(pkt, sc.victim_asn).path
        assert router_path, "every delivered packet was stored at the victim"
        assert app.trace(pkt, sc.victim_asn).path == router_path
