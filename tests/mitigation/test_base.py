"""Tests for the mitigation base interface and deployment sampling."""

import pytest

from repro.errors import MitigationError
from repro.mitigation import IngressFiltering, deployment_sample
from repro.net import Network, TopologyBuilder


class TestDeploymentSample:
    def test_fraction_zero_empty(self):
        t = TopologyBuilder.hierarchical(seed=1)
        assert deployment_sample(t, 0.0, seed=1) == set()

    def test_fraction_one_everything(self):
        t = TopologyBuilder.hierarchical(seed=1)
        assert deployment_sample(t, 1.0, seed=1) == set(t.as_numbers)

    def test_fraction_counts(self):
        t = TopologyBuilder.powerlaw(n=100, seed=1)
        picked = deployment_sample(t, 0.3, seed=2)
        assert abs(len(picked) - 30) <= 1

    def test_deterministic(self):
        t = TopologyBuilder.powerlaw(n=50, seed=1)
        assert deployment_sample(t, 0.5, seed=9) == deployment_sample(t, 0.5, seed=9)

    def test_invalid_fraction(self):
        t = TopologyBuilder.star(3)
        with pytest.raises(MitigationError):
            deployment_sample(t, 1.5)


class TestMitigationLifecycle:
    def test_deploy_installs_router_filters(self):
        net = Network(TopologyBuilder.line(3))
        ing = IngressFiltering()
        ing.deploy(net, [0, 2])
        assert ing.deployed_asns == {0, 2}
        assert net.routers[0].has_filter("ingress")
        assert not net.routers[1].has_filter("ingress")
