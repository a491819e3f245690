"""A live service process does not load the simulator's graph library.

``repro.service`` is engine-agnostic: a process that only subscribes users
and checks flows needs numpy but not networkx.  Each check runs in a fresh
interpreter, since this suite's own process has long imported networkx.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SERVICE_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any import of it raises ImportError
import repro.core, repro.net, repro.service
from repro.core import ComponentGraph, HeaderFilter, NetworkUser
from repro.core.components import HeaderMatch
from repro.net import Prefix
from repro.service import ServiceFacade

graph = ComponentGraph("svc:acme")
graph.chain(HeaderFilter("f7", HeaderMatch(dport=7)))
facade = ServiceFacade()
facade.subscribe(NetworkUser("acme", prefixes=[Prefix.parse("10.1.0.0/16")]),
                 dst_graph=graph)
print(facade.check("198.51.100.7", "10.1.0.5", dport=7).reason,
      facade.check("172.16.0.1", "172.16.9.9", dport=7).reason)
"""

GRAPH_BUILD = """
import sys
from repro.net import TopologyBuilder
assert "networkx" not in sys.modules
print(len(TopologyBuilder.line(3)), "networkx" in sys.modules)
"""


def run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.split()


def test_service_subscribes_and_checks_without_networkx():
    assert run(SERVICE_WITHOUT_NETWORKX) == ["filtered", "direct"]


def test_building_a_topology_loads_networkx():
    assert run(GRAPH_BUILD) == ["3", "True"]
