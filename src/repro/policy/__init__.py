"""Policy IR and compiler for component graphs (paper Sec. 4.5 + 5.2).

The paper composes services out of declaratively specified components
(Sec. 5.2, via the Chameleon work it cites) and vets them against the
Sec. 4.5 security restrictions before deployment.  This package turns both
steps into a small compiler:

* :mod:`repro.policy.ir` — a typed intermediate representation lowered
  from :class:`~repro.core.graph.ComponentGraph` (one op per component,
  explicit PASS/DROP edges),
* :mod:`repro.policy.passes` — structural validation and Sec. 4.5
  vetting passes emitting structured :class:`Diagnostic` records,
* :mod:`repro.policy.compiler` — :func:`compile_policy` producing a
  :class:`CompiledPolicy`: the scalar program that walks the graph.
"""

from repro.policy.compiler import CompiledPolicy, analyze, compile_policy
from repro.policy.ir import Policy, PolicyOp, lower_graph
from repro.policy.passes import Diagnostic, Severity

__all__ = [
    "CompiledPolicy",
    "Diagnostic",
    "Policy",
    "PolicyOp",
    "Severity",
    "analyze",
    "compile_policy",
    "lower_graph",
]
