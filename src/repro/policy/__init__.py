"""Policy compiler for component graphs (paper Sec. 4.5 + 5.2).

The paper composes services out of declaratively specified components
(Sec. 5.2, via the Chameleon work it cites) and vets them against the
Sec. 4.5 security restrictions before deployment.  This package does both
in one step: :func:`compile_policy` reads a
:class:`~repro.core.graph.ComponentGraph`, checks its structure and vets
it, and produces a :class:`CompiledPolicy`, the scalar program that walks
the graph; :func:`problems` lists every finding instead of raising the
first.
"""

from repro.policy.compiler import CompiledPolicy, compile_policy, problems

__all__ = ["CompiledPolicy", "compile_policy", "problems"]
