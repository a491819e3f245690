"""Command-line interface.

Usage::

    python -m repro topology --kind powerlaw --size 100
    python -m repro attack --kind reflector --agents 8
    python -m repro defend --attack reflector --defense tcs
    python -m repro scenario list
    python -m repro scenario run --spec reflector-tcs --engine both
    python -m repro experiments E2 E4 --scale 0.5 -j 4
    python -m repro serve --block 203.0.113.0/24 --admit-rate 500
    python -m repro obs --json

``--seed``, ``--scale``, ``--workers/-j`` and ``--metrics-out`` are
threaded uniformly through every subcommand.  The ``experiments``
subcommand forwards to :mod:`repro.experiments`; ``scenario`` runs
declarative :class:`~repro.scenario.ScenarioSpec` presets or JSON spec
files on the packet and/or fluid engine; ``obs`` dumps the telemetry
schema (every metric the codebase can emit).  ``--metrics-out FILE``
wraps the command in a fresh :mod:`repro.obs` registry scope and writes
everything it recorded as JSONL when the command finishes.  A
:class:`~repro.errors.ReproError` escaping a command (an unknown topology
kind, attack class or defense name, a bad prefix) prints ``error: ...``
and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def _version() -> str:
    """Package version from installed metadata, else the source tree."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__

def _topology_spec(kind: str, size: int):
    """The :class:`~repro.scenario.spec.TopologySpec` of a ``kind``
    topology with about ``size`` ASes."""
    from repro.scenario.spec import TopologySpec

    if kind == "hierarchical":
        stubs = max(1, size // 6)
        return TopologySpec(kind=kind, n_core=2, transit_per_core=2,
                            stub_per_transit=max(1, stubs // 4) + 1)
    if kind == "star":
        return TopologySpec(kind=kind, n=max(1, size - 1))
    if kind == "tree":
        # the smallest binary tree with at least ``size`` ASes
        return TopologySpec(kind=kind, branching=2,
                            height=max(1, size.bit_length() - 1))
    return TopologySpec(kind=kind, n=size)


def cmd_topology(args: argparse.Namespace) -> int:
    size = max(4, int(round(args.size * args.scale)))
    topo = _topology_spec(args.kind, size).build(args.seed)
    print(f"topology: {args.kind}, {len(topo)} ASes, "
          f"{topo.graph.number_of_edges()} links")
    print(f"  core   : {len(topo.core_ases)}")
    print(f"  transit: {len(topo.transit_ases)}")
    print(f"  stub   : {len(topo.stub_ases)}")
    degrees = sorted((topo.degree(a) for a in topo.as_numbers), reverse=True)
    print(f"  degree : max={degrees[0]}, median={degrees[len(degrees) // 2]}, "
          f"min={degrees[-1]}")
    if args.verbose:
        for asn in topo.as_numbers:
            info = topo.ases[asn]
            print(f"  AS{asn:<5} {info.role.value:<8} {info.prefix} "
                  f"deg={topo.degree(asn)}")
    return 0


def _cell(args: argparse.Namespace, attack: str, defense: str):
    """The E2 matrix cell for ``attack`` vs ``defense`` with ``--agents``
    agents, scaled by ``--scale``."""
    from dataclasses import replace

    from repro.scenario import SpecError, defenses, e2_cell

    if defense not in defenses.names():
        raise SpecError(f"unknown defense {defense!r}; "
                        f"known: {', '.join(defenses.names())}")
    spec = e2_cell(attack, defense, seed=args.seed)
    spec = replace(spec, attack=replace(spec.attack, n_agents=args.agents))
    return spec.scaled(args.scale)


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.scenario import PacketEngine

    spec = _cell(args, args.kind, "none")
    m = PacketEngine().run(spec)
    print(f"attack: {args.kind} ({spec.attack.n_agents} agents)")
    print(f"  attack packets delivered to victim: {int(m.attack_delivered)}")
    print(f"  legitimate goodput                : {m.legit_goodput:.0%}")
    return 0


def cmd_defend(args: argparse.Namespace) -> int:
    from repro.scenario import PacketEngine

    specs = [_cell(args, args.attack, d) for d in ("none", args.defense)]
    base, cell = (PacketEngine().run(spec) for spec in specs)
    base_pkts, cell_pkts = int(base.attack_delivered), int(cell.attack_delivered)
    print(f"attack: {args.attack}   defense: {args.defense}")
    print(f"  attack at victim  : {base_pkts} -> {cell_pkts} "
          f"({cell_pkts / max(1, base_pkts):.0%} of undefended)")
    print(f"  legitimate goodput: {base.legit_goodput:.0%} -> "
          f"{cell.legit_goodput:.0%}")
    print(f"  collateral damage : {cell.collateral:.0%}")
    if cell.identified_true or cell.identified_false:
        print(f"  identified sources: {cell.identified_true} real, "
              f"{cell.identified_false} innocent")
    if cell.notes:
        print(f"  note: {cell.notes}")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    forwarded = list(args.ids)
    forwarded += ["--scale", str(args.scale), "--seed", str(args.seed)]
    if args.markdown:
        forwarded.append("--markdown")
    if args.workers > 1:
        forwarded += ["--parallel", str(args.workers)]
    return experiments_main(forwarded)


def _load_spec(name_or_path: str):
    from pathlib import Path

    from repro.scenario import PRESETS, ScenarioSpec, preset

    if name_or_path in PRESETS:
        return preset(name_or_path)
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        return ScenarioSpec.from_json(path.read_text())
    from repro.scenario import SpecError

    raise SpecError(f"{name_or_path!r} is neither a preset "
                    f"(see 'scenario list') nor a spec file")


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.scenario import ENGINES, PRESETS, run_scenario

    if args.action == "list":
        for name, spec in PRESETS.items():
            defense = spec.defense.name
            faults = " +faults" if spec.faults is not None else ""
            print(f"{name:<24} attack={spec.attack.kind:<16} "
                  f"defense={defense:<8}{faults} {spec.description}")
        return 0

    try:
        spec = _load_spec(args.spec)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    spec = spec.scaled(args.scale)
    engines = tuple(ENGINES) if args.engine == "both" else (args.engine,)
    status = 0
    for engine in engines:
        try:
            metrics = run_scenario(spec, engine=engine)
        except ReproError as exc:
            print(f"{engine}: cannot run: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"scenario {spec.name!r} on the {engine} engine "
              f"(seed={spec.seed}):")
        for key, value in metrics.select(spec.metrics).items():
            if isinstance(value, float):
                value = round(value, 4)
            print(f"  {key:<18}: {value}")
    return status


def _build_serve_app(protect: str, blocks: Sequence[str],
                     admit_rate: Optional[float],
                     admit_burst: Optional[float] = None):
    """Wire up the live service stack for ``repro serve``.

    Returns ``(facade, controller, wsgi_app)``: an
    :class:`~repro.service.ServiceFacade` whose ownership registry holds
    one subscriber (the owner of the ``--protect`` prefix), a destination
    stage graph blacklisting the ``--block`` source prefixes, and a demo
    WSGI app wrapped in :class:`~repro.service.WsgiTrafficMiddleware`.
    """
    from repro.core.components import PrefixBlacklist
    from repro.core.graph import ComponentGraph
    from repro.core.ownership import NetworkUser, OwnershipRegistry
    from repro.net.addressing import Prefix
    from repro.service import (ServiceFacade, TrafficController,
                               WsgiTrafficMiddleware)
    from repro.util.tokenbucket import TokenBucket

    prefix = Prefix.parse(protect)
    registry = OwnershipRegistry()
    facade = ServiceFacade(registry)
    user = NetworkUser(user_id="protected", display_name="protected service",
                       prefixes=[prefix])
    if blocks:
        graph = ComponentGraph("serve-blacklist")
        graph.chain(PrefixBlacklist(
            "blocked-sources", [Prefix.parse(b) for b in blocks]))
        facade.subscribe(user, dst_graph=graph)
    else:
        # no filters to install: register ownership only, every check
        # takes the direct fast path
        registry.register(user)
    admission = None
    if admit_rate is not None:
        burst = admit_rate if admit_burst is None else admit_burst
        admission = TokenBucket(rate=admit_rate, burst=burst)
    controller = TrafficController(facade, prefix.base, admission=admission)

    def demo_app(environ, start_response):
        body = b"ok\n"
        start_response("200 OK", [("Content-Type", "text/plain"),
                                  ("Content-Length", str(len(body)))])
        return [body]

    return facade, controller, WsgiTrafficMiddleware(demo_app, controller)


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a demo app behind the live traffic-control middleware."""
    from wsgiref.simple_server import WSGIRequestHandler, make_server

    facade, controller, app = _build_serve_app(
        args.protect, args.block, args.admit_rate, args.admit_burst)

    class _QuietHandler(WSGIRequestHandler):
        def log_message(self, *a):  # pragma: no cover - silence stderr noise
            pass

    with make_server(args.host, args.port, app,
                     handler_class=_QuietHandler) as httpd:
        print(f"serving on http://{args.host}:{httpd.server_port}/ "
              f"(protecting {args.protect}, "
              f"{len(args.block)} blocked prefix(es), "
              f"admit-rate={'off' if args.admit_rate is None else args.admit_rate})")
        sys.stdout.flush()
        try:
            if args.max_requests > 0:
                for _ in range(args.max_requests):
                    httpd.handle_request()
            else:  # pragma: no cover - interactive mode
                httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    passed = facade._m_pass.value
    dropped = facade._m_drop.value
    rejected = controller._m_admission_rejected.value
    print(f"served {passed + dropped} checks: {passed} passed, "
          f"{dropped} dropped, {rejected} admission-rejected")
    return 0


def _load_service_spec(path: Optional[str]):
    """A :class:`ServiceSpec` from a JSON file, or the built-in demo spec
    (two header filters, a logger, a statistics collector, a blacklist
    and a rate limit)."""
    import json as _json
    from pathlib import Path

    from repro.core.compose import RuleSpec, ServiceSpec

    if path is None:
        return ServiceSpec(name="demo", rules=(
            RuleSpec(action="drop", proto="tcp", tcp_flags="rst",
                     label="block-rst"),
            RuleSpec(action="drop", proto="udp", dport_not_in=(53, 80),
                     label="offservice-udp"),
            RuleSpec(action="log", label="audit"),
            RuleSpec(action="collect-stats", label="stats"),
            RuleSpec(action="blacklist", prefixes=("203.0.113.0/24",),
                     label="known-bad"),
            RuleSpec(action="rate-limit", rate_bps=2_000_000.0,
                     label="limit"),
        ))
    raw = _json.loads(Path(path).read_text())
    rules = tuple(RuleSpec.from_dict(r) for r in raw.get("rules", ()))
    return ServiceSpec(name=raw.get("name", Path(path).stem), rules=rules)


def cmd_policy(args: argparse.Namespace) -> int:
    """``repro policy {show,verify}`` over a service spec."""
    from repro.core.compose import compile_spec
    from repro.core.device import DeviceContext
    from repro.errors import ReproError
    from repro.net import ASRole, Prefix
    from repro.policy import compile_policy, problems

    try:
        spec = _load_service_spec(args.spec)
        device_ctx = DeviceContext(asn=0, role=ASRole.STUB,
                                   local_prefix=Prefix.parse("10.0.0.0/8"))
        graph = compile_spec(spec, device_ctx)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "verify":
        found = problems(graph)
        for problem in found:
            print(f"error: {problem}")
        if not found:
            print(f"ok: {len(graph)} op(s), no errors")
        return 1 if found else 0

    try:
        compiled = compile_policy(graph)
    except ReproError as exc:
        print(f"error: {exc} (run 'policy verify' for the full list)",
              file=sys.stderr)
        return 1

    plan, comps = compiled._plan, compiled.components
    print(f"policy {graph.name!r}: {len(comps)} op(s), entry={plan.entry}")
    for i, comp in enumerate(comps):
        edges = [f"{label}->{nxt}" for label, nxt in
                 (("pass", plan.pass_next[i]), ("drop", plan.drop_next[i]))
                 if nxt >= 0]
        print(f"  [{i}] {comp.name:<18} {type(comp).__name__:<20} "
              f"{' '.join(edges) or 'exit'}")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Print every metric the codebase can emit (name, kind, labels)."""
    import json as _json

    from repro.obs import full_catalog

    catalog = full_catalog()
    if args.json:
        print(_json.dumps(
            [{"name": d.name, "kind": d.kind, "labels": list(d.labelnames),
              "help": d.help} for d in catalog.values()],
            indent=2))
        return 0
    print(f"{'metric':<34} {'kind':<10} {'labels':<18} help")
    for decl in catalog.values():
        labels = ",".join(decl.labelnames) or "-"
        print(f"{decl.name:<34} {decl.kind:<10} {labels:<18} {decl.help}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Adaptive Distributed Traffic Control Service — "
                    "reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    def common(seed_default: Optional[int] = 42) -> argparse.ArgumentParser:
        """A fresh --seed/--scale/--workers parent (argparse shares action
        objects between parsers, so each subcommand needs its own copy)."""
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--scale", type=float, default=1.0,
                       help="size multiplier for workload knobs")
        p.add_argument("--workers", "-j", type=int, default=1, metavar="N",
                       help="worker processes for parallelisable sweeps")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="export the run's in-process repro.obs registry "
                            "as JSONL to FILE on exit (worker-process "
                            "registries stay in their workers)")
        return p

    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", parents=[common()],
                            help="generate and describe an AS topology")
    p_topo.add_argument("--kind", default="hierarchical",
                        help="topology kind (an unknown kind lists them)")
    p_topo.add_argument("--size", type=int, default=60,
                        help="about this many ASes")
    p_topo.add_argument("--verbose", action="store_true")
    p_topo.set_defaults(fn=cmd_topology)

    p_attack = sub.add_parser("attack", parents=[common()],
                              help="run an undefended DDoS scenario")
    p_attack.add_argument("--kind", default="reflector",
                          help="attack class (an unknown class lists them)")
    p_attack.add_argument("--agents", type=int, default=8,
                          help="attack agents before --scale")
    p_attack.set_defaults(fn=cmd_attack)

    p_defend = sub.add_parser("defend", parents=[common()],
                              help="run an attack against a defense")
    p_defend.add_argument("--attack", default="reflector",
                          help="attack class (as for 'attack --kind')")
    p_defend.add_argument("--defense", default="tcs",
                          help="defense name (an unknown name lists them)")
    p_defend.add_argument("--agents", type=int, default=8,
                          help="attack agents before --scale")
    p_defend.set_defaults(fn=cmd_defend)

    p_scen = sub.add_parser("scenario",
                            help="list or run declarative scenario specs")
    scen_sub = p_scen.add_subparsers(dest="action", required=True)
    p_list = scen_sub.add_parser("list", help="list the named presets")
    p_list.set_defaults(fn=cmd_scenario)
    p_run = scen_sub.add_parser("run", parents=[common(seed_default=None)],
                                help="run one spec on an engine")
    p_run.add_argument("--spec", required=True,
                       help="preset name or path to a spec .json file")
    p_run.add_argument("--engine", choices=("packet", "fluid", "both"),
                       default="packet")
    p_run.set_defaults(fn=cmd_scenario)

    p_exp = sub.add_parser("experiments", parents=[common()],
                           help="run the claim-reproduction suite")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    p_exp.add_argument("--markdown", action="store_true")
    p_exp.set_defaults(fn=cmd_experiments)

    p_serve = sub.add_parser(
        "serve", help="serve a demo WSGI app behind the live TCS middleware")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8008,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--protect", default="10.0.0.0/24", metavar="CIDR",
                         help="prefix of the protected service (its owner "
                              "becomes the sole subscriber)")
    p_serve.add_argument("--block", action="append", default=[],
                         metavar="CIDR",
                         help="blacklist a source prefix (repeatable; "
                              "installed as the subscriber's dest-stage "
                              "graph)")
    p_serve.add_argument("--admit-rate", type=float, default=None,
                         metavar="RPS",
                         help="admission token-bucket rate consulted before "
                              "any ownership check (default: off)")
    p_serve.add_argument("--admit-burst", type=float, default=None,
                         help="admission bucket burst (default: rate)")
    p_serve.add_argument("--max-requests", type=int, default=0, metavar="N",
                         help="exit after N requests (0 = serve forever)")
    p_serve.set_defaults(fn=cmd_serve)

    p_policy = sub.add_parser(
        "policy", help="show or verify compiled policies")
    pol_sub = p_policy.add_subparsers(dest="action", required=True)
    for act, hlp in (
            ("show", "dump the compiled program: ops and edges"),
            ("verify", "list every compile error; nonzero exit on errors")):
        pp = pol_sub.add_parser(act, parents=[common()], help=hlp)
        pp.add_argument("--spec", default=None, metavar="FILE",
                        help="service-spec JSON file "
                             "(default: a built-in demo spec)")
        pp.set_defaults(fn=cmd_policy)

    p_obs = sub.add_parser("obs",
                           help="dump the telemetry schema (repro.obs)")
    p_obs.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of a table")
    p_obs.set_defaults(fn=cmd_obs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.errors import ReproError

    try:
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out is None:
            return args.fn(args)
        from pathlib import Path

        from repro.obs import scoped

        with scoped() as registry:
            status = args.fn(args)
        Path(metrics_out).write_text(registry.to_jsonl())
        return status
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
