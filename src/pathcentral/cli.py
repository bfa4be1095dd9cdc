"""Command-line front end.

One subcommand per capability: exact scores (bc-exact, coverage-exact,
kpath-exact), sampling estimates (bc-estimate, coverage-estimate,
kpath-estimate), reachability summaries (reach), synthetic graph generation
(gen), and the benchmark harness (bench). Output is JSON by default,
``--table`` switches to aligned text. Exit codes: 0 success, 2 for input or
usage problems, 3 when a size guard refuses an exact computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .adaptive import EstimatorConfig
from .bench import format_table, report_to_json, run_benchmark
from .betweenness import estimate_betweenness, estimate_coverage
from .errors import GraphParseError, GuardError
from .exact import brandes_betweenness, exact_coverage, exact_kpath, restricted_pair_betweenness
from .generate import hub_digraph, layered_dag, random_digraph
from .graph import DirectedGraph, dump_edge_list, load_edge_list
from .kpath import KPathConfig, estimate_kpath_centrality
from .reachability import compute_reachability
from .shortest_paths import build_shortest_path_dag, sample_uniform_path

__all__ = ["main"]


def _load_graph(path: str) -> DirectedGraph:
    if path == "-":
        return load_edge_list(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _emit(obj: dict, as_table: bool) -> None:
    if as_table:
        width = max(len(k) for k in obj)
        for key in sorted(obj):
            print(f"{key.ljust(width)}  {obj[key]}")
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _exact_payload(label: str, method: str, value) -> dict:
    payload = {"vertex": label, "method": method, "value": float(value)}
    if isinstance(value, Fraction):
        payload["value_exact"] = str(value)
    return payload


def _estimate_payload(label: str, method: str, est) -> dict:
    payload = dataclasses.asdict(est)
    payload["vertex"] = label
    payload["method"] = method
    return payload


def _add_common(parser: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        parser.add_argument("--graph", required=True,
                            help="edge-list file ('-' for stdin)")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", default=False,
                     help="JSON output (default)")
    fmt.add_argument("--table", dest="table", action="store_true",
                     help="aligned text output")


def _add_accuracy(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="tolerance", type=float, default=0.05,
                        metavar="X", help="additive error bound (default 0.05)")
    parser.add_argument("--delta", dest="failure_prob", type=float, default=0.1,
                        metavar="Y", help="failure probability (default 0.1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (drawn and reported when omitted)")
    parser.add_argument("--fixed-samples", type=int, default=None, metavar="N",
                        help="disable the adaptive rule and draw exactly N samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcentral",
        description="Single-vertex centrality on directed graphs: exact "
                    "oracles and adaptive sampling estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bc-exact", help="exact betweenness of one vertex")
    _add_common(p)
    p.add_argument("--vertex", required=True, help="vertex label")
    p.add_argument("--method", choices=("brandes", "restricted"), default="brandes")

    p = sub.add_parser("coverage-exact", help="exact coverage of one vertex")
    _add_common(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("kpath-exact", help="exact k-path score of one vertex")
    _add_common(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w-def", choices=("original", "restricted"), default="original",
                   help="walk-weight denominator definition")

    for name, measure in (("bc-estimate", "betweenness"), ("coverage-estimate", "coverage")):
        p = sub.add_parser(name, help=f"adaptive {measure} estimate")
        _add_common(p)
        p.add_argument("--vertex", required=True)
        _add_accuracy(p)
        p.add_argument("--baseline", action="store_true",
                       help="sample endpoints from all non-root vertices")

    p = sub.add_parser("kpath-estimate", help="k-path centrality estimate")
    _add_common(p)
    p.add_argument("--vertex", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_accuracy(p)
    p.add_argument("--w-def", choices=("original", "restricted"), default="original")

    p = sub.add_parser("reach", help="reachability summary around one vertex")
    _add_common(p)
    p.add_argument("--vertex", required=True)

    p = sub.add_parser("gen", help="write a synthetic graph as an edge list")
    _add_common(p, graph=False)
    p.add_argument("kind", choices=("random", "hub", "layered"))
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p", type=float, default=0.05, help="edge probability")
    p.add_argument("--out-per-vertex", type=int, default=3)
    p.add_argument("--in-per-vertex", type=int, default=3)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--width", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")

    p = sub.add_parser("bench", help="run a benchmark config")
    _add_common(p, graph=False)
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for the rows and the exact oracles "
                        "(overrides the config)")

    # testing hook, not part of the documented surface
    p = sub.add_parser("sample-path")
    _add_common(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_exact(args) -> dict:
    g = _load_graph(args.graph)
    v = g.id_of(args.vertex)
    if args.command == "bc-exact":
        if args.method == "restricted":
            value = restricted_pair_betweenness(g, v)
        else:
            value = brandes_betweenness(g, v)
        return _exact_payload(args.vertex, args.method, value)
    if args.command == "coverage-exact":
        return _exact_payload(args.vertex, "distance-check", exact_coverage(g, v))
    value = exact_kpath(g, v, args.k, weight=args.w_def)
    payload = _exact_payload(args.vertex, f"enumeration[{args.w_def}]", value)
    payload["k"] = args.k
    return payload


def _cmd_estimate(args) -> dict:
    g = _load_graph(args.graph)
    v = g.id_of(args.vertex)
    cfg = EstimatorConfig(
        tolerance=args.tolerance,
        failure_prob=args.failure_prob,
        seed=args.seed,
        mode="baseline" if args.baseline else "restricted",
        fixed_samples=args.fixed_samples,
    )
    if args.command == "bc-estimate":
        est = estimate_betweenness(g, v, cfg)
        method = "sampled-paths"
    else:
        est = estimate_coverage(g, v, cfg)
        method = "sampled-pairs"
    if args.baseline:
        method += "-baseline"
    return _estimate_payload(args.vertex, method, est)


def _cmd_kpath_estimate(args) -> dict:
    g = _load_graph(args.graph)
    v = g.id_of(args.vertex)
    cfg = KPathConfig(
        k=args.k,
        tolerance=args.tolerance,
        failure_prob=args.failure_prob,
        seed=args.seed,
        weight=args.w_def,
        stopping="adaptive" if args.fixed_samples is None else "fixed",
        fixed_samples=args.fixed_samples,
    )
    est = estimate_kpath_centrality(g, v, cfg)
    payload = _estimate_payload(args.vertex, "sampled-walks", est)
    payload["k"] = args.k
    payload["weight"] = args.w_def
    payload["source_fraction"] = est.contribution_bound
    return payload


def _cmd_reach(args) -> dict:
    g = _load_graph(args.graph)
    v = g.id_of(args.vertex)
    reach = compute_reachability(g, v)
    return {
        "vertex": args.vertex,
        "upstream_count": len(reach.upstream),
        "downstream_count": len(reach.downstream),
        "domain_size": len(reach.domain),
        "pair_fraction": float(reach.pair_fraction),
        "pair_fraction_exact": str(reach.pair_fraction),
        "source_fraction": float(reach.source_fraction),
        "source_fraction_exact": str(reach.source_fraction),
        "diameter_vertex_bound": reach.diameter_vertex_bound,
    }


def _cmd_gen(args) -> None:
    if args.kind == "random":
        g = random_digraph(args.n, args.p, seed=args.seed)
    elif args.kind == "hub":
        g = hub_digraph(args.n, args.out_per_vertex, args.in_per_vertex, seed=args.seed)
    else:
        g = layered_dag(args.layers, args.width, args.p, seed=args.seed)
    text = dump_edge_list(g)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_bench(args) -> None:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    report = run_benchmark(config, workers=args.workers)
    if args.table:
        print(format_table(report))
    else:
        print(report_to_json(report))


def _cmd_sample_path(args) -> dict:
    import numpy as np

    g = _load_graph(args.graph)
    s = g.id_of(args.source)
    t = g.id_of(args.target)
    dag = build_shortest_path_dag(g, s, t)
    if dag is None:
        return {"source": args.source, "target": args.target, "reachable": False}
    rng = np.random.default_rng(args.seed)
    sample = sample_uniform_path(dag, rng)
    return {
        "source": args.source,
        "target": args.target,
        "reachable": True,
        "distance": dag.distance,
        "path_count": dag.path_count,
        "path": [g.label_of(v) for v in sample.vertices],
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("bc-exact", "coverage-exact", "kpath-exact"):
            _emit(_cmd_exact(args), args.table)
        elif args.command in ("bc-estimate", "coverage-estimate"):
            _emit(_cmd_estimate(args), args.table)
        elif args.command == "kpath-estimate":
            _emit(_cmd_kpath_estimate(args), args.table)
        elif args.command == "reach":
            _emit(_cmd_reach(args), args.table)
        elif args.command == "gen":
            _cmd_gen(args)
        elif args.command == "bench":
            _cmd_bench(args)
        elif args.command == "sample-path":
            _emit(_cmd_sample_path(args), args.table)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GraphParseError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
