"""Command-line surface: identify queries, build and sample networks, generate
synthetic data, and score samples against the exact oracle.

Exit codes: 0 success, 1 input error or malformed argument, 2 query not identifiable.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import engine, identify, scm
from .estimands import DistTable, EvaluationError, format_estimand
from .estimands import evaluate_estimand  # noqa: F401  kept: perfbench's estimands probe wraps `cli.evaluate_estimand`
from .graphs import Admg, GraphError, parse_graph
from .models import DataError, read_dataset_csv, write_dataset_csv

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HEDGE = 2


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose malformed arguments are input errors, not its exit 2,
    which is `EXIT_HEDGE`; subcommand parsers inherit the class."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (InputError, GraphError, DataError, EvaluationError, scm.ScmError, engine.EngineError, OSError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalgen",
        description="identify interventional queries and sample them through networks of conditional models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="print the symbolic estimand for a query")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(handler=cmd_identify)

    p = sub.add_parser("sample", help="compile a query and draw interventional samples")
    p.add_argument("--graph", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--data", help="observational csv (fitted conditionals)")
    p.add_argument("--scm", help="scm file (exact conditionals)")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--proposal", choices=["uniform", "marginal"], default="uniform")
    p.add_argument("--dprime-mult", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True,
                   help="output prefix: writes <out>.csv, <out>.sidecar.json and <out>.manifest")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("eval", help="score engine samples against the exact oracle")
    p.add_argument("--scm")
    p.add_argument("--query")
    p.add_argument("--catalog", help="catalog entry name, or 'all'")
    p.add_argument("--n", type=int, default=200_000)
    p.add_argument("--obs-n", type=int, default=500_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--proposal", choices=["uniform", "marginal"], default="uniform")
    p.add_argument("--dprime-mult", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gen-data", help="draw observational samples from an scm")
    p.add_argument("--scm", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen_data)
    return parser


def _load_graph(path: str) -> Admg:
    try:
        return parse_graph(Path(path).read_text())
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_query(path: str, g: Admg) -> engine.QuerySpec:
    try:
        q = engine.parse_query(Path(path).read_text())
        q.validate(g)
        return q
    except GraphError as exc:
        raise InputError(f"{path}: {exc}") from None


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _print_hedge(result: identify.IdResult | engine.BuildResult):
    for entry in result.trace:
        print(f"  {entry.describe()}")
    print(f"not identifiable: hedge over {{{','.join(sorted(result.hedge.f))}}} "
          f"with component {{{','.join(sorted(result.hedge.f_prime))}}}")


def _identify(q: engine.QuerySpec, g: Admg) -> identify.IdResult:
    y, x = frozenset(q.targets), frozenset(q.do_map)
    if q.given:
        return identify.identify_conditional_effect(y, x, frozenset(q.given_map), g)
    return identify.identify_effect(y, x, g)


def cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    q = _load_query(args.query, g)
    result = _identify(q, g)
    if not result.identifiable:
        _print_hedge(result)
        return EXIT_HEDGE
    print(format_estimand(result.estimand))
    for entry in result.trace:
        print(f"  {entry.describe()}")
    return EXIT_OK


def _load_source(args, g: Admg):
    if bool(args.data) == bool(args.scm):
        raise InputError("provide exactly one of --data or --scm")
    if args.data:
        sidecar = Path(args.data).with_suffix(".sidecar.json")
        data = read_dataset_csv(args.data, sidecar if sidecar.exists() else None)
        if set(data.names) != set(g.names):
            raise InputError("dataset columns do not match the graph's variables")
        for v in data.variables:
            if v.cardinality != g.variable(v.name).cardinality:
                raise InputError(
                    f"{args.data}: column {v.name} has cardinality {v.cardinality}, "
                    f"the graph says {g.variable(v.name).cardinality}"
                )
        return engine.DatasetSource(data)
    model = scm.read_scm(args.scm)
    if model.graph != g:
        raise InputError("scm graph does not match --graph")
    return engine.ExactSource(model.network)


def cmd_sample(args) -> int:
    if args.n <= 0:
        raise InputError("--n must be positive")
    rng = _rng(args.seed)
    g = _load_graph(args.graph)
    q = _load_query(args.query, g)
    result = _compile(q, g, _load_source(args, g), args, rng)
    if not result.identifiable:
        _print_hedge(result)
        return EXIT_HEDGE
    network = result.network
    joint = engine.sample_interventional(network, q, args.n, rng, workers=args.workers)
    samples = joint.restrict(q.targets)
    csv = Path(f"{args.out}.csv")
    write_dataset_csv(samples, csv, Path(f"{args.out}.sidecar.json"))
    Path(f"{args.out}.manifest").write_text(engine.format_network(network))
    print(f"wrote {samples.n} rows to {csv}")
    return EXIT_OK


def _eval_one(name: str, m: scm.DiscreteScm, query: scm.CatalogQuery, args, rng) -> str:
    label = f"{name}: P({','.join(query.targets)} | do({','.join(query.do)})" + (
        f", {','.join(query.given)})" if query.given else ")"
    )
    if not query.identifiable:
        return f"| {label} | HEDGE | HEDGE |"
    probes = _probes(m, query)
    spec = engine.QuerySpec(query.targets, tuple((n, 0) for n in query.do), tuple((n, 0) for n in query.given))
    obs = scm.sample_observational(m, args.obs_n, rng)
    network = _compile(spec, m.graph, engine.DatasetSource(obs), args, rng).network
    del obs  # the network keeps no rows, so they go before any sample is drawn
    fitted = _worst_tvd(network, probes, args, rng)
    exact = _worst_tvd(_compile(spec, m.graph, engine.ExactSource(m.network), args, rng).network, probes, args, rng)
    return f"| {label} | {fitted:.4f} | {exact:.4f} |"


def _probes(m: scm.DiscreteScm, query: scm.CatalogQuery) -> list[tuple[engine.QuerySpec, DistTable]]:
    """Every do- and given-configuration of the query with the oracle's
    P(targets | do, given) there: P(targets, given | do) fixed at the given
    values and normalised, computed once and scored against by both columns."""
    g, split, probes = m.graph, len(query.do), []
    for combo in itertools.product(*(range(g.variable(n).cardinality) for n in query.do + query.given)):
        probe = engine.QuerySpec(query.targets, tuple(zip(query.do, combo[:split])),
                                 tuple(zip(query.given, combo[split:])))
        joint = scm.exact_interventional(m, probe.do_map, query.targets + query.given).fix(probe.given_map)
        probes.append((probe, DistTable(joint.variables, joint.probs / joint.total())))
    return probes


def _compile(q: engine.QuerySpec, g: Admg, source, args, rng) -> engine.BuildResult:
    """The query compiled against `source`: its sampling network, or its hedge,
    with the recursion's trace either way."""
    options = dict(proposal=args.proposal, dprime_mult=args.dprime_mult, rng=rng)
    if q.given:
        return engine.build_conditional_sampler(q, g, source, **options)
    return engine.build_network(frozenset(q.targets), frozenset(q.do_map), g, source, **options)


def _worst_tvd(network: engine.SamplingNetwork, probes, args, rng) -> float:
    """The largest TVD of the network's samples from the probes' truths, one
    sample at a time: each is cut to the scored columns, scored and released
    before the next is drawn."""
    def score(probe: engine.QuerySpec, truth: DistTable) -> float:
        drawn = engine.sample_interventional(network, probe, args.n, rng, workers=args.workers).restrict(truth.names)
        return scm.tvd(scm.empirical_distribution(drawn, truth.names), truth)

    return max(score(probe, truth) for probe, truth in probes)


def cmd_eval(args) -> int:
    rows = ["| query | fitted tvd | exact tvd |", "| --- | --- | --- |"]
    if args.catalog:
        entries = scm.catalog() if args.catalog == "all" else [scm.catalog_entry(args.catalog)]
        for entry in entries:
            # one generator per entry, so its rows do not depend on the entries run before it
            rng = _rng(args.seed)
            for query in entry.queries:
                rows.append(_eval_one(entry.name, entry.scm, query, args, rng))
    elif args.scm and args.query:
        model = scm.read_scm(args.scm)
        q = _load_query(args.query, model.graph)
        query = scm.CatalogQuery(q.targets, tuple(q.do_map), tuple(q.given_map),
                                 identifiable=_identify(q, model.graph).identifiable)
        rows.append(_eval_one(Path(args.scm).stem, model, query, args, _rng(args.seed)))
    else:
        raise InputError("provide --catalog, or both --scm and --query")
    print("\n".join(rows))
    return EXIT_OK


def cmd_gen_data(args) -> int:
    if args.n <= 0:
        raise InputError("--n must be positive")
    rng = _rng(args.seed)
    model = scm.read_scm(args.scm)
    data = scm.sample_observational(model, args.n, rng)
    out = Path(args.out)
    write_dataset_csv(data, out, out.with_suffix(".sidecar.json"))
    print(f"wrote {data.n} rows to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
