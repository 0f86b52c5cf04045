"""Compiles an interventional query into an executable network of conditional samplers.

The compiler is the second interpreter of the one ID recursion,
`identify.run_id`; the symbolic estimand is the first. `BuildContext` reads
each step as work on data instead of algebra: base cases fit one model per
variable on the current data, the factorization step merges the networks built
for the confounded components, and the partial-intervention step redraws the
working dataset under do(X_Z) before the recursion goes on. Ancestral
evaluation of the finished network yields samples from the interventional
distribution.

Two interchangeable data sources drive the fits: a finite dataset (CPT fits,
the end-to-end pipeline) and the law of a sampling network such as an SCM's
(exact conditionals, used to isolate network correctness from estimation
error). The recursion reads a source through `fit(target, context)`,
`marginal_table(names)` and `regenerate(inner, multiplier, rng)`, which
returns the step-7 source drawn from the inner network's models, the
proposal's (`proposal_models`) on the newly intervened variables included; the
placeholders left empty, the anchors (the intervention history), keep the
current source's values. Step 7 hands `regenerate` only the ancestors of s'
in the inner network (`SamplingNetwork.ancestral`), so both sources draw or
contract only the columns the rest of the recursion reads: the working
graph's variables and the history variables that are parents of one of them.
A source is never narrowed otherwise: it may hold columns beyond these, and
only their names are read.
`network_law` is the one definition of a network's distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .estimands import DistTable, contract
from .graphs import Admg, GraphError, Variable
from .identify import Hedge, NotIdentifiable, TraceEntry, check_query, maximal_rule2_shift, run_id
from .models import (
    ConditionalModel,
    CptModel,
    Dataset,
    empty_rows,
    exact_conditional,
    fit_conditional,
)


class EngineError(RuntimeError):
    pass


class MergeConflict(EngineError):
    """Two sibling networks both produced a model for the same variable."""


# -- queries --------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """An interventional query: targets, do-assignment, optional conditioning."""

    targets: tuple[str, ...]
    do: tuple[tuple[str, int], ...] = ()
    given: tuple[tuple[str, int], ...] = ()

    @property
    def do_map(self) -> dict[str, int]:
        return dict(self.do)

    @property
    def given_map(self) -> dict[str, int]:
        return dict(self.given)

    def validate(self, g: Admg):
        check_query(self.targets, self.do_map, g, self.given_map)
        for name, value in self.do + self.given:
            if not 0 <= value < g.variable(name).cardinality:
                raise GraphError(f"value {value} out of range for {name}")


def parse_query(text: str) -> QuerySpec:
    fields: dict[str, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GraphError(f"query line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("target", "do", "given"):
            raise GraphError(f"query line {lineno}: unknown key {key!r}")
        if key in fields:
            raise GraphError(f"query line {lineno}: repeated key {key!r}")
        items = [item.strip() for item in value.split(",") if item.strip()]
        if key == "target":
            entries = names = tuple(items)
        else:
            entries = tuple(_assignment(item, lineno) for item in items)
            names = tuple(name for name, _ in entries)
        repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if repeated is not None:
            raise GraphError(f"query line {lineno}: {repeated!r} is listed twice")
        fields[key] = entries
    return QuerySpec(fields.get("target", ()), fields.get("do", ()), fields.get("given", ()))


def _assignment(item: str, lineno: int) -> tuple[str, int]:
    name, sep, val = item.partition("=")
    if not sep:
        raise GraphError(f"query line {lineno}: expected var=value in {item!r}")
    try:
        return name.strip(), int(val)
    except ValueError:
        raise GraphError(f"query line {lineno}: value of {name.strip()!r} is not an integer") from None


def format_query(q: QuerySpec) -> str:
    lines = ["target=" + ",".join(q.targets)]
    if q.do:
        lines.append("do=" + ",".join(f"{n}={v}" for n, v in q.do))
    if q.given:
        lines.append("given=" + ",".join(f"{n}={v}" for n, v in q.given))
    return "\n".join(lines) + "\n"


# -- sampling networks ------------------------------------------------------------


@dataclass
class SamplingNetwork:
    """DAG of conditional samplers plus empty input placeholders.

    `global_order` is the root graph's topological order; every model's context
    precedes its target in it, which is what keeps merged networks acyclic. A
    conditional sampler's network orders its context (the do- and given-
    variables) before its targets instead, since conditioning may run against
    the causal order.
    The placeholders are the inputs sampling must fix: the query's surviving
    do-variables (and a conditional sampler's given-variables); a step-7 inner
    network also holds history placeholders, which regeneration fills.
    """

    variables: dict[str, Variable]
    nodes: dict[str, ConditionalModel | None]
    global_order: tuple[str, ...]

    def __post_init__(self):
        self.validate()

    @property
    def node_order(self) -> list[str]:
        return [n for n in self.global_order if n in self.nodes]

    def empty_nodes(self) -> list[str]:
        return [n for n in self.node_order if self.nodes[n] is None]

    def ancestral(self, names: Iterable[str]) -> SamplingNetwork:
        """The network of `names` and, recursively, every node their models read."""
        keep = set(names)
        for name in reversed(self.node_order):  # a model's context precedes it
            if name in keep and self.nodes[name] is not None:
                keep.update(self.nodes[name].context_names)
        nodes = {n: m for n, m in self.nodes.items() if n in keep}
        return SamplingNetwork({n: self.variables[n] for n in nodes}, nodes, self.global_order)

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for name in self.node_order:
            model = self.nodes[name]
            if model is not None:
                out.extend((c, name) for c in model.context_names)
        return out

    def validate(self):
        position = {n: i for i, n in enumerate(self.global_order)}
        for name in self.nodes:
            if name not in self.variables or name not in position:
                raise EngineError(f"node {name} missing variable or ordering info")
        for name, model in self.nodes.items():
            if model is None:
                continue
            if model.target.name != name:
                raise EngineError(f"node {name} holds a model for {model.target.name}")
            for v in (model.target, *model.context):
                if v.name not in self.nodes:
                    raise EngineError(f"node {name} depends on absent node {v.name}")
                if v != self.variables[v.name]:
                    raise EngineError(
                        f"node {name}: the model's {v.name} has cardinality {v.cardinality}, "
                        f"the network's {self.variables[v.name].cardinality}"
                    )
                if v.name != name and position[v.name] >= position[name]:
                    raise EngineError(f"edge {v.name} -> {name} violates the global order")


def merge_networks(parts: Sequence[SamplingNetwork]) -> SamplingNetwork:
    """Unify placeholder nodes with the sibling network that produces them."""
    if not parts:
        raise EngineError("nothing to merge")
    order = parts[0].global_order
    for p in parts[1:]:
        if p.global_order != order:
            raise EngineError("sibling networks disagree on the global order")
    variables: dict[str, Variable] = {}
    nodes: dict[str, ConditionalModel | None] = {}
    for part in parts:
        for name in part.node_order:
            model = part.nodes[name]
            if name not in nodes:
                variables[name] = part.variables[name]
                nodes[name] = model
            elif model is not None:
                if nodes[name] is not None:
                    raise MergeConflict(f"two models produce {name}")
                nodes[name] = model
    return SamplingNetwork(variables, nodes, order)


def ancestral_sample(
    h: SamplingNetwork,
    fixed: Mapping[str, int],
    n: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> Dataset:
    """Evaluate the network in global order, n rows, returning the full joint.

    Every placeholder must be fixed: a default would draw a mixture, not an
    intervention. Rows are exchangeable, so `workers` seeded streams split the
    rows into as many chunks, drawn in turn on the calling thread into their
    own rows of one block; the rows depend on `workers` alone.
    """
    if n <= 0:
        raise EngineError("sample count must be positive")
    if workers < 1:
        raise EngineError(f"workers must be at least 1, got {workers}")
    unset = [name for name in h.empty_nodes() if name not in fixed]
    if unset:
        raise EngineError(f"sampling must fix the network inputs {unset}")
    for name, value in fixed.items():
        if name not in h.nodes:
            raise EngineError(f"fixed value for non-node {name}")
        if not 0 <= value < h.variables[name].cardinality:
            raise EngineError(f"fixed value {value} out of range for {name}")

    workers = min(workers, n)
    size, extra = divmod(n, workers)
    bounds = [i * size + min(i, extra) for i in range(workers + 1)]  # the first `extra` chunks get a row more
    streams = rng.spawn(workers)
    variables = tuple(h.variables[name] for name in h.node_order)
    rows = empty_rows(variables, n)
    cols = _node_columns(h, rows)
    for name, value in fixed.items():
        cols[name][:] = value
    for start, stop, stream in zip(bounds, bounds[1:], streams):
        _draw_nodes(h, _node_columns(h, rows[start:stop]), fixed, stream)
    return Dataset(variables, rows, frozenset(fixed))


def network_law(h: SamplingNetwork, inputs: Iterable[DistTable], keep: Sequence[str]) -> DistTable:
    """The law of `keep` under the network: one `contract` over the `inputs`,
    tables on its placeholders (point masses at do-values, say), and every
    model's conditional table. The inputs must cover each placeholder a model reads."""
    factors = [(t.names, t.probs) for t in inputs]
    models = [h.nodes[n] for n in h.node_order if h.nodes[n] is not None]
    factors += [(m.context_names + (m.target.name,), m.table) for m in models]
    probs = contract(factors, keep)  # first, so it refuses a name no table holds
    return DistTable(tuple(h.variables[n] for n in keep), probs)


def _node_columns(h: SamplingNetwork, rows: np.ndarray) -> dict[str, np.ndarray]:
    """The columns of an (n, nodes) block in node order, by node name."""
    return dict(zip(h.node_order, rows.T))


def _draw_nodes(h: SamplingNetwork, cols: Mapping[str, np.ndarray], filled: Iterable[str],
                rng: np.random.Generator) -> None:
    """Fill, in node order, the columns of `cols`, one of n rows per node by
    name, that `filled` does not name, each drawn from its node's model given
    the columns before it; `filled` must name every placeholder."""
    for name in h.node_order:
        if name not in filled:
            h.nodes[name].sample_n(cols, len(cols[name]), rng, out=cols[name])


def format_network(h: SamplingNetwork) -> str:
    """Deterministic textual manifest: nodes, model kinds, contexts, payloads."""
    lines = ["order " + " ".join(h.node_order)]
    for name in h.node_order:
        model = h.nodes[name]
        card = h.variables[name].cardinality
        if model is None:
            lines.append(f"node {name} kind=placeholder card={card}")
            continue
        parts = [f"node {name} kind={model.kind} card={card}"]
        if model.context_names:
            parts.append("context=" + ",".join(model.context_names))
        table = model.table.reshape(-1, card)
        payload = ";".join(",".join(f"{p:.12g}" for p in row) for row in table)
        parts.append("table=" + payload)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# -- data sources -----------------------------------------------------------------


class DatasetSource:
    """Finite-sample source: CPT fits with Laplace smoothing, sampled regeneration."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset

    @property
    def columns(self) -> tuple[str, ...]:
        return self.dataset.names

    def fit(self, target: str, context: Sequence[str]) -> ConditionalModel:
        return fit_conditional(self.dataset, target, context)

    def marginal_table(self, names: Sequence[str]) -> DistTable:
        smoothed = self.dataset.counts(names) + 1.0
        return DistTable(tuple(self.dataset.variable(n) for n in names), smoothed / smoothed.sum())

    def regenerate(self, inner: SamplingNetwork, multiplier: float, rng: np.random.Generator) -> DatasetSource:
        # the anchors (the placeholders of `inner`) cycle through the current rows,
        # and every model of `inner`, the proposal's included, is sampled ancestrally
        n_new = max(1, int(round(self.dataset.n * multiplier)))
        variables = tuple(inner.variables[name] for name in inner.node_order)
        rows = empty_rows(variables, n_new)
        cols = _node_columns(inner, rows)
        anchors = inner.empty_nodes()
        for name in anchors:
            cols[name][:] = np.resize(self.dataset.column(name), n_new)
        _draw_nodes(inner, cols, anchors, rng)
        return DatasetSource(Dataset(variables, rows))


class ExactSource:
    """Exact source, no estimation error: the law of `network` with `inputs`,
    tables on its placeholders, read through `network_law`. A joint table `t`
    is the law of the network of its placeholders fed by it, `ExactSource(
    SamplingNetwork(dict(zip(t.names, t.variables)), dict.fromkeys(t.names), t.names), [t])`.
    The network is never mutated; it may be an SCM's cached `network`."""

    def __init__(self, network: SamplingNetwork, inputs: Sequence[DistTable] = ()):
        self.network = network
        self.inputs = inputs

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.network.node_order)

    def fit(self, target: str, context: Sequence[str]) -> ConditionalModel:
        return exact_conditional(self.marginal_table([*context, target]), target, context)

    def marginal_table(self, names: Sequence[str]) -> DistTable:
        return network_law(self.network, self.inputs, names)

    def regenerate(self, inner: SamplingNetwork, multiplier: float, rng: np.random.Generator) -> ExactSource:
        # analytic counterpart of sampled regeneration: the anchors' marginal
        # feeds the models of `inner`, the proposal's included
        anchors = inner.empty_nodes()
        return ExactSource(inner, [self.marginal_table(anchors)] if anchors else [])


# -- the recursion ------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionState:
    """One level of the compile recursion: the query `y` given do(`x`) on the
    working graph `g`, then the payload: the data source, the accumulated
    partially-applied interventions `x_hat`, and the history graph `g_hat`.
    `g_hat` is the root graph with the edges into `x_hat` and the bidirected
    edges at `x_hat` removed; it is never narrowed, since a model's c-factor
    context is read along the order of `x_hat` and `g`'s names, which sees only
    the graph induced on them. The source has a column for every variable the
    recursion reads: those of `g`, and each `x_hat` variable that is a parent
    of one of them in `g_hat`. That covers every c-factor context, since
    `x_hat` has no bidirected edges and a node's parents lie in its context,
    the `marginal` proposal, which reads `x` within `g`, and a nested step 7's
    anchors, the history its models read. It may have more, which are never read.
    """

    y: frozenset[str]
    x: frozenset[str]
    g: Admg
    source: DatasetSource | ExactSource
    x_hat: frozenset[str]
    g_hat: Admg

    def __post_init__(self):
        if not self.x_hat <= set(self.g_hat.names):
            raise EngineError("x_hat must be part of g_hat")
        if not self.x_hat.isdisjoint(self.g.names):
            raise EngineError("x_hat must be disjoint from g")
        if any(self.g_hat.parents(n) or any(n in p for p in self.g_hat.bidirected) for n in self.x_hat):
            raise EngineError("x_hat must have no parents or bidirected edges in g_hat")
        read = set(self.g.names)
        if self.x_hat:
            read.update(p for n in self.g.names for p in self.g_hat.parents(n) if p in self.x_hat)
        if not read <= set(self.source.columns):
            raise EngineError("data source must have a column for every variable of g and every x_hat parent of one")


@dataclass
class BuildContext:
    """Reads the ID recursion (`identify.run_id`) as building a sampling network
    on `RecursionState`s, through `fit_conditional_models`, `merge_networks`
    and `apply_partial_intervention`."""

    root_order: tuple[str, ...]
    proposal: str = "uniform"
    dprime_mult: float = 1.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    trace: list[TraceEntry] = field(default_factory=list)

    def s1_leaf(self, state: RecursionState) -> SamplingNetwork:
        # with nothing to intervene on, model every remaining variable
        return fit_conditional_models(frozenset(state.g.names), frozenset(), state, self)

    def s4_combine(self, state: RecursionState, parts: list[SamplingNetwork]) -> SamplingNetwork:
        return merge_networks(parts)

    def s6_leaf(self, state: RecursionState, s: frozenset[str]) -> SamplingNetwork:
        return fit_conditional_models(s, state.x, state, self)

    def s7_intervene(self, state: RecursionState, s_prime: frozenset[str]) -> RecursionState:
        return apply_partial_intervention(s_prime, state, self)


@dataclass
class BuildResult:
    network: SamplingNetwork | None
    hedge: Hedge | None
    trace: list[TraceEntry]

    @property
    def identifiable(self) -> bool:
        return self.hedge is None


def build_network(
    y: Iterable[str],
    x: Iterable[str],
    g: Admg,
    source: DatasetSource | ExactSource,
    proposal: str = "uniform",
    dprime_mult: float = 1.0,
    rng: np.random.Generator | None = None,
) -> BuildResult:
    """Compile P(y | do(x)) against the given data source into a sampling network
    whose placeholders are the do-variables that survive the recursion."""
    y, x, _ = check_query(y, x, g)
    if proposal not in ("uniform", "marginal"):
        raise EngineError(f"unknown proposal {proposal!r}")
    if not (math.isfinite(dprime_mult) and dprime_mult > 0):
        raise EngineError(f"dprime_mult must be finite and positive, got {dprime_mult}")
    state = RecursionState(y, x, g, source, frozenset(), g)
    ctx = BuildContext(
        root_order=tuple(g.topological_order()),
        proposal=proposal,
        dprime_mult=dprime_mult,
        rng=rng if rng is not None else np.random.default_rng(0),
    )
    try:
        network = run_id(state, ctx)
    except NotIdentifiable as fail:
        return BuildResult(None, fail.hedge, ctx.trace)
    history = set(network.empty_nodes()) - x
    stray = sorted(history & {name for name, _ in network.edges()})
    if stray:
        raise EngineError(f"models read the placeholders {stray}, which are not do-variables")
    for name in history:
        del network.nodes[name], network.variables[name]
    return BuildResult(network, None, ctx.trace)


def fit_conditional_models(
    y: frozenset[str], x: frozenset[str], state: RecursionState, ctx: BuildContext
) -> SamplingNetwork:
    """Fit one conditional sampler per modelled variable, in the root order of the
    history and working variables; intervention and history variables become
    placeholders. Each model's context is its `Admg.c_factor_context` along that
    order in the history graph, which gives the law of conditioning on every
    variable before it."""
    g_hat = state.g_hat
    placeholders = sorted(x | state.x_hat, key=ctx.root_order.index)
    nodes: dict[str, ConditionalModel | None] = dict.fromkeys(placeholders)
    names = state.x_hat.union(state.g.names)
    order = [n for n in ctx.root_order if n in names]
    for name in order:
        if name in y:
            nodes[name] = state.source.fit(name, g_hat.c_factor_context(order, name))
    return SamplingNetwork({name: g_hat.variable(name) for name in nodes}, nodes, ctx.root_order)


def apply_partial_intervention(
    s_prime: frozenset[str], state: RecursionState, ctx: BuildContext
) -> RecursionState:
    """Apply do(X_Z) for X_Z = x minus s_prime: fit samplers for s_prime, redraw
    the working data with X_Z from the proposal, narrow the query and the
    working graph to s_prime, and cut X_Z's incoming edges from the history graph.
    The redrawn data hold s_prime's ancestors in the inner network alone: the
    rest of the recursion reads s_prime and what its models read."""
    if not s_prime:
        raise EngineError("empty component for partial intervention")
    x_z = state.x - s_prime
    inner = fit_conditional_models(s_prime, x_z, state, ctx)
    models = proposal_models(ctx.proposal, sorted(x_z, key=ctx.root_order.index), state.g_hat, state.source)
    inner = replace(inner, nodes={**inner.nodes, **models}).ancestral(s_prime)
    source = state.source.regenerate(inner, ctx.dprime_mult, ctx.rng)
    return RecursionState(state.y, state.x & s_prime, state.g.induced_subgraph(s_prime), source,
                          state.x_hat | x_z, state.g_hat.remove_incoming(x_z))


def proposal_models(
    proposal: str, names: Sequence[str], g: Admg, source: DatasetSource | ExactSource
) -> dict[str, ConditionalModel]:
    """The models regeneration draws newly intervened variables from, one per
    name, each given the names before it: `uniform`, a flat row per variable,
    or `marginal`, the chain rule of the source's (smoothed) joint of their
    columns. Placed on the placeholders of a network, they make it draw them."""
    if proposal == "marginal":
        table = source.marginal_table(names)
        return {name: exact_conditional(table, name, names[:i]) for i, name in enumerate(names)}
    return {v.name: CptModel(v, (), np.full(v.cardinality, 1.0 / v.cardinality)) for v in map(g.variable, names)}


# -- sampling a finished network ------------------------------------------------------


def sample_interventional(
    h: SamplingNetwork,
    query: QuerySpec,
    n: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> Dataset:
    """Fix the do- and given-values and ancestrally sample the full joint.

    Do-variables the compiler pruned as irrelevant to the targets are not
    network nodes; their values cannot influence the draw and are ignored.
    Every placeholder is an input the query must fix."""
    fixed = {name: value for name, value in query.do + query.given if name in h.nodes}
    return ancestral_sample(h, fixed, n, rng, workers=workers)


# -- conditional interventional queries -------------------------------------------------


def build_conditional_sampler(
    query: QuerySpec,
    g: Admg,
    source: DatasetSource | ExactSource,
    proposal: str = "uniform",
    dprime_mult: float = 1.0,
    rng: np.random.Generator | None = None,
) -> BuildResult:
    """Network sampling P(y | do(x), z): shift the maximal rule-2 subset of z
    into the do-set, compile the network for P(y, z | do(x)), and regenerate the
    source through it as step 7 does, its inputs (the surviving do-variables)
    drawn from `proposal_models` and `dprime_mult` times the source's rows. Each
    target is then fitted on the regenerated source, given the do- and
    given-variables and the targets before it; an `ExactSource` thus yields
    exact conditionals. The result carries the inner compile's trace, and its
    hedge when P(y, z | do(x)) is not identifiable, with no network.
    `sample_interventional` draws from its `network` with the query's do- and
    given-values fixed."""
    if not query.given:
        raise GraphError("conditional sampler requires a non-empty conditioning set")
    query.validate(g)
    rng = rng if rng is not None else np.random.default_rng(0)
    y = frozenset(query.targets)
    x, z = maximal_rule2_shift(y, frozenset(query.do_map), frozenset(query.given_map), g)

    result = build_network(y | z, x, g, source, proposal=proposal, dprime_mult=dprime_mult, rng=rng)
    if not result.identifiable:
        return result
    network = result.network
    models = proposal_models(proposal, network.empty_nodes(), g, source)
    train = source.regenerate(replace(network, nodes={**network.nodes, **models}), dprime_mult, rng)

    keep = [n for n in network.node_order if n in y | z | x]
    context = [n for n in keep if n not in y]
    targets = [n for n in keep if n in y]
    nodes: dict[str, ConditionalModel | None] = dict.fromkeys(context)
    for i, t in enumerate(targets):
        nodes[t] = train.fit(t, context + targets[:i])
    return replace(result, network=SamplingNetwork({n: g.variable(n) for n in keep}, nodes, tuple(context + targets)))
