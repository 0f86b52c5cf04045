"""Ground-truth discrete structural causal models and the evaluation metrics.

An SCM here is fully tabular: independent categorical noise per variable, one
categorical latent per confounded pair, and a deterministic mechanism table
mapping (parent values, noise, incident latents) to an output state. It is
read as one sampling network, built once (`DiscreteScm.network`): the latent
priors, then each variable's kernel P(v | parents, incident latents), its
mechanism with the noise summed out. The engine's ancestral node loop draws
observational rows through it. The exact oracle every soundness test compares
against is that network's law (`engine.network_law`) with a point mass on
each do-variable, so `estimands.contract` eliminates its labels under its one
budget: the cost follows the tables elimination builds, not the exogenous
space, and the law of a few targets is reached where the joint is refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .engine import SamplingNetwork, _draw_nodes, network_law
from .estimands import DistTable, EvaluationError
from .graphs import Admg, Variable, format_graph, parse_graph
from .models import DataError, Dataset, ExactConditionalModel, empty_rows


class ScmError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteScm:
    """Tabular SCM over an ADMG; validated strictly positive at construction."""

    graph: Admg
    noise: dict[str, np.ndarray]  # name -> categorical probabilities
    latents: dict[tuple[str, str], np.ndarray]  # canonical bidirected pair -> probabilities
    mechanisms: dict[str, np.ndarray]  # name -> table over (parents..., noise, latents...)

    def __post_init__(self):
        g = self.graph
        pairs = g.latent_pairs()
        if set(self.latents) != set(pairs):
            raise ScmError("latent distributions must cover exactly the bidirected edges")
        for name in g.names:
            if name not in self.noise or name not in self.mechanisms:
                raise ScmError(f"missing noise or mechanism for {name}")
            if not _is_distribution(self.noise[name]):
                raise ScmError(f"bad noise distribution for {name}")
            mech = self.mechanisms[name]
            if mech.dtype.kind not in "iu":
                raise ScmError(f"mechanism for {name} must hold integers, not {mech.dtype}")
            expected = (*(g.variable(p).cardinality for p in g.parents(name)), len(self.noise[name]))
            expected += tuple(len(self.latents[p]) for p in pairs if name in p)
            if mech.shape != expected:
                raise ScmError(f"mechanism for {name}: shape {mech.shape} != {expected}")
            if mech.min() < 0 or mech.max() >= g.variable(name).cardinality:
                raise ScmError(f"mechanism for {name} emits out-of-range states")
        for pair, probs in self.latents.items():
            if not _is_distribution(probs):
                raise ScmError(f"bad latent distribution for {pair}")
        # positive priors and kernels give a positive joint; otherwise build it to see
        if any((model.table <= 0).any() for model in self.network.nodes.values()):
            if exact_joint(self).probs.min() <= 0:
                raise ScmError("observational joint is not strictly positive")

    @cached_property  # the oracle and every draw read it
    def network(self) -> SamplingNetwork:
        """A no-context node per latent of two or more states, holding its prior,
        named `~...u<k>` with a `~` more than any variable name starts with; then
        each variable's kernel. A one-state latent's kernel axes are sliced at 0."""
        g, probs = self.graph, self.latents
        pairs = g.latent_pairs()
        mark = "~" * (1 + max((len(n) - len(n.lstrip("~")) for n in g.names), default=0))
        latents = {p: Variable(f"{mark}u{k}", len(probs[p])) for k, p in enumerate(pairs) if len(probs[p]) > 1}
        nodes = {u.name: ExactConditionalModel(u, (), probs[p]) for p, u in latents.items()}
        for v in g.variables:
            parents = tuple(map(g.variable, g.parents(v.name)))
            incident = [p for p in pairs if v.name in p]
            cut = (slice(None),) * (len(parents) + 1) + tuple(slice(None) if p in latents else 0 for p in incident)
            hits = self.mechanisms[v.name][cut][..., None] == np.arange(v.cardinality)
            # (parents..., noise, latents..., v) times the noise prior: einsum keeps the axes named once, in order
            kernel = np.einsum(hits, list(range(hits.ndim)), self.noise[v.name], [len(parents)])
            context = parents + tuple(latents[p] for p in incident if p in latents)
            nodes[v.name] = ExactConditionalModel(v, context, kernel)
        order = (*(u.name for u in latents.values()), *g.topological_order())
        return SamplingNetwork({name: model.target for name, model in nodes.items()}, nodes, order)


def _is_distribution(probs: np.ndarray) -> bool:
    """Strictly positive 1-d probabilities summing to one (NaN fails every test)."""
    return probs.ndim == 1 and bool((probs > 0).all()) and abs(probs.sum() - 1.0) <= 1e-9


def sample_observational(m: DiscreteScm, n: int, rng: np.random.Generator) -> Dataset:
    """n rows drawn through `m.network` by the ancestral node loop: the latent
    nodes into a block of their own, freed on return, then each variable into
    the dataset's block, given its parents and latents."""
    if n <= 0:
        raise ScmError("sample count must be positive")
    g, h = m.graph, m.network
    rows = empty_rows(g.variables, n)  # first, so a request past memory is refused before any draw
    latents = h.node_order[: -len(g.names)]  # they come first
    block = empty_rows([h.variables[u] for u in latents], n)
    _draw_nodes(h, {**dict(zip(latents, block.T)), **dict(zip(g.names, rows.T))}, (), rng)
    return Dataset(g.variables, rows)


def exact_joint(m: DiscreteScm) -> DistTable:
    """Exact observational joint P(V), axes in declaration order."""
    return _law(m, {}, m.graph.names)


def exact_interventional(m: DiscreteScm, do: Mapping[str, int], keep: Sequence[str] | None = None) -> DistTable:
    """Exact P(keep | do(...)), `keep` every variable in declaration order by
    default: each do-variable's kernel becomes a point mass at its value."""
    return _law(m, do, m.graph.names if keep is None else keep)


def _law(m: DiscreteScm, do: Mapping[str, int], keep: Sequence[str]) -> DistTable:
    """`engine.network_law` of `m.network` with the do-variables' nodes left
    empty and point masses on them; a refused contraction is an `ScmError`."""
    masses = []
    for name, value in do.items():
        v = m.graph.variable(name)
        if not 0 <= value < v.cardinality:
            raise ScmError(f"do value {value} out of range for {name}")
        masses.append(DistTable((v,), np.eye(v.cardinality)[value]))
    try:
        return network_law(replace(m.network, nodes={**m.network.nodes, **dict.fromkeys(do)}), masses, keep)
    except EvaluationError as exc:
        raise ScmError(str(exc)) from None


# -- metrics ---------------------------------------------------------------------


def tvd(p: DistTable, q: DistTable) -> float:
    """Total variation distance, half the L1 distance between the tables."""
    if p.variables != q.variables:
        raise ScmError("tvd requires identical variable sets and ordering")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def empirical_distribution(d: Dataset, names: Iterable[str]) -> DistTable:
    """Normalized joint frequency table of the given columns."""
    if d.n == 0:
        raise DataError("empty dataset")
    names = list(names)
    return DistTable(tuple(d.variable(n) for n in names), d.counts(names) / d.n)


def sampling_tolerance(k: int, n: int, base: float = 0.01) -> float:
    """Monte-Carlo slack used by the soundness checks: base + 3 * sqrt(k / n)."""
    return base + 3.0 * math.sqrt(k / n)


# -- catalog ---------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogQuery:
    targets: tuple[str, ...]
    do: tuple[str, ...]
    given: tuple[str, ...] = ()
    identifiable: bool = True


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    scm: DiscreteScm
    queries: tuple[CatalogQuery, ...]


FOLLOW_PROBABILITY = 0.8


def noisy_copy_scm(graph: Admg) -> DiscreteScm:
    """SCM whose mechanisms follow the parity of their inputs with probability
    0.8 and otherwise emit a uniform state; sources get a mildly biased
    categorical. Strictly positive by construction, with every edge visible."""
    noise: dict[str, np.ndarray] = {}
    latents: dict[tuple[str, str], np.ndarray] = {}
    mechanisms: dict[str, np.ndarray] = {}
    for pair in graph.latent_pairs():
        # biased, else a fair confounder XORed into the parity washes effects out
        latents[pair] = np.array([0.3, 0.7])
    for v in graph.variables:
        k = v.cardinality
        parents = graph.parents(v.name)
        incident = [p for p in latents if v.name in p]
        in_dims = [graph.variable(p).cardinality for p in parents] + [2] * len(incident)
        if not in_dims:
            weights = np.arange(2, k + 2, dtype=float)
            noise[v.name] = weights / weights.sum()
            mechanisms[v.name] = np.arange(k, dtype=np.int64)
            continue
        noise[v.name] = np.array([FOLLOW_PROBABILITY] + [(1 - FOLLOW_PROBABILITY) / k] * k)
        grid = np.indices(tuple(in_dims))
        parity = np.sum(grid, axis=0) % k
        table = np.zeros(tuple(in_dims) + (k + 1,), dtype=np.int64)
        table[..., 0] = parity
        for state in range(k):
            table[..., state + 1] = state
        # mechanism axes are (parents..., noise, latents...)
        mechanisms[v.name] = np.moveaxis(table, -1, len(parents))
    return DiscreteScm(graph, noise, latents, mechanisms)


# name -> (variables, directed edges, bidirected edges, queries), in catalog order
_CATALOG = {
    "frontdoor": (
        [("X", 2), ("S", 2), ("R", 2)],
        [("X", "S"), ("S", "R")],
        [("X", "R")],
        (CatalogQuery(("R",), ("X",)),),
    ),
    "backdoor": (
        [("A", 2), ("B", 2), ("V", 2), ("I", 2)],
        [("A", "B"), ("A", "V"), ("B", "V"), ("V", "I")],
        [("B", "I")],
        (CatalogQuery(("I",), ("V",)), CatalogQuery(("I",), ("V",), given=("A",))),
    ),
    "zigzag": (
        [("X", 2), ("W1", 2), ("W2", 2), ("Y", 2)],
        [("X", "W1"), ("W1", "W2"), ("W2", "Y")],
        [("X", "W2"), ("W1", "Y")],
        (CatalogQuery(("Y",), ("X",)),),
    ),
    "napkin": (
        [("W1", 2), ("W2", 2), ("X", 2), ("Y", 2)],
        [("W1", "W2"), ("W2", "X"), ("X", "Y")],
        [("W1", "X"), ("W1", "Y")],
        (CatalogQuery(("Y",), ("X",)), CatalogQuery(("Y",), ("W1",))),
    ),
    "double_napkin": (
        [("W3", 2), ("W4", 2), ("R", 2), ("W2", 2), ("W1", 2), ("X", 2)],
        [("W3", "W4"), ("R", "W2"), ("W2", "W1"), ("W4", "W1"), ("W1", "X"), ("W2", "X")],
        [("W3", "W2"), ("R", "W1"), ("R", "X")],
        (CatalogQuery(("W1", "W2", "W3", "W4", "X"), ("R",)),),
    ),
    "bow": ([("X", 2), ("Y", 2)], [("X", "Y")], [("X", "Y")], (CatalogQuery(("Y",), ("X",), identifiable=False),)),
}


def catalog_entry(name: str) -> CatalogEntry:
    """One reference SCM with its queries; their identifiability flags are
    re-verified against symbolic identification as it is built."""
    from .identify import identify_effect  # local import avoids a cycle at import time

    if name not in _CATALOG:
        raise ScmError(f"no catalog entry named {name!r}")
    variables, directed, bidirected, queries = _CATALOG[name]
    graph = Admg([Variable(n, c) for n, c in variables], directed, bidirected)
    for q in queries:
        if identify_effect(q.targets, q.do, graph).identifiable != q.identifiable:
            raise ScmError(f"catalog flag mismatch for {name}: {q}")
    return CatalogEntry(name, noisy_copy_scm(graph), queries)


def catalog() -> list[CatalogEntry]:
    """Every reference SCM with its queries, in catalog order."""
    return [catalog_entry(name) for name in _CATALOG]


# -- text format -------------------------------------------------------------------
#
# Mechanism file, one line per mechanism row; the referenced graph file defines
# the variables and edges:
#
#   graph frontdoor.graph
#   noise X 0.4 0.6
#   latent X R 0.5 0.5
#   mech R <parent values> <noise value> <latent values> <output>


def write_scm(m: DiscreteScm, mech_path: str | Path, graph_path: str | Path):
    mech_path, graph_path = Path(mech_path), Path(graph_path)
    graph_path.write_text(format_graph(m.graph))
    lines = [f"graph {graph_path.name}"]
    for name in m.graph.names:
        lines.append(f"noise {name} " + " ".join(f"{p:.12g}" for p in m.noise[name]))
    for pair in m.graph.latent_pairs():
        lines.append(f"latent {pair[0]} {pair[1]} " + " ".join(f"{p:.12g}" for p in m.latents[pair]))
    for name in m.graph.names:
        mech = m.mechanisms[name]
        for idx in np.ndindex(mech.shape):
            fields = [str(i) for i in idx] + [str(int(mech[idx]))]
            lines.append(f"mech {name} " + " ".join(fields))
    mech_path.write_text("\n".join(lines) + "\n")


# fields a declaration needs at least, its keyword included
_MIN_FIELDS = {"graph": 2, "noise": 3, "latent": 4, "mech": 4}


def read_scm(mech_path: str | Path) -> DiscreteScm:
    mech_path = Path(mech_path)
    graph: Admg | None = None
    noise: dict[str, np.ndarray] = {}
    latents: dict[tuple[str, str], np.ndarray] = {}
    raw_mech: dict[str, list[tuple[tuple[int, ...], int, int]]] = {}
    named: list[tuple[str, int]] = []  # (variable, line) for each name a declaration refers to
    first: dict[tuple[str, frozenset[str]], int] = {}  # line of each graph, noise and latent declaration
    for lineno, rawline in enumerate(mech_path.read_text().splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        where = f"{mech_path}:{lineno}"
        if kind not in _MIN_FIELDS:
            raise ScmError(f"{where}: unknown declaration {kind!r}")
        if len(fields) < _MIN_FIELDS[kind]:
            raise ScmError(f"{where}: {kind} needs at least {_MIN_FIELDS[kind] - 1} fields")
        declared = tuple(fields[1 : {"graph": 1, "latent": 3}.get(kind, 2)])  # the names it is about
        named += [(name, lineno) for name in declared]
        try:
            if kind == "graph":
                graph = parse_graph((mech_path.parent / fields[1]).read_text())
            elif kind == "mech":
                idx = tuple(int(f) for f in fields[2:-1])
                raw_mech.setdefault(fields[1], []).append((idx, int(fields[-1]), lineno))
            else:
                probs = np.array([float(f) for f in fields[len(declared) + 1 :]])
                if not _is_distribution(probs):
                    raise ValueError(f"bad {kind} distribution for {' '.join(declared)}")
                if kind == "noise":
                    noise[declared[0]] = probs
                else:
                    latents[declared] = probs
        except (OSError, ValueError) as exc:  # ValueError covers GraphError and bad numbers
            raise ScmError(f"{where}: {exc}") from None
        if kind != "mech":
            at = first.setdefault((kind, frozenset(declared)), lineno)
            if at != lineno:
                raise ScmError(f"{where}: repeated {' '.join((kind, *declared))} (first at line {at})")
    if graph is None:
        raise ScmError(f"{mech_path}: missing graph declaration")
    known = set(graph.names)
    for name, lineno in named:
        if name not in known:
            raise ScmError(f"{mech_path}:{lineno}: {name!r} is not a variable of the graph")
    mechanisms: dict[str, np.ndarray] = {}
    for name in graph.names:
        rows = raw_mech.get(name, [])
        if not rows:
            raise ScmError(f"{mech_path}: no mechanism rows for {name}")
        cells: dict[tuple[int, ...], int] = {}
        for idx, value, lineno in rows:
            if len(idx) != len(rows[0][0]) or min(idx) < 0 or idx in cells:
                raise ScmError(f"{mech_path}:{lineno}: mechanism row for {name} is out of shape or repeated")
            if not 0 <= value < graph.variable(name).cardinality:
                raise ScmError(f"{mech_path}:{lineno}: mechanism for {name} emits out-of-range state {value}")
            cells[idx] = value
        shape = tuple(max(i[d] for i in cells) + 1 for d in range(len(rows[0][0])))
        if len(cells) != math.prod(shape):
            raise ScmError(f"{mech_path}: incomplete mechanism table for {name}")
        table = np.zeros(shape, dtype=np.int64)
        for idx, value in cells.items():
            table[idx] = value
        mechanisms[name] = table
    canonical = {tuple(sorted(p, key=graph.index)): probs for p, probs in latents.items()}
    return DiscreteScm(graph, noise, canonical, mechanisms)
