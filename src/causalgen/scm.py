"""Ground-truth discrete structural causal models and the evaluation metrics.

An SCM here is fully tabular: independent categorical noise per variable, one
categorical latent per confounded pair, and a deterministic mechanism table
mapping (parent values, noise, incident latents) to an output state. Exact
joints and interventionals, which every soundness test compares against, are
computed by factor elimination (variable elimination, Koller & Friedman,
*Probabilistic Graphical Models*, ch. 9): each variable's private noise is
summed into a kernel P(v | parents, incident latents), and the kernels and
latent priors are contracted with `np.einsum`, one latent at a time.
`ENUMERATION_BUDGET` bounds the cells of every table the contraction builds,
the output joint included, so the cost follows the size of the joint table
rather than the size of the exogenous space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .estimands import DistTable, Factor, contract
from .graphs import Admg, Variable, format_graph, parse_graph
from .models import DRAW_CHUNK_ROWS, DataError, Dataset, draw_categorical, empty_rows, joint_index

ENUMERATION_BUDGET = 10_000_000


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
            expected = self._mech_shape(name)
            if mech.shape != expected:
                raise ScmError(f"mechanism for {name}: shape {mech.shape} != {expected}")
            if mech.min() < 0 or mech.max() >= g.variable(name).cardinality:
                raise ScmError(f"mechanism for {name} emits out-of-range states")
        for pair, probs in self.latents.items():
            if not _is_distribution(probs):
                raise ScmError(f"bad latent distribution for {pair}")
        joint = exact_joint(self)
        if joint.probs.min() <= 0:
            raise ScmError("observational joint is not strictly positive")

    def incident_latents(self, name: str) -> list[tuple[str, str]]:
        return [p for p in self.graph.latent_pairs() if name in p]

    def _mech_shape(self, name: str) -> tuple[int, ...]:
        g = self.graph
        shape = [g.variable(p).cardinality for p in g.parents(name)]
        shape.append(self.noise[name].shape[0])
        shape.extend(self.latents[p].shape[0] for p in self.incident_latents(name))
        return tuple(shape)


def _is_distribution(probs: np.ndarray) -> bool:
    """Strictly positive 1-d probabilities summing to one (NaN fails every test)."""
    return probs.ndim == 1 and bool(np.all(probs > 0)) and abs(probs.sum() - 1.0) <= 1e-9


def sample_observational(m: DiscreteScm, n: int, rng: np.random.Generator) -> Dataset:
    """Draw exogenous values independently per row and push through the mechanisms,
    dropping each noise or latent column once its last variable is computed. A
    variable's states are read from its flattened mechanism at the `joint_index`
    of (parents, noise, latents), `DRAW_CHUNK_ROWS` rows at a time, since
    `np.take` casts its index to intp."""
    if n <= 0:
        raise ScmError("sample count must be positive")
    g = m.graph
    rows = empty_rows(g.variables, n)  # first, so a request past memory is refused before any draw
    noise = {name: draw_categorical(m.noise[name], (), n, rng) for name in g.names}
    latents = {pair: draw_categorical(m.latents[pair], (), n, rng) for pair in g.latent_pairs()}
    order = g.topological_order()
    last = {pair: max(pair, key=order.index) for pair in latents}
    values = dict(zip(g.names, rows.T))
    for name in order:
        inputs = [values[p] for p in g.parents(name)] + [noise.pop(name)]
        inputs.extend(latents.pop(p) if last[p] == name else latents[p] for p in m.incident_latents(name))
        mech = m.mechanisms[name]
        # the mechanism's states fit the column's dtype, so the take writes no int64 copy
        flat, out = mech.astype(rows.dtype).ravel(), values[name]
        for start in range(0, n, DRAW_CHUNK_ROWS):
            stop = min(start + DRAW_CHUNK_ROWS, n)
            index = joint_index([c[start:stop] for c in inputs], mech.shape, stop - start)
            np.take(flat, index, out=out[start:stop])
        del inputs  # its noise column, and a latent read for the last time, go now
    return Dataset(g.variables, rows)


def _kernel(m: DiscreteScm, name: str) -> np.ndarray:
    """P(name | parents, incident latents): the mechanism with its private noise
    summed out; axes (parents..., latents..., name)."""
    states = np.arange(m.graph.variable(name).cardinality)
    hits = m.mechanisms[name][..., None] == states
    return np.tensordot(hits, m.noise[name], axes=(len(m.graph.parents(name)), 0))


def _product(factors: Sequence[Factor], keep: Sequence) -> np.ndarray:
    """`contract` under the enumeration budget on the output's cells."""
    dims = {label: size for labels, table in factors for label, size in zip(labels, table.shape)}
    cells = math.prod(dims[label] for label in keep)
    if cells > ENUMERATION_BUDGET:
        raise ScmError(f"table of {cells} cells exceeds the enumeration budget")
    return contract(factors, keep)


def _eliminate(m: DiscreteScm, do: Mapping[str, int]) -> DistTable:
    """P(V | do(...)) with axes in `graph.names` order: kernels (point masses for
    do-variables) and latent priors, multiplied and summed over each latent."""
    g = m.graph
    factors: list[Factor] = []
    for v in g.variables:
        if v.name in do:
            factors.append(((v.name,), np.eye(v.cardinality)[do[v.name]]))
        else:
            labels = (*g.parents(v.name), *m.incident_latents(v.name), v.name)
            factors.append((labels, _kernel(m, v.name)))
    for pair in g.latent_pairs():
        group = [((pair,), m.latents[pair])] + [f for f in factors if pair in f[0]]
        factors = [f for f in factors if pair not in f[0]]
        keep = tuple(dict.fromkeys(x for labels, _ in group for x in labels if x != pair))
        factors.append((keep, _product(group, keep)))
    return DistTable(g.variables, _product(factors, g.names))


def exact_joint(m: DiscreteScm) -> DistTable:
    """Exact observational joint P(V) by factor elimination."""
    return _eliminate(m, {})


def exact_interventional(m: DiscreteScm, do: Mapping[str, int]) -> DistTable:
    """Exact P(V | do(...)): each do-variable's kernel becomes a point mass."""
    for name, value in do.items():
        if not 0 <= value < m.graph.variable(name).cardinality:
            raise ScmError(f"do value {value} out of range for {name}")
    return _eliminate(m, do)


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
        incident = [p for p in graph.latent_pairs() if v.name in p]
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


def _graph(variables: Sequence[tuple[str, int]], directed, bidirected) -> Admg:
    return Admg([Variable(n, c) for n, c in variables], directed, bidirected)


def catalog_graphs() -> dict[str, Admg]:
    b = [("X", 2), ("S", 2), ("R", 2)]
    graphs = {
        "frontdoor": _graph(b, [("X", "S"), ("S", "R")], [("X", "R")]),
        "backdoor": _graph(
            [("A", 2), ("B", 2), ("V", 2), ("I", 2)],
            [("A", "B"), ("A", "V"), ("B", "V"), ("V", "I")],
            [("B", "I")],
        ),
        "zigzag": _graph(
            [("X", 2), ("W1", 2), ("W2", 2), ("Y", 2)],
            [("X", "W1"), ("W1", "W2"), ("W2", "Y")],
            [("X", "W2"), ("W1", "Y")],
        ),
        "napkin": _graph(
            [("W1", 2), ("W2", 2), ("X", 2), ("Y", 2)],
            [("W1", "W2"), ("W2", "X"), ("X", "Y")],
            [("W1", "X"), ("W1", "Y")],
        ),
        "double_napkin": _graph(
            [("W3", 2), ("W4", 2), ("R", 2), ("W2", 2), ("W1", 2), ("X", 2)],
            [("W3", "W4"), ("R", "W2"), ("W2", "W1"), ("W4", "W1"), ("W1", "X"), ("W2", "X")],
            [("W3", "W2"), ("R", "W1"), ("R", "X")],
        ),
        "bow": _graph([("X", 2), ("Y", 2)], [("X", "Y")], [("X", "Y")]),
    }
    return graphs


def catalog() -> list[CatalogEntry]:
    """Reference SCMs with their queries and identifiability flags.

    The flags are re-verified against symbolic identification at build time.
    """
    from .identify import identify_effect  # local import avoids a cycle at import time

    graphs = catalog_graphs()
    specs = {
        "frontdoor": [CatalogQuery(("R",), ("X",))],
        "backdoor": [
            CatalogQuery(("I",), ("V",)),
            CatalogQuery(("I",), ("V",), given=("A",)),
        ],
        "zigzag": [CatalogQuery(("Y",), ("X",))],
        "napkin": [
            CatalogQuery(("Y",), ("X",)),
            CatalogQuery(("Y",), ("W1",)),
        ],
        "double_napkin": [CatalogQuery(("W1", "W2", "W3", "W4", "X"), ("R",))],
        "bow": [CatalogQuery(("Y",), ("X",), identifiable=False)],
    }
    entries = []
    for name, graph in graphs.items():
        scm = noisy_copy_scm(graph)
        queries = []
        for q in specs[name]:
            result = identify_effect(q.targets, q.do, graph)
            if result.identifiable != q.identifiable:
                raise ScmError(f"catalog flag mismatch for {name}: {q}")
            queries.append(q)
        entries.append(CatalogEntry(name, scm, tuple(queries)))
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise ScmError(f"no catalog entry named {name!r}")


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
