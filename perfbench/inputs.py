"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments, so one seed always yields
the same files and instances. The program under test only ever sees what these
functions write or return.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from causalgen import engine, scm
from causalgen.graphs import Admg, Variable
from causalgen.models import Dataset, write_dataset_csv

OBS_ROWS = 500_000
SAMPLE_ROWS = 200_000
FITTED_TVD_BOUND = 0.03  # acceptance bound for fitted-source estimates (C3)
RANDOM_ROWS = 256
GRAPH_SEED = 2024


# -- chain with a confounded endpoint ------------------------------------------------


def chain_graph(n: int) -> Admg:
    """V0 -> V1 -> ... -> V(n-1), with V0 <-> V(n-1) confounded."""
    names = [f"V{i}" for i in range(n)]
    directed = list(zip(names, names[1:]))
    return Admg([Variable(name, 2) for name in names], directed, [(names[0], names[-1])])


def chain_paths(directory: Path, n: int) -> tuple[Path, Path]:
    """The SCM and query files `write_chain` writes for size n."""
    stem = directory / f"chain{n}"
    return stem.with_suffix(".scm"), stem.with_suffix(".query")


def write_chain(directory: Path, n: int) -> None:
    """Write chain<n>.graph/.scm and a query for P(V(n-1) | do(V0))."""
    scm_path, query = chain_paths(directory, n)
    model = scm.noisy_copy_scm(chain_graph(n))
    scm.write_scm(model, scm_path, scm_path.with_suffix(".graph"))
    query.write_text(engine.format_query(engine.QuerySpec((f"V{n - 1}",), (("V0", 1),))))


# -- catalog fixtures for `causalgen sample` --------------------------------------------


@dataclass(frozen=True)
class SampleFixture:
    """One identifiable catalog query written out as CLI inputs."""

    label: str
    model: scm.DiscreteScm
    spec: engine.QuerySpec
    graph: Path
    query: Path
    data: Path


def _entry_fixtures(directory: Path, entry: scm.CatalogEntry) -> list[SampleFixture]:
    """One fixture per identifiable query of the entry (do-values 1, given-values 0)."""
    stem = directory / entry.name
    fixtures = []
    for k, q in enumerate(q for q in entry.queries if q.identifiable):
        spec = engine.QuerySpec(q.targets, tuple((n, 1) for n in q.do), tuple((n, 0) for n in q.given))
        fixtures.append(SampleFixture(
            f"{entry.name}_q{k}", entry.scm, spec,
            stem.with_suffix(".graph"), directory / f"{entry.name}.q{k}", stem.with_suffix(".csv"),
        ))
    return fixtures


def catalog_fixtures(directory: Path) -> list[SampleFixture]:
    """The fixtures `write_catalog_fixtures` writes, without writing them."""
    return [fx for entry in scm.catalog() for fx in _entry_fixtures(directory, entry)]


def write_catalog_fixtures(directory: Path, seed: int) -> None:
    """For each catalog entry with an identifiable query: graph and SCM files, a
    500k-row observational CSV with its cardinality sidecar, and one query file
    per identifiable query."""
    for index, entry in enumerate(scm.catalog()):
        fixtures = _entry_fixtures(directory, entry)
        if not fixtures:
            continue
        stem = directory / entry.name
        scm.write_scm(entry.scm, stem.with_suffix(".scm"), stem.with_suffix(".graph"))
        obs = scm.sample_observational(entry.scm, OBS_ROWS, np.random.default_rng([seed, index]))
        write_dataset_csv(obs, stem.with_suffix(".csv"), stem.with_suffix(".sidecar.json"))
        for fx in fixtures:
            fx.query.write_text(engine.format_query(fx.spec))


# -- random ADMGs and queries --------------------------------------------------------------
#
# The same distribution as the test suite's generators: 3-6 binary nodes, a
# forward edge between each ordered pair with probability 0.3-0.6, and 0-3
# distinct confounded pairs; targets are a non-empty prefix of a random
# permutation and the intervention set the (possibly empty) slice after it.


@dataclass(frozen=True)
class AdmgInstance:
    graph: Admg
    y: frozenset[str]
    x: frozenset[str]
    data: Dataset
    build_seed: int


def random_admg(rng: np.random.Generator) -> Admg:
    n = int(rng.integers(3, 7))
    names = [f"V{i}" for i in range(n)]
    density = rng.uniform(0.3, 0.6)
    directed = [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < density]
    pairs = list(itertools.combinations(names, 2))
    k = int(rng.integers(0, 4))
    bidirected = []
    if k:
        picked = rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)
        bidirected = [pairs[int(i)] for i in picked]
    return Admg([Variable(name, 2) for name in names], directed, bidirected)


def random_query(rng: np.random.Generator, g: Admg) -> tuple[frozenset[str], frozenset[str]]:
    names = list(g.names)
    perm = [names[int(i)] for i in rng.permutation(len(names))]
    ny = int(rng.integers(1, len(names)))
    nx = int(rng.integers(0, len(names) - ny + 1))
    return frozenset(perm[:ny]), frozenset(perm[ny : ny + nx])


def random_instances(seed: int, count: int) -> list[AdmgInstance]:
    """`count` random graphs, each with a random query and RANDOM_ROWS uniform binary rows.

    The graphs and queries are one fixed set, drawn from GRAPH_SEED; `seed`
    draws the rows and the build rng. Op cost is set mostly by the graph and
    is heavy-tailed, so with graphs drawn per seed the tail latency would be
    that of whichever few slow graphs a seed happens to draw."""
    shapes = np.random.default_rng(GRAPH_SEED)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        g = random_admg(shapes)
        y, x = random_query(shapes, g)
        data = Dataset(g.variables, rng.integers(0, 2, size=(RANDOM_ROWS, len(g.names))))
        out.append(AdmgInstance(g, y, x, data, int(rng.integers(2**31))))
    return out


def target_cells(g: Admg, targets) -> int:
    return math.prod(g.variable(t).cardinality for t in targets)
