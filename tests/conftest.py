from __future__ import annotations

import itertools

import numpy as np
import pytest

from causalgen.estimands import DistTable
from causalgen.graphs import Admg, Variable
from causalgen.scm import DiscreteScm, exact_interventional


def admg(spec_vars, directed=(), bidirected=()):
    """Build a binary ADMG from short specs: admg('A B C', [('A','B')])."""
    if isinstance(spec_vars, str):
        spec_vars = [(n, 2) for n in spec_vars.split()]
    return Admg([Variable(n, c) for n, c in spec_vars], directed, bidirected)


def frontdoor_graph():
    return admg("X S R", [("X", "S"), ("S", "R")], [("X", "R")])


def backdoor_graph():
    return admg("A B V I", [("A", "B"), ("A", "V"), ("B", "V"), ("V", "I")], [("B", "I")])


def zigzag_graph():
    return admg(
        "X W1 W2 Y", [("X", "W1"), ("W1", "W2"), ("W2", "Y")], [("X", "W2"), ("W1", "Y")]
    )


def napkin_graph():
    return admg(
        "W1 W2 X Y", [("W1", "W2"), ("W2", "X"), ("X", "Y")], [("W1", "X"), ("W1", "Y")]
    )


def bow_graph():
    return admg("X Y", [("X", "Y")], [("X", "Y")])


def chain_graph():
    return admg("A B C", [("A", "B"), ("B", "C")])


def random_admg(rng: np.random.Generator, max_nodes: int = 6) -> Admg:
    """Random binary ADMG: 3..max_nodes nodes, edge density 0.3-0.6, 0-3 confounded pairs."""
    n = int(rng.integers(3, max_nodes + 1))
    names = [f"V{i}" for i in range(n)]
    density = rng.uniform(0.3, 0.6)
    directed = [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    pairs = list(itertools.combinations(names, 2))
    k = int(rng.integers(0, 4))
    bidirected = []
    if k:
        chosen = rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)
        bidirected = [pairs[int(t)] for t in chosen]
    return Admg([Variable(nm, 2) for nm in names], directed, bidirected)


def random_query(rng: np.random.Generator, g: Admg, allow_empty_x=True):
    names = list(g.names)
    perm = [names[int(i)] for i in rng.permutation(len(names))]
    ny = int(rng.integers(1, len(names)))
    lo = 0 if allow_empty_x else 1
    nx = int(rng.integers(lo, len(names) - ny + 1))
    return frozenset(perm[:ny]), frozenset(perm[ny : ny + nx])


def oracle_conditional(m: DiscreteScm, targets, do: dict[str, int], given: dict[str, int]) -> DistTable:
    """The SCM oracle's P(targets | do, given): P(targets, given | do), fixed at
    the given values and normalised, over `targets` in order."""
    joint = exact_interventional(m, do, (*targets, *given)).fix(given)
    return DistTable(joint.variables, joint.probs / joint.total())


def brute_force_d_separated(g: Admg, a, b, given) -> bool:
    """Independent oracle: enumerate every simple path in the latent-expanded DAG
    and test it for activity under the usual collider rules."""
    parents = {v: set(g.parents(v)) for v in g.names}
    children: dict[str, set[str]] = {v: set() for v in g.names}
    for u, w in g.directed:
        children[u].add(w)
    for latent in g.latent_pairs():  # keyed by its pair, which no variable name equals
        u, w = latent
        parents[latent] = set()
        children[latent] = {u, w}
        parents[u].add(latent)
        parents[w].add(latent)

    given = set(given)
    anc_given = set(given)
    frontier = list(given)
    while frontier:
        v = frontier.pop()
        for p in parents[v]:
            if p not in anc_given:
                anc_given.add(p)
                frontier.append(p)

    b = set(b)
    for start in a:
        # state: current node, whether the arriving edge points into it, path so far
        stack = [(start, None, frozenset({start}))]
        while stack:
            node, entered_in, onpath = stack.pop()
            moves = [(c, False, True) for c in children[node]] + [
                (p, True, False) for p in parents[node]
            ]
            for nxt, leave_in, enter_in in moves:
                if nxt in onpath:
                    continue
                if entered_in is not None:  # node is interior to the path
                    collider = entered_in and leave_in
                    if collider and node not in anc_given:
                        continue
                    if not collider and node in given:
                        continue
                if nxt in b:
                    return False
                stack.append((nxt, enter_in, onpath | {nxt}))
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(0)
