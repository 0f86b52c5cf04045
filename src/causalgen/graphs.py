"""Acyclic directed mixed graphs (ADMGs) and the graph algebra used everywhere else.

Variables carry a finite cardinality. Directed edges encode causation,
bidirected edges encode a latent confounder shared by exactly two observed
variables. All operations are pure: they return new graphs and never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph structure or unknown variable."""


class GraphParseError(GraphError):
    """Raised by the text-format parser; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Variable:
    name: str
    cardinality: int

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise GraphError(f"bad variable name {self.name!r}")
        if self.cardinality < 2:
            raise GraphError(f"variable {self.name}: cardinality must be >= 2")


class Admg:
    """Immutable acyclic directed mixed graph over discrete variables."""

    def __init__(
        self,
        variables: Sequence[Variable],
        directed: Iterable[tuple[str, str]] = (),
        bidirected: Iterable[tuple[str, str]] = (),
    ):
        self.variables: tuple[Variable, ...] = tuple(variables)
        self.names: tuple[str, ...] = tuple(v.name for v in self.variables)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise GraphError("duplicate variable names")

        directed = tuple(directed)
        for a, b in directed:
            self._check_known(a)
            self._check_known(b)
            if a == b:
                raise GraphError(f"self-loop on {a}")
        self.directed: frozenset[tuple[str, str]] = frozenset(directed)

        pairs = []
        for a, b in bidirected:
            self._check_known(a)
            self._check_known(b)
            if a == b:
                raise GraphError(f"bidirected self-loop on {a}")
            pairs.append(frozenset((a, b)))
        self.bidirected: frozenset[frozenset[str]] = frozenset(pairs)

        self._parents: dict[str, list[str]] = {v.name: [] for v in self.variables}
        self._children: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for a, b in sorted(self.directed, key=lambda e: (self._index[e[0]], self._index[e[1]])):
            self._parents[b].append(a)
            self._children[a].append(b)
        self._siblings: dict[str, set[str]] = {v.name: set() for v in self.variables}
        for pair in self.bidirected:
            a, b = tuple(pair)
            self._siblings[a].add(b)
            self._siblings[b].add(a)

        self._topo = self._kahn()  # also validates acyclicity

    # -- basic lookups ------------------------------------------------------

    def variable(self, name: str) -> Variable:
        self._check_known(name)
        return self.variables[self._index[name]]

    def index(self, name: str) -> int:
        self._check_known(name)
        return self._index[name]

    def parents(self, name: str) -> tuple[str, ...]:
        self._check_known(name)
        return tuple(self._parents[name])

    def sorted_names(self, names: Iterable[str]) -> list[str]:
        """Return the given names in declaration order."""
        names = list(names)
        for n in names:
            self._check_known(n)
        return sorted(names, key=self._index.__getitem__)

    def _check_known(self, name: str):
        if name not in self._index:
            raise GraphError(f"unknown variable {name!r}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Admg)
            and self.variables == other.variables
            and self.directed == other.directed
            and self.bidirected == other.bidirected
        )

    def __repr__(self) -> str:
        return f"Admg({', '.join(self.names)}; {len(self.directed)} edges, {len(self.bidirected)} confounded pairs)"

    # -- graph algebra ------------------------------------------------------

    def ancestors(self, targets: Iterable[str]) -> set[str]:
        """Ancestors of the target set via directed paths, including the targets."""
        out = set()
        stack = []
        for t in targets:
            self._check_known(t)
            stack.append(t)
        while stack:
            v = stack.pop()
            if v in out:
                continue
            out.add(v)
            stack.extend(self._parents[v])
        return out

    def c_components(self) -> list[list[str]]:
        """Partition of the variables into maximal bidirected-connected sets.

        Components are ordered by their smallest member's declaration index;
        members are in declaration order.
        """
        seen: set[str] = set()
        components = []
        for v in self.names:
            if v in seen:
                continue
            comp = set()
            stack = [v]
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(self._siblings[u] - comp)
            seen |= comp
            components.append(self.sorted_names(comp))
        return components

    def c_factor_context(self, order: Sequence[str], name: str) -> tuple[str, ...]:
        """The names before `name` in the topological `order` that lie in T or pa(T),
        T being `name`'s district in the graph induced on `order` up to `name`: all
        that P(name | everything before it) depends on (Tian & Pearl 2002, Lemma 1)."""
        self._check_known(name)
        pos = order.index(name)
        prefix = set(order[: pos + 1])
        district, stack = {name}, [name]
        while stack:
            new = (self._siblings[stack.pop()] & prefix) - district
            district |= new
            stack.extend(new)
        reach = district.union(*(self._parents[v] for v in district))
        return tuple(n for n in order[:pos] if n in reach)

    def remove_incoming(self, x: Iterable[str]) -> Admg:
        """Mutilate by do(x): drop directed edges into x and bidirected edges at x."""
        x = set(x)
        for n in x:
            self._check_known(n)
        directed = [(a, b) for a, b in self.directed if b not in x]
        bidirected = [tuple(p) for p in self.bidirected if not (p & x)]
        return Admg(self.variables, directed, bidirected)

    def remove_outgoing(self, x: Iterable[str]) -> Admg:
        """Drop directed edges out of x; bidirected edges are untouched."""
        x = set(x)
        for n in x:
            self._check_known(n)
        directed = [(a, b) for a, b in self.directed if a not in x]
        return Admg(self.variables, directed, [tuple(p) for p in self.bidirected])

    def induced_subgraph(self, keep: Iterable[str]) -> Admg:
        """Restrict to the given variables and edges with both endpoints kept."""
        keep = set(keep)
        for n in keep:
            self._check_known(n)
        variables = tuple(v for v in self.variables if v.name in keep)
        directed = [(a, b) for a, b in self.directed if a in keep and b in keep]
        bidirected = [tuple(p) for p in self.bidirected if p <= keep]
        return Admg(variables, directed, bidirected)

    def topological_order(self) -> list[str]:
        return list(self._topo)

    def _kahn(self) -> tuple[str, ...]:
        indeg = {v: len(self._parents[v]) for v in self.names}
        ready = [v for v in self.names if indeg[v] == 0]
        out: list[str] = []
        while ready:
            # declaration-order tie-break keeps recursion traces reproducible
            ready.sort(key=self._index.__getitem__)
            v = ready.pop(0)
            out.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(out) != len(self.variables):
            raise GraphError("directed part contains a cycle")
        return tuple(out)

    # -- d-separation -------------------------------------------------------

    def d_separated(self, a: Iterable[str], b: Iterable[str], given: Iterable[str] = ()) -> bool:
        """Test a independent of b given `given` by reachability along active trails
        (Bayes ball). A bidirected edge stands for a latent parent of both
        endpoints, so a ball that may go up to a node's parents may also go
        through that latent down into the node's siblings."""
        a, b, given = set(a), set(b), set(given)
        for s in (a, b, given):
            for n in s:
                self._check_known(n)
        if (a & b) or (a & given) or (b & given):
            raise GraphError("d_separated arguments must be pairwise disjoint")

        anc_given = self.ancestors(given)
        visited: set[tuple[str, str]] = set()
        agenda = [(s, "up") for s in a]
        reachable: set[str] = set()
        while agenda:
            node, direction = agenda.pop()
            if (node, direction) in visited:
                continue
            visited.add((node, direction))
            if node not in given:
                reachable.add(node)
                agenda.extend((c, "down") for c in self._children[node])
            # from a child a ball passes up through an unconditioned node; from a
            # parent or sibling it turns back up only at a collider `given` opens
            if (node not in given) if direction == "up" else (node in anc_given):
                agenda.extend((p, "up") for p in self._parents[node])
                agenda.extend((s, "down") for s in self._siblings[node])
        return not (reachable & b)

    def latent_pairs(self) -> list[tuple[str, str]]:
        """Bidirected edges as ordered pairs, in a canonical deterministic order."""
        pairs = [tuple(self.sorted_names(p)) for p in self.bidirected]
        return sorted(pairs, key=lambda p: (self._index[p[0]], self._index[p[1]]))


# -- text format --------------------------------------------------------------
#
#   # comment
#   var X 2
#   edge X -> Y
#   confound X <-> Y


def parse_graph(text: str) -> Admg:
    variables: list[Variable] = []
    names: set[str] = set()
    directed: list[tuple[str, str]] = []
    bidirected: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "var":
            if len(fields) != 3:
                raise GraphParseError("expected: var <name> <cardinality>", lineno)
            name = fields[1]
            if name in names:
                raise GraphParseError(f"duplicate variable {name!r}", lineno)
            try:
                card = int(fields[2])
            except ValueError:
                raise GraphParseError(f"bad cardinality {fields[2]!r}", lineno) from None
            try:
                variables.append(Variable(name, card))
            except GraphError as exc:
                raise GraphParseError(str(exc), lineno) from None
            names.add(name)
        elif kind == "edge":
            if len(fields) != 4 or fields[2] != "->":
                raise GraphParseError("expected: edge <from> -> <to>", lineno)
            _check_endpoints(fields[1], fields[3], names, lineno)
            directed.append((fields[1], fields[3]))
        elif kind == "confound":
            if len(fields) != 4 or fields[2] != "<->":
                raise GraphParseError("expected: confound <a> <-> <b>", lineno)
            _check_endpoints(fields[1], fields[3], names, lineno)
            bidirected.append((fields[1], fields[3]))
        else:
            raise GraphParseError(f"unknown declaration {kind!r}", lineno)
    try:
        return Admg(variables, directed, bidirected)
    except GraphError as exc:
        raise GraphParseError(str(exc), lineno if text else 0) from None


def _check_endpoints(a: str, b: str, names: set[str], lineno: int):
    for n in (a, b):
        if n not in names:
            raise GraphParseError(f"unknown endpoint {n!r}", lineno)


def format_graph(g: Admg) -> str:
    lines = [f"var {v.name} {v.cardinality}" for v in g.variables]
    lines += [f"edge {a} -> {b}" for a, b in sorted(g.directed, key=lambda e: (g.index(e[0]), g.index(e[1])))]
    lines += [f"confound {a} <-> {b}" for a, b in g.latent_pairs()]
    return "\n".join(lines) + "\n"
