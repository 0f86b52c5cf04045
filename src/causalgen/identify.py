"""Symbolic identification of interventional queries on an ADMG.

`identify_effect` compiles P(y | do(x)) into a closed-form estimand over the
observational distribution, or returns the hedge witnessing non-identifiability.
`identify_conditional_effect` handles P(y | do(x), z) by first shifting the
maximal rule-2 subset of z into the intervention set and then taking a quotient.

The seven-step recursion is written once, in `run_id`: it makes every step
test, records the trace, raises the hedge and narrows the working graph at
step 2. What the base cases, step 4's join and step 7 build comes from an
interpreter: `Symbolic` here reads the recursion as estimand algebra, and
`engine.BuildContext` reads it as fitting and merging a sampling network. Both
readings therefore enter the same steps on the same query by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

from .estimands import (
    OBSERVATIONAL,
    CondTerm,
    DistRef,
    Estimand,
    Nested,
    Product,
    Quotient,
    SumOver,
    free_variables,
    product_of,
    sum_over,
)
from .graphs import Admg, GraphError


@dataclass(frozen=True)
class Hedge:
    """Witness of non-identifiability: the failing graph's variables and the
    offending single c-component inside them."""

    f: frozenset[str]
    f_prime: frozenset[str]

    def __post_init__(self):
        if not self.f_prime <= self.f:
            raise ValueError("hedge witness must satisfy f_prime <= f")


class NotIdentifiable(Exception):
    def __init__(self, hedge: Hedge):
        super().__init__(f"query is not identifiable; hedge witness {sorted(hedge.f)} / {sorted(hedge.f_prime)}")
        self.hedge = hedge


@dataclass(frozen=True)
class TraceEntry:
    step: str  # "S1" .. "S7"
    y: frozenset[str]
    x: frozenset[str]
    depth: int

    def describe(self) -> str:
        return f"{self.step} y={{{','.join(sorted(self.y))}}} x={{{','.join(sorted(self.x))}}}"


TERMINAL_STEPS = {"S1", "S5", "S6"}


@dataclass
class IdResult:
    estimand: Estimand | None
    hedge: Hedge | None
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def identifiable(self) -> bool:
        return self.hedge is None


def identify_effect(y: Iterable[str], x: Iterable[str], g: Admg) -> IdResult:
    """Identify P(y | do(x)) in g. Returns the estimand or the hedge, plus the trace."""
    y, x, _ = check_query(y, x, g)
    return _run_symbolic(y, x, g)


def identify_conditional_effect(
    y: Iterable[str], x: Iterable[str], z: Iterable[str], g: Admg
) -> IdResult:
    """Identify P(y | do(x), z) in g as a quotient of unconditional estimands."""
    y, x, z = check_query(y, x, g, z)
    x, z = maximal_rule2_shift(y, x, z, g)
    result = _run_symbolic(y | z, x, g)
    if result.identifiable:
        e = result.estimand
        result.estimand = Quotient(e, SumOver(tuple(g.sorted_names(y)), e))
    return result


def check_query(
    y: Iterable[str], x: Iterable[str], g: Admg, z: Iterable[str] = ()
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """Targets y, intervention x and conditioning z as sets: every name must be a
    variable of g, y must be non-empty, and the three sets must be disjoint."""
    y, x, z = frozenset(y), frozenset(x), frozenset(z)
    for n in y | x | z:
        g.variable(n)
    if not y:
        raise GraphError("query target set is empty")
    if y & x:
        raise GraphError("target and intervention sets overlap")
    if z & (y | x):
        raise GraphError("conditioning set overlaps the query sets")
    return y, x, z


def maximal_rule2_shift(
    y: frozenset[str], x: frozenset[str], z: frozenset[str], g: Admg
) -> tuple[frozenset[str], frozenset[str]]:
    """Move every z-variable that passes the do-calculus rule-2 test into x.

    One variable moves per pass, in declaration order; the fixed point is the
    unique maximal shift, so iteration order only affects reproducibility.
    """
    moved = True
    while moved:
        moved = False
        for alpha in g.sorted_names(z):
            mutilated = g.remove_incoming(x).remove_outgoing([alpha])
            if mutilated.d_separated(y, [alpha], x | (z - {alpha})):
                x = x | {alpha}
                z = z - {alpha}
                moved = True
                break
    return x, z


# -- the recursion ---------------------------------------------------------------


def run_id(state, interp, depth: int = 0):
    """One level of the ID recursion (Shpitser & Pearl 2006).

    `state` is a frozen dataclass with fields `y`, `x` and the working graph `g`
    plus the interpreter's own payload. The step tests, the trace (appended to
    `interp.trace`), the step-5 hedge (raised as NotIdentifiable) and the
    states of steps 2-4, which change only `y`, `x` and `g`, live here;
    `interp` builds what the other steps return: `s1_leaf(state)` and
    `s6_leaf(state, s)` the base cases, `s7_intervene(state, s_prime)` the
    state to recurse on, and `s4_combine(state, parts)` the join of the
    c-components' results.
    """
    y, x, g = state.y, state.x, state.g
    v = set(g.names)
    enter = lambda step: interp.trace.append(TraceEntry(step, y, x, depth))

    # step 1: nothing left to intervene on
    if not x:
        enter("S1")
        return interp.s1_leaf(state)

    # step 2: restrict to ancestors of y
    ancestors = g.ancestors(y)
    if v - ancestors:
        enter("S2")
        return run_id(replace(state, x=x & ancestors, g=g.induced_subgraph(ancestors)), interp, depth + 1)

    # step 3: absorb variables made irrelevant by the intervention
    w = (v - x) - g.remove_incoming(x).ancestors(y)
    if w:
        enter("S3")
        return run_id(replace(state, x=x | w), interp, depth + 1)

    components = g.induced_subgraph(v - x).c_components()

    # step 4: factorize over the c-components of g minus x
    if len(components) > 1:
        enter("S4")
        parts = [
            run_id(replace(state, y=frozenset(s), x=frozenset(v - set(s))), interp, depth + 1)
            for s in components
        ]
        return interp.s4_combine(state, parts)

    (s,) = components
    s_set = frozenset(s)
    graph_components = g.c_components()

    # step 5: the whole graph is one c-component; the query hedges
    if len(graph_components) == 1:
        enter("S5")
        raise NotIdentifiable(Hedge(frozenset(v), s_set))

    # step 6: s is itself a c-component; interventions reduce to conditioning
    if any(set(c) == s_set for c in graph_components):
        enter("S6")
        return interp.s6_leaf(state, s_set)

    # step 7: s sits strictly inside a larger c-component s'
    s_prime = frozenset(next(set(c) for c in graph_components if s_set < set(c)))
    enter("S7")
    return run_id(interp.s7_intervene(state, s_prime), interp, depth + 1)


# -- the symbolic interpreter -------------------------------------------------------


@dataclass(frozen=True)
class SymbolicState:
    """One level of symbolic identification: the query on g against the
    distribution `ref` (the observational law, or a nested step-7 law)."""

    y: frozenset[str]
    x: frozenset[str]
    g: Admg
    ref: DistRef


@dataclass
class Symbolic:
    """Reads the recursion as estimand algebra."""

    root_order: tuple[str, ...]
    trace: list[TraceEntry] = field(default_factory=list)

    def s1_leaf(self, state: SymbolicState) -> Estimand:
        return CondTerm(tuple(state.g.sorted_names(state.y)), (), state.ref)

    def s4_combine(self, state: SymbolicState, parts: list[Estimand]) -> Estimand:
        return sum_over(state.g.sorted_names(set(state.g.names) - state.y - state.x), product_of(parts))

    def s6_leaf(self, state: SymbolicState, s: frozenset[str]) -> Estimand:
        return sum_over(state.g.sorted_names(s - state.y), product_of(self._chain(state, s)))

    def s7_intervene(self, state: SymbolicState, s_prime: frozenset[str]) -> SymbolicState:
        order = [n for n in self.root_order if n in s_prime]
        nested = Nested(product_of(self._chain(state, s_prime)), tuple(order))
        return SymbolicState(state.y, state.x & s_prime, state.g.induced_subgraph(s_prime), nested)

    def _chain(self, state: SymbolicState, members: frozenset[str]) -> list[Estimand]:
        """P(v_i | v^(i-1)) for each member v_i, v^(i-1) cut to `Admg.c_factor_context`."""
        g, names = state.g, set(state.g.names)
        order = [n for n in self.root_order if n in names]
        return [CondTerm((vi,), g.c_factor_context(order, vi), state.ref) for vi in order if vi in members]


def _run_symbolic(y: frozenset[str], x: frozenset[str], g: Admg) -> IdResult:
    """P(y | do(x)) as an estimand closed over its free variables, or the hedge."""
    interp = Symbolic(tuple(g.topological_order()))
    try:
        e = run_id(SymbolicState(y, x, g, OBSERVATIONAL), interp)
    except NotIdentifiable as fail:
        return IdResult(None, fail.hedge, interp.trace)
    return IdResult(_close_over_free(e, y | x, g), None, interp.trace)


def _close_over_free(e: Estimand, query_vars: frozenset[str], g: Admg) -> Estimand:
    """Average out free variables beyond the query's own, weighting by their
    observational joint. The estimand's value is constant in them, so this only
    normalizes the expression's arity. They are rare with c-factor contexts, but
    P(v4 | do(v1,v3)) on V0→V2→V3→V4, V1→V3, V1→V4, V1↔V2, V2↔V4 absorbs V0 at
    step 3 and keeps it in P(v2 | v0,v1) at step 7."""
    extra = free_variables(e) - query_vars
    if not extra:
        return e
    extra_sorted = tuple(g.sorted_names(extra))
    return SumOver(extra_sorted, Product((CondTerm(extra_sorted, (), OBSERVATIONAL), e)))
