"""Symbolic estimands over observational conditionals, and their exact evaluation.

An estimand is a finite expression tree of sums, products, quotients and
conditional terms. Each conditional term is taken relative to a distribution
reference: either the observational joint, or a nested estimand describing the
partially-intervened distribution produced midway through identification.
Evaluation is exact summation over discrete states: each node evaluates to a
labelled factor with one axis per free variable, and every product and sum is
one `contract` call, the one exact-law engine: variable elimination under the
one `ENUMERATION_BUDGET`.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, Union

import numpy as np

from .graphs import Variable


class EvaluationError(ValueError):
    """Estimand references variables the table lacks, hits a zero denominator,
    or takes a product past `ENUMERATION_BUDGET`."""


# -- distribution tables -------------------------------------------------------


@dataclass(frozen=True)
class DistTable:
    """Dense table over discrete variables, axis i indexed by variables[i]'s states."""

    variables: tuple[Variable, ...]
    probs: np.ndarray

    def __post_init__(self):
        expected = tuple(v.cardinality for v in self.variables)
        if self.probs.shape != expected:
            raise ValueError(f"shape {self.probs.shape} != cardinalities {expected}")
        if np.any(self.probs < 0):
            raise ValueError("negative probability entry")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def total(self) -> float:
        return float(self.probs.sum())

    def marginal(self, names: Iterable[str]) -> DistTable:
        keep = set(names)
        missing = keep - set(self.names)
        if missing:
            raise EvaluationError(f"unknown variables {sorted(missing)}")
        axes = tuple(i for i, v in enumerate(self.variables) if v.name not in keep)
        variables = tuple(v for v in self.variables if v.name in keep)
        return DistTable(variables, self.probs.sum(axis=axes))

    def fix(self, assignment: dict[str, int]) -> DistTable:
        """Slice out the given values, returning a table over the remaining variables."""
        idx = []
        variables = []
        for v in self.variables:
            if v.name in assignment:
                idx.append(assignment[v.name])
            else:
                idx.append(slice(None))
                variables.append(v)
        return DistTable(tuple(variables), self.probs[tuple(idx)])


Factor = tuple[Sequence[Hashable], np.ndarray]  # (axis labels, table)

# cells of the index space (every label of the call) one `np.einsum` may loop over
ENUMERATION_BUDGET = 10_000_000
EINSUM_OPERANDS = 32  # the most tables one `np.einsum` call takes: numpy 1.x takes 32, numpy 2 takes 64


def contract(factors: Iterable[Factor], keep: Sequence[Hashable]) -> np.ndarray:
    """Multiply labelled tables and sum out every label not in `keep`, the
    result's axes following `keep`, by variable elimination in min-size greedy
    order (Koller & Friedman, *Probabilistic Graphical Models*, ch. 9): while
    a hidden label remains, the one whose factors span the fewest cells goes,
    by multiplying just those factors and summing out every hidden label no
    other factor holds; one product onto `keep` finishes. A step that sums out
    all of its labels leaves a number, and those numbers are folded into one
    that joins the last product. Labels are visited in first-appearance order,
    ties too, so the order and the floats are fixed."""
    pending = [(tuple(labels), table) for labels, table in factors]
    numbers = []  # what the steps that sum out all of their labels leave
    size = {label: n for labels, table in pending for label, n in zip(labels, table.shape)}
    unknown = [label for label in keep if label not in size]
    if unknown:
        raise EvaluationError(f"unknown variables {unknown}")
    hidden = [label for label in size if label not in keep]
    while hidden and len(pending) > 1:
        spans = [dict.fromkeys(x for labels, _ in pending if h in labels for x in labels) for h in hidden]
        k = min(range(len(hidden)), key=lambda i: math.prod(size[x] for x in spans[i]))
        group = [f for f in pending if hidden[k] in f[0]]
        if len(group) == len(pending):  # the last product would be this one
            break
        pending = [f for f in pending if hidden[k] not in f[0]]
        held = {x for labels, _ in pending for x in labels}.union(keep)
        out = tuple(x for x in spans[k] if x in held)
        table = _einsum(group, out, size)
        if out:
            pending.append((out, table))
        else:
            numbers.append(table)
        hidden = [x for x in hidden if x in held]
    if numbers:
        pending.append(((), math.prod(numbers)))
    return _einsum(pending, keep, size)


def _einsum(factors: Sequence[Factor], out: Sequence[Hashable], size: dict) -> np.ndarray:
    """One `np.einsum` product of labelled tables onto `out`, refused when its
    index space exceeds `ENUMERATION_BUDGET`. Each label is a letter of the
    subscript string (numpy's sublist form refuses ~256 subscripts in all);
    the budget admits 23 labels of two or more states, so 52 letters suffice.
    Past `EINSUM_OPERANDS` tables, the first ones are multiplied onto the
    labels that the rest or `out` still hold, a batch at a time; a batch spans
    some of the product's labels, so it stays within the budget."""
    index = dict.fromkeys(label for labels, _ in factors for label in labels)
    cells = math.prod(size[label] for label in index)
    if cells > ENUMERATION_BUDGET:
        raise EvaluationError(f"a product over {cells} cells exceeds the enumeration budget of {ENUMERATION_BUDGET}")
    while len(factors) > EINSUM_OPERANDS:
        batch, factors = factors[:EINSUM_OPERANDS], factors[EINSUM_OPERANDS:]
        held = {label for labels, _ in factors for label in labels}.union(out)
        kept = tuple(dict.fromkeys(x for labels, _ in batch for x in labels if x in held))
        factors = [(kept, _einsum(batch, kept, size)), *factors]
    letter = dict(zip(index, string.ascii_letters))
    spec = ",".join("".join(map(letter.get, labels)) for labels, _ in factors)
    return np.einsum(f"{spec}->{''.join(map(letter.get, out))}", *(table for _, table in factors))


# -- expression tree -----------------------------------------------------------


class _Obs:
    """Sentinel reference to the observational joint distribution."""

    def __repr__(self):
        return "P"


OBSERVATIONAL = _Obs()


@dataclass(frozen=True)
class Nested:
    """A partially-intervened distribution over `over`, given by an estimand.

    `expr` is a product of conditional terms whose targets enumerate `over`;
    any other variables it mentions are free parameters of the distribution.
    """

    expr: "Estimand"
    over: tuple[str, ...]


DistRef = Union[_Obs, Nested]


@dataclass(frozen=True)
class CondTerm:
    targets: tuple[str, ...]
    context: tuple[str, ...]
    ref: DistRef = OBSERVATIONAL


@dataclass(frozen=True)
class Product:
    factors: tuple["Estimand", ...]


@dataclass(frozen=True)
class SumOver:
    over: tuple[str, ...]
    term: "Estimand"


@dataclass(frozen=True)
class Quotient:
    numerator: "Estimand"
    denominator: "Estimand"


Estimand = Union[CondTerm, Product, SumOver, Quotient]


def product_of(factors: Iterable[Estimand]) -> Estimand:
    factors = tuple(factors)
    if len(factors) == 1:
        return factors[0]
    return Product(factors)


def sum_over(over: Iterable[str], term: Estimand) -> Estimand:
    over = tuple(over)
    if not over:
        return term
    return SumOver(over, term)


def free_variables(e: Estimand) -> set[str]:
    if isinstance(e, CondTerm):
        out = set(e.targets) | set(e.context)
        if isinstance(e.ref, Nested):
            out |= free_variables(e.ref.expr) - set(e.ref.over)
        return out
    if isinstance(e, Product):
        return set().union(*(free_variables(f) for f in e.factors)) if e.factors else set()
    if isinstance(e, SumOver):
        return free_variables(e.term) - set(e.over)
    if isinstance(e, Quotient):
        return free_variables(e.numerator) | free_variables(e.denominator)
    raise TypeError(f"not an estimand node: {e!r}")


# -- pretty printer ------------------------------------------------------------


def format_estimand(e: Estimand) -> str:
    """Render in the conventional sum/product notation, e.g.
    ``Σ_{s} P(s|x) · Σ_{x'} P(x') P(r|x',s)``. Deterministic, used in golden tests."""
    return _render(e, {})


def _sym(name: str, rename: dict[str, str]) -> str:
    return rename.get(name, name.lower())


def _fresh_primes(names: Iterable[str], rename: dict[str, str]) -> dict[str, str]:
    taken = set(rename.values())
    out = dict(rename)
    for n in names:
        candidate = n.lower() + "'"
        while candidate in taken:
            candidate += "'"
        out[n] = candidate
        taken.add(candidate)
    return out


def _render(e: Estimand, rename: dict[str, str]) -> str:
    if isinstance(e, CondTerm):
        if isinstance(e.ref, Nested):
            return _render_nested_term(e, rename)
        t = ",".join(_sym(v, rename) for v in e.targets)
        if e.context:
            return f"P({t}|{','.join(_sym(v, rename) for v in e.context)})"
        return f"P({t})"
    if isinstance(e, Product):
        parts = [_render(f, rename) for f in e.factors]
        out = parts[0]
        for part in parts[1:]:
            out += (" · " if part.startswith(("Σ", "[")) else " ") + part
        return out
    if isinstance(e, SumOver):
        names = ",".join(_sym(v, rename) for v in e.over)
        return f"Σ_{{{names}}} {_render(e.term, rename)}"
    if isinstance(e, Quotient):
        return f"[{_render(e.numerator, rename)}] / [{_render(e.denominator, rename)}]"
    raise TypeError(f"not an estimand node: {e!r}")


def _render_nested_term(e: CondTerm, rename: dict[str, str]) -> str:
    ref = e.ref
    assert isinstance(ref, Nested)
    shown = set(e.targets) | set(e.context)
    bound_num = [v for v in ref.over if v not in shown]
    num_rename = _fresh_primes(bound_num, rename)
    num = _render(ref.expr, num_rename)
    if bound_num:
        num = f"Σ_{{{','.join(num_rename[v] for v in bound_num)}}} {num}"
    if not e.context:
        return num
    bound_den = [v for v in ref.over if v not in set(e.context)]
    den_rename = _fresh_primes(bound_den, rename)
    den = _render(ref.expr, den_rename)
    if bound_den:
        den = f"Σ_{{{','.join(den_rename[v] for v in bound_den)}}} {den}"
    return f"[{num}] / [{den}]"


# -- exact evaluation ----------------------------------------------------------


def evaluate_estimand(e: Estimand, obs: DistTable) -> DistTable:
    """Evaluate by exact summation against an observational joint table.

    The result is indexed by the estimand's free variables in the table's
    variable order. For an identification output this means query targets and
    intervention values; each intervention slice sums to one.
    """
    names, array = _Evaluator(obs).eval(e)
    free = free_variables(e)
    if set(names) != free:
        raise AssertionError(f"axes {sorted(names)} are not the free variables {sorted(free)}")
    variables = tuple(v for v in obs.variables if v.name in free)
    return DistTable(variables, contract([(names, array)], [v.name for v in variables]))


class _Evaluator:
    """Evaluates each node into a labelled factor: its free variables, in a
    fixed order, and an array with one axis per name."""

    def __init__(self, obs: DistTable):
        self.obs = obs
        self.card = {v.name: v.cardinality for v in obs.variables}

    def eval(self, e: Estimand) -> tuple[tuple[str, ...], np.ndarray]:
        if isinstance(e, CondTerm):
            return self._cond_term(e)
        if isinstance(e, Product):
            factors = [self.eval(f) for f in e.factors]
            names = tuple(dict.fromkeys(n for labels, _ in factors for n in labels))
            return names, contract(factors, names)
        if isinstance(e, SumOver):
            labels, array = self.eval(e.term)
            # a name the term is constant over still contributes its cardinality
            scale = 1
            for n in e.over:
                if n not in self.card:
                    raise EvaluationError(f"variable {n!r} not covered by the table")
                if n not in labels:
                    scale *= self.card[n]
            names = tuple(n for n in labels if n not in e.over)
            return names, contract([(labels, array)], names) * scale
        if isinstance(e, Quotient):
            num = self.eval(e.numerator)
            den_names, den = self.eval(e.denominator)
            self._check_positive(den)
            names = tuple(dict.fromkeys(num[0] + den_names))
            return names, contract([num, (den_names, 1.0 / den)], names)
        raise TypeError(f"not an estimand node: {e!r}")

    def _cond_term(self, e: CondTerm) -> tuple[tuple[str, ...], np.ndarray]:
        if isinstance(e.ref, Nested):
            factor = self.eval(e.ref.expr)
            scope = set(e.ref.over)
        else:
            factor = (self.obs.names, self.obs.probs)
            scope = set(self.obs.names)
        missing = (set(e.targets) | set(e.context)) - scope
        if missing:
            raise EvaluationError(f"term references {sorted(missing)} outside its distribution")
        params = tuple(n for n in factor[0] if n not in scope)
        names = (*params, *e.context, *e.targets)
        joint = contract([factor], names)
        den = joint.sum(axis=tuple(range(len(names) - len(e.targets), len(names))), keepdims=True)
        self._check_positive(den)
        return names, joint / den

    @staticmethod
    def _check_positive(den: np.ndarray):
        if np.any(den <= 0):
            raise EvaluationError("zero denominator: table is not strictly positive")
