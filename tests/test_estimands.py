from __future__ import annotations

import numpy as np
import pytest

from causalgen.estimands import (
    ENUMERATION_BUDGET,
    CondTerm,
    DistTable,
    EvaluationError,
    Nested,
    Product,
    Quotient,
    SumOver,
    contract,
    evaluate_estimand,
    format_estimand,
    free_variables,
)
from causalgen.graphs import Admg, Variable
from causalgen.identify import identify_conditional_effect, identify_effect
from conftest import random_admg, random_query


def table_2x2():
    # P(X, Y) with distinct entries
    x, y = Variable("X", 2), Variable("Y", 2)
    return DistTable((x, y), np.array([[0.1, 0.2], [0.3, 0.4]]))


class TestDistTable:
    def test_shape_must_match(self):
        with pytest.raises(ValueError):
            DistTable((Variable("X", 2),), np.zeros((3,)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistTable((Variable("X", 2),), np.array([1.1, -0.1]))

    def test_marginal_and_fix(self):
        t = table_2x2()
        assert np.allclose(t.marginal(["X"]).probs, [0.3, 0.7])
        assert np.allclose(t.fix({"X": 1}).probs, [0.3, 0.4])


class TestEvaluation:
    def test_cond_term_is_table_conditional(self):
        t = table_2x2()
        got = evaluate_estimand(CondTerm(("Y",), ("X",)), t)
        assert got.names == ("X", "Y")
        assert np.allclose(got.probs, [[1 / 3, 2 / 3], [3 / 7, 4 / 7]])

    def test_sum_over_all_free_vars_is_one(self):
        t = table_2x2()
        e = SumOver(("X", "Y"), CondTerm(("X", "Y"), ()))
        assert evaluate_estimand(e, t).probs == pytest.approx(1.0)

    def test_sum_order_is_irrelevant(self):
        t = table_2x2()
        inner = CondTerm(("X", "Y"), ())
        a = evaluate_estimand(SumOver(("X",), SumOver(("Y",), inner)), t)
        b = evaluate_estimand(SumOver(("Y",), SumOver(("X",), inner)), t)
        c = evaluate_estimand(SumOver(("X", "Y"), inner), t)
        assert a.probs == pytest.approx(b.probs)
        assert a.probs == pytest.approx(c.probs)

    def test_sum_over_constant_scales_by_cardinality(self):
        t = table_2x2()
        e = SumOver(("Y",), CondTerm(("X",), ()))
        got = evaluate_estimand(e, t)
        assert np.allclose(got.probs, 2 * np.array([0.3, 0.7]))

    def test_quotient_zero_denominator_raises(self):
        x, y = Variable("X", 2), Variable("Y", 2)
        t = DistTable((x, y), np.array([[0.5, 0.5], [0.0, 0.0]]))
        e = CondTerm(("Y",), ("X",))
        with pytest.raises(EvaluationError):
            evaluate_estimand(e, t)

    def test_unknown_variable_raises(self):
        with pytest.raises(EvaluationError):
            evaluate_estimand(CondTerm(("Z",), ()), table_2x2())

    def test_nested_term_marginalizes_its_own_copy(self):
        # term over a nested two-variable distribution: sum_x P(x) P(y|x)
        t = table_2x2()
        nested = Nested(Product((CondTerm(("X",), ()), CondTerm(("Y",), ("X",)))), ("X", "Y"))
        got = evaluate_estimand(CondTerm(("Y",), (), nested), t)
        assert got.names == ("Y",)
        assert np.allclose(got.probs, [0.4, 0.6])

    def test_free_variables(self):
        nested = Nested(Product((CondTerm(("X",), ("W",)), CondTerm(("Y",), ("X",)))), ("X", "Y"))
        e = Quotient(CondTerm(("Y",), (), nested), SumOver(("Y",), CondTerm(("Y",), (), nested)))
        assert free_variables(e) == {"Y", "W"}


class TestFormatting:
    def test_plain_terms(self):
        assert format_estimand(CondTerm(("Y",), ("X",))) == "P(y|x)"
        assert format_estimand(CondTerm(("A", "B"), ())) == "P(a,b)"

    def test_sum_product(self):
        e = SumOver(("S",), Product((CondTerm(("S",), ("X",)), CondTerm(("R",), ("S",)))))
        assert format_estimand(e) == "Σ_{s} P(s|x) P(r|s)"

    def test_nested_bound_variables_get_primes(self):
        nested = Nested(Product((CondTerm(("X",), ()), CondTerm(("R",), ("X", "S")))), ("X", "R"))
        e = CondTerm(("R",), (), nested)
        assert format_estimand(e) == "Σ_{x'} P(x') P(r|x',s)"

    def test_nested_with_context_renders_quotient(self):
        nested = Nested(Product((CondTerm(("X",), ()), CondTerm(("R",), ("X",)))), ("X", "R"))
        e = CondTerm(("R",), ("X",), nested)
        assert format_estimand(e) == "[P(x) P(r|x)] / [Σ_{r'} P(x) P(r'|x)]"

    def test_quotient_brackets(self):
        e = Quotient(CondTerm(("Y",), ()), SumOver(("Y",), CondTerm(("Y",), ())))
        assert format_estimand(e) == "[P(y)] / [Σ_{y} P(y)]"


def broadcast_reference(e, obs: DistTable) -> DistTable:
    """`evaluate_estimand` by broadcasting: every node an array over all of the
    table's axes, of size 1 on those it does not depend on."""
    axis = {v.name: i for i, v in enumerate(obs.variables)}

    def sum_out(array, names):
        # an axis the term is constant over still contributes its cardinality
        scale, axes = 1, []
        for n in names:
            if array.shape[axis[n]] == 1:
                scale *= obs.variables[axis[n]].cardinality
            else:
                axes.append(axis[n])
        return (array.sum(axis=tuple(axes), keepdims=True) if axes else array) * scale

    def ev(e):
        if isinstance(e, CondTerm):
            if isinstance(e.ref, Nested):
                joint, scope = ev(e.ref.expr), set(e.ref.over)
            else:
                joint, scope = obs.probs, set(obs.names)
            num = sum_out(joint, scope - set(e.targets) - set(e.context))
            return num / sum_out(joint, scope - set(e.context))
        if isinstance(e, Product):
            out = np.ones((1,) * len(obs.variables))
            for f in e.factors:
                out = out * ev(f)
            return out
        if isinstance(e, SumOver):
            return sum_out(ev(e.term), e.over)
        return ev(e.numerator) / ev(e.denominator)

    variables = tuple(v for v in obs.variables if v.name in free_variables(e))
    return DistTable(variables, ev(e).reshape([v.cardinality for v in variables]))


class TestAgainstBroadcastReference:
    def test_random_identifiable_queries(self):
        rng = np.random.default_rng(1017)
        checked = conditional = mixed = 0
        while checked < 300:
            g = random_admg(rng)
            if rng.random() < 0.5:
                cards = rng.integers(2, 4, size=len(g.names))
                g = Admg([Variable(n, int(c)) for n, c in zip(g.names, cards)], g.directed,
                         [tuple(p) for p in g.bidirected])
            y, x = random_query(rng, g)
            rest = [n for n in g.names if n not in y | x]
            z = frozenset(n for n in rest if rng.random() < 0.5)
            result = identify_conditional_effect(y, x, z, g) if z else identify_effect(y, x, g)
            if not result.identifiable:
                continue
            shape = tuple(v.cardinality for v in g.variables)
            obs = DistTable(g.variables, rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape))
            got, want = evaluate_estimand(result.estimand, obs), broadcast_reference(result.estimand, obs)
            assert got.names == want.names and got.probs.shape == want.probs.shape
            assert np.abs(got.probs - want.probs).max() <= 1e-12, format_estimand(result.estimand)
            checked += 1
            conditional += bool(z)
            mixed += any(c > 2 for c in shape)
        assert conditional >= 100 and mixed >= 100


def einsum_reference(factors, keep):
    """The product as one `np.einsum` over every label at once, with no
    elimination order and no budget."""
    index, operands = {}, []
    for labels, table in factors:
        operands += [table, [index.setdefault(label, len(index)) for label in labels]]
    return np.einsum(*operands, [index[label] for label in keep])


class TestContract:
    # plain, tuple and mixed-type labels, as the estimands and the SCM network use them
    LABELS = ("A", "B", "C", "D", "E", ("A", "B"), ("u", 0), ("u", 1), "~u0")

    def random_factors(self, rng):
        size = {label: int(rng.integers(1, 4)) for label in self.LABELS}
        factors = []
        for _ in range(int(rng.integers(1, 7))):
            picked = rng.permutation(len(self.LABELS))[: int(rng.integers(0, 5))]
            labels = tuple(self.LABELS[i] for i in picked)
            factors.append((labels, rng.random(tuple(size[x] for x in labels))))
        present = list(dict.fromkeys(x for labels, _ in factors for x in labels))
        keep = [present[i] for i in rng.permutation(len(present))[: int(rng.integers(0, len(present) + 1))]]
        return factors, tuple(keep)

    def test_matches_one_einsum(self):
        rng = np.random.default_rng(2402)
        seen = dict.fromkeys(("tuple label", "0-d table", "keep held by one factor", "empty keep"), 0)
        for _ in range(400):
            factors, keep = self.random_factors(rng)
            got, want = contract(factors, keep), einsum_reference(factors, keep)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
            held = [sum(x in labels for labels, _ in factors) for x in keep]
            seen["tuple label"] += any(isinstance(x, tuple) for labels, _ in factors for x in labels)
            seen["0-d table"] += any(table.ndim == 0 for _, table in factors)
            seen["keep held by one factor"] += 1 in held and len(factors) > 1
            seen["empty keep"] += not keep
        assert min(seen.values()) >= 30, seen

    def test_eliminates_a_chain_one_label_at_a_time(self):
        # 60 labels: one einsum over all of them would loop over 2^60 cells
        rng = np.random.default_rng(5)
        mats = [rng.random((2, 2)) for _ in range(59)]
        got = contract([((i, i + 1), m) for i, m in enumerate(mats)], (0, 59))
        np.testing.assert_allclose(got, np.linalg.multi_dot(mats), rtol=1e-12)

    def test_budget_bounds_the_index_space(self):
        # one output cell, but the product loops over 4000 * 4000 > 10^7 cells;
        # a broadcast view holds them without allocating
        wide = np.broadcast_to(1.0, (4000, 4000))
        assert wide.size > ENUMERATION_BUDGET
        with pytest.raises(EvaluationError, match="budget"):
            contract([(("a", "b"), wide)], ())

    def test_unknown_keep_label(self):
        with pytest.raises(EvaluationError, match="unknown"):
            contract([(("a",), np.ones(2))], ("b",))
