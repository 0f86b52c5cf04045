from __future__ import annotations

import numpy as np
import pytest

from causalgen.graphs import Variable
from causalgen.models import (
    CptModel,
    DataError,
    Dataset,
    ExactConditionalModel,
    draw_categorical,
    exact_conditional,
    fit_conditional,
    read_dataset_csv,
    write_dataset_csv,
)
from causalgen.scm import empirical_distribution, exact_joint, noisy_copy_scm, sample_observational, tvd
from conftest import frontdoor_graph


def dataset(names, rows, intervened=(), cards=None):
    cards = cards or {}
    variables = tuple(Variable(n, cards.get(n, 2)) for n in names)
    return Dataset(variables, np.asarray(rows, dtype=np.int64), frozenset(intervened))


class TestDataset:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(DataError):
            dataset(["A"], [[2]])

    def test_rejects_unknown_intervened(self):
        with pytest.raises(DataError):
            dataset(["A"], [[0]], intervened=["B"])

    def test_restrict_drops_columns_keeps_rows(self):
        d = dataset(["A", "B"], [[0, 1], [1, 0]], intervened=["A"])
        r = d.restrict(["B"])
        assert r.names == ("B",) and r.n == 2 and r.intervened == frozenset()

    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        d = dataset(["A", "B"], [[0, 1], [1, 2], [0, 0]], intervened=["B"], cards={"B": 4})
        csv, side = tmp_path / "d.csv", tmp_path / "d.json"
        write_dataset_csv(d, csv, side)
        again = read_dataset_csv(csv, side)
        assert again.variables == d.variables
        assert again.intervened == d.intervened
        assert np.array_equal(again.rows, d.rows)
        write_dataset_csv(again, tmp_path / "d2.csv", tmp_path / "d2.json")
        assert (tmp_path / "d2.csv").read_bytes() == csv.read_bytes()
        assert (tmp_path / "d2.json").read_bytes() == side.read_bytes()


class TestFitConditional:
    def test_symmetric_counts_laplace(self):
        # 4 rows, 2 ones: (2+1)/(4+2) = 0.5
        d = dataset(["Y"], [[0], [0], [1], [1]])
        m = fit_conditional(d, "Y", [])
        assert m.table == pytest.approx([0.5, 0.5])

    def test_laplace_formula_with_context(self):
        # n(Y=1 | X=0) = 8 of 10: (8+1)/(10+2) = 0.75
        rows = [[0, 1]] * 8 + [[0, 0]] * 2 + [[1, 0]] * 5
        d = dataset(["X", "Y"], rows)
        m = fit_conditional(d, "Y", ["X"])
        assert m.table[0, 1] == pytest.approx(9 / 12)
        assert m.table[0, 0] == pytest.approx(3 / 12)

    def test_unseen_context_is_uniform(self):
        d = dataset(["X", "Y"], [[0, 1], [0, 0]])
        m = fit_conditional(d, "Y", ["X"])
        assert m.table[1] == pytest.approx([0.5, 0.5])

    def test_row_permutation_invariance(self, rng):
        rows = rng.integers(0, 2, size=(200, 2))
        d = dataset(["X", "Y"], rows)
        shuffled = dataset(["X", "Y"], rows[rng.permutation(200)])
        a = fit_conditional(d, "Y", ["X"])
        b = fit_conditional(shuffled, "Y", ["X"])
        assert np.allclose(a.table, b.table)

    def test_large_sample_recovers_exact_conditional(self):
        m = noisy_copy_scm(frontdoor_graph())
        data = sample_observational(m, 500_000, np.random.default_rng(3))
        fitted = fit_conditional(data, "R", ["X", "S"])
        exact = exact_conditional(exact_joint(m), "R", ["X", "S"])
        assert np.abs(fitted.table - exact.table).max() < 0.01

    def test_rejects_empty_dataset_and_target_in_context(self):
        empty = dataset(["X", "Y"], np.zeros((0, 2)))
        with pytest.raises(DataError):
            fit_conditional(empty, "Y", ["X"])
        d = dataset(["X", "Y"], [[0, 1]])
        with pytest.raises(DataError):
            fit_conditional(d, "Y", ["Y"])


class TestSampling:
    def test_deterministic_under_fixed_seed(self):
        d = dataset(["X", "Y"], [[0, 1], [1, 0], [0, 0], [1, 1]])
        m = fit_conditional(d, "Y", ["X"])
        ctx = {"X": np.zeros(50, dtype=np.int64)}
        a = m.sample_n(ctx, 50, np.random.default_rng(9))
        b = m.sample_n(ctx, 50, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_fair_coin_frequency(self):
        m = CptModel(Variable("Y", 2), (), np.array([0.5, 0.5]))
        draws = m.sample_n({}, 10_000, np.random.default_rng(1))
        assert abs(draws.mean() - 0.5) < 0.01

    def test_dominant_state_frequency(self):
        m = CptModel(Variable("Y", 2), (), np.array([0.02, 0.98]))
        draws = m.sample_n({}, 10_000, np.random.default_rng(2))
        assert abs(draws.mean() - 0.98) < 0.01

    def test_scalar_contract(self):
        d = dataset(["X", "Y"], [[0, 1], [1, 0]])
        m = fit_conditional(d, "Y", ["X"])
        value = m.sample({"X": 1}, np.random.default_rng(0))
        assert value in (0, 1)
        with pytest.raises(DataError):
            m.sample_n({}, 3, np.random.default_rng(0))


def gather_reference(table, rows, rng):
    """Inverse CDF by comparing the uniform with every cumulative probability
    of its row, as `ConditionalModel.sample_n` drew before the binary search."""
    cdf = np.cumsum(table, axis=1)
    u = rng.random(len(rows))
    return np.clip((u[:, None] > cdf[rows]).sum(axis=1), 0, table.shape[1] - 1)


class TestDrawCategorical:
    # a one-state noise is legal in an SCM file; 300 states search 9 levels deep
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 17, 300])
    @pytest.mark.parametrize("contexts", [1, 12])
    def test_matches_gather_reference(self, k, contexts):
        gen = np.random.default_rng(100 * k + contexts)
        table = gen.dirichlet(np.ones(k), size=contexts)
        table[:, 1::4] = 0.0  # states that must never be drawn
        table /= table.sum(axis=1, keepdims=True)
        rows = gen.integers(0, contexts, size=20_000)
        expected = gather_reference(table, rows, np.random.default_rng(7))
        drawn = draw_categorical(table, rows, np.random.default_rng(7))
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, expected)


class TestExactConditional:
    def test_independent_coins(self):
        x, y = Variable("X", 2), Variable("Y", 2)
        from causalgen.estimands import DistTable

        joint = DistTable((x, y), np.full((2, 2), 0.25))
        m = exact_conditional(joint, "Y", ["X"])
        assert np.allclose(m.table, 0.5)

    def test_frontdoor_matches_mechanism_conditional(self):
        m = noisy_copy_scm(frontdoor_graph())
        cond = exact_conditional(exact_joint(m), "R", ["X", "S"])
        # mechanism-derived: R follows S xor U with p=0.9 where U | X=x, S=s
        joint = exact_joint(m)
        p = joint.probs
        for x in range(2):
            for s in range(2):
                expected = p[x, s] / p[x, s].sum()
                assert np.abs(cond.table[x, s] - expected).max() < 1e-12

    @pytest.mark.parametrize(
        "table",
        [
            np.full((3, 2), 0.5),
            np.array([[0.5, 0.4], [0.5, 0.5]]),
            np.array([[1.5, -0.5], [0.5, 0.5]]),
            np.array([[0.5, 0.5], [np.nan, 0.5]]),  # a NaN sum is no sum of 1
        ],
    )
    def test_rejects_bad_table(self, table):
        with pytest.raises(DataError):
            ExactConditionalModel(Variable("Y", 2), (Variable("X", 2),), table)

    def test_zero_mass_context_raises(self):
        from causalgen.estimands import DistTable

        x, y = Variable("X", 2), Variable("Y", 2)
        joint = DistTable((x, y), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(DataError):
            exact_conditional(joint, "Y", ["X"])

    def test_point_mass_is_deterministic(self):
        from causalgen.estimands import DistTable

        x, y = Variable("X", 2), Variable("Y", 2)
        joint = DistTable((x, y), np.array([[0.5, 0.0], [0.0, 0.5]]))
        m = exact_conditional(joint, "Y", ["X"])
        draws = m.sample_n({"X": np.ones(100, dtype=np.int64)}, 100, np.random.default_rng(0))
        assert np.all(draws == 1)

    def test_single_model_reproduces_conditional_distribution(self):
        m = noisy_copy_scm(frontdoor_graph())
        cond = exact_conditional(exact_joint(m), "S", ["X"])
        rng = np.random.default_rng(11)
        for x in range(2):
            ctx = {"X": np.full(200_000, x, dtype=np.int64)}
            draws = cond.sample_n(ctx, 200_000, rng)
            d = dataset(["S"], draws.reshape(-1, 1))
            emp = empirical_distribution(d, ["S"])
            from causalgen.estimands import DistTable

            truth = DistTable((Variable("S", 2),), cond.table[x])
            assert tvd(emp, truth) < 0.01
