from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from causalgen.estimands import DistTable, evaluate_estimand
from causalgen.graphs import Variable
from causalgen.identify import identify_effect
from causalgen.models import DRAW_CHUNK_ROWS, Dataset, draw_categorical
from causalgen.scm import (
    DiscreteScm,
    ScmError,
    catalog,
    catalog_entry,
    empirical_distribution,
    exact_interventional,
    exact_joint,
    noisy_copy_scm,
    read_scm,
    sample_observational,
    tvd,
    write_scm,
)
from conftest import admg, chain_graph, frontdoor_graph, random_admg


def enumerate_reference(m: DiscreteScm, do) -> DistTable:
    """Brute-force oracle: push every exogenous state (noise per variable, one
    latent per confounded pair) through the mechanisms and add up its weight."""
    g = m.graph
    pairs = g.latent_pairs()
    priors = [m.noise[name] for name in g.names] + [m.latents[p] for p in pairs]
    dims = [p.shape[0] for p in priors]
    total = math.prod(dims)
    grid = np.indices(dims).reshape(len(dims), total)
    weights = np.ones(total)
    for axis, probs in enumerate(priors):
        weights *= probs[grid[axis]]
    noise = dict(zip(g.names, grid))
    latent = dict(zip(pairs, grid[len(g.names):]))
    values = {}
    for name in g.topological_order():
        if name in do:
            values[name] = np.full(total, do[name])
            continue
        index = [values[p] for p in g.parents(name)] + [noise[name]]
        index += [latent[p] for p in m.incident_latents(name)]
        values[name] = m.mechanisms[name][tuple(index)]
    cards = [v.cardinality for v in g.variables]
    flat = np.ravel_multi_index([values[name] for name in g.names], cards)
    probs = np.bincount(flat, weights=weights, minlength=math.prod(cards))
    return DistTable(g.variables, probs.reshape(cards))


def confounded_chain(n: int):
    """V0 -> ... -> V(n-1) with V0 <-> V(n-1)."""
    names = " ".join(f"V{i}" for i in range(n))
    return admg(names, [(f"V{i}", f"V{i + 1}") for i in range(n - 1)], [("V0", f"V{n - 1}")])


def random_mechanism_scm(g, rng) -> DiscreteScm:
    """Random noise, latent priors and mechanism tables; the last k noise states
    emit state 0..k-1 regardless of the inputs, so the joint is strictly positive."""
    noise, latents, mechanisms = {}, {}, {}
    for pair in g.latent_pairs():
        latents[pair] = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
    for v in g.variables:
        k = v.cardinality
        free = int(rng.integers(1, 3))
        noise[v.name] = rng.dirichlet(np.ones(free + k))
        parents = [g.variable(p).cardinality for p in g.parents(v.name)]
        incident = [latents[p].shape[0] for p in g.latent_pairs() if v.name in p]
        table = rng.integers(0, k, size=(*parents, free + k, *incident))
        forced = np.moveaxis(table, len(parents), 0)
        forced[free:] = np.arange(k).reshape((k,) + (1,) * (forced.ndim - 1))
        mechanisms[v.name] = table
    return DiscreteScm(g, noise, latents, mechanisms)


def single_dos(m: DiscreteScm):
    yield {}
    for v in m.graph.variables:
        for value in range(v.cardinality):
            yield {v.name: value}


def point_mass_scm():
    """Two independent variables, both forced to state 1."""
    g = admg("A B")
    noise = {"A": np.array([1e-9, 1 - 1e-9]), "B": np.array([1e-9, 1 - 1e-9])}
    mech = {"A": np.array([0, 1]), "B": np.array([0, 1])}
    return DiscreteScm(g, noise, {}, mech)


class TestExactJoint:
    def test_sums_to_one(self):
        for entry in catalog():
            assert exact_joint(entry.scm).total() == pytest.approx(1.0, abs=1e-12)

    def test_strictly_positive_on_catalog(self):
        for entry in catalog():
            assert exact_joint(entry.scm).probs.min() > 0

    def test_independent_fair_coins_uniform(self):
        g = admg("A B")
        noise = {"A": np.array([0.5, 0.5]), "B": np.array([0.5, 0.5])}
        mech = {"A": np.array([0, 1]), "B": np.array([0, 1])}
        m = DiscreteScm(g, noise, {}, mech)
        assert np.allclose(exact_joint(m).probs, 0.25)

    def test_rejects_non_positive_joint(self):
        g = admg("A")
        with pytest.raises(ScmError):
            DiscreteScm(g, {"A": np.array([1.0, 0.0])}, {}, {"A": np.array([0, 1])})

    def test_enumeration_budget_enforced(self):
        # 24 independent coins: 2^24 exogenous states exceed the budget
        names = [f"V{i}" for i in range(24)]
        g = admg(" ".join(names))
        noise = {n: np.array([0.5, 0.5]) for n in names}
        mech = {n: np.array([0, 1]) for n in names}
        with pytest.raises(ScmError, match="budget"):
            DiscreteScm(g, noise, {}, mech)


class TestOracleAgainstEnumeration:
    def assert_agrees(self, m: DiscreteScm):
        for do in single_dos(m):
            got = exact_interventional(m, do)
            assert got.variables == m.graph.variables
            assert np.abs(got.probs - enumerate_reference(m, do).probs).max() <= 1e-12, do

    def test_catalog(self):
        for entry in catalog():
            self.assert_agrees(entry.scm)

    def test_random_admgs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_admg(rng)
            self.assert_agrees(noisy_copy_scm(g))
            self.assert_agrees(random_mechanism_scm(g, rng))

    def test_mixed_cardinalities_and_shared_latents(self):
        g = admg(
            [("A", 3), ("B", 2), ("C", 4), ("D", 2)],
            [("A", "B"), ("B", "C"), ("A", "D")],
            [("A", "C"), ("B", "C"), ("C", "D")],
        )
        self.assert_agrees(random_mechanism_scm(g, np.random.default_rng(3)))

    def test_confounded_chains(self):
        for n in (6, 10):
            self.assert_agrees(noisy_copy_scm(confounded_chain(n)))

    def test_multi_variable_do(self):
        m = catalog_entry("double_napkin").scm
        do = {"R": 1, "W2": 0, "X": 1}
        assert np.abs(exact_interventional(m, do).probs - enumerate_reference(m, do).probs).max() <= 1e-12

    def test_chain_past_the_old_exogenous_budget(self):
        # 3^18 * 2 exogenous states, but a joint table of only 2^18 cells
        m = noisy_copy_scm(confounded_chain(18))
        table = exact_interventional(m, {"V0": 1})
        assert table.total() == pytest.approx(1.0, abs=1e-12)


class TestExactInterventional:
    def test_do_on_unconfounded_source_equals_conditioning(self):
        m = noisy_copy_scm(chain_graph())
        joint = exact_joint(m)
        for a in range(2):
            conditioned = joint.fix({"A": a})
            conditioned = DistTable(conditioned.variables, conditioned.probs / conditioned.probs.sum())
            intervened = exact_interventional(m, {"A": a}).marginal(["B", "C"])
            assert tvd(conditioned, intervened) < 1e-12

    def test_empty_do_is_joint(self):
        m = noisy_copy_scm(frontdoor_graph())
        assert tvd(exact_interventional(m, {}), exact_joint(m)) < 1e-15

    def test_frontdoor_cross_oracle(self):
        m = noisy_copy_scm(frontdoor_graph())
        joint = exact_joint(m)
        est = evaluate_estimand(identify_effect({"R"}, {"X"}, m.graph).estimand, joint)
        for x in range(2):
            truth = exact_interventional(m, {"X": x}).marginal(["R"])
            assert np.abs(est.fix({"X": x}).probs - truth.probs).max() < 1e-9

    def test_out_of_range_do(self):
        m = noisy_copy_scm(chain_graph())
        with pytest.raises(ScmError):
            exact_interventional(m, {"A": 5})


class TestSampling:
    def test_point_mass_constant_rows(self):
        m = point_mass_scm()
        d = sample_observational(m, 100, np.random.default_rng(0))
        assert np.all(d.rows == 1)

    def test_single_row(self):
        m = noisy_copy_scm(frontdoor_graph())
        d = sample_observational(m, 1, np.random.default_rng(0))
        assert d.n == 1 and d.names == ("X", "S", "R")

    def test_matches_exact_joint_at_scale(self):
        m = noisy_copy_scm(frontdoor_graph())
        d = sample_observational(m, 500_000, np.random.default_rng(1))
        emp = empirical_distribution(d, m.graph.names)
        assert tvd(emp, exact_joint(m)) < 0.01


def gather_reference(m: DiscreteScm, n: int, rng: np.random.Generator) -> np.ndarray:
    """The rows `sample_observational` drew before the joint index: the same
    exogenous draws, pushed through `mechanisms[name][tuple(index)]`, a
    multi-array fancy index into each mechanism."""
    g = m.graph
    noise = {name: draw_categorical(m.noise[name], (), n, rng) for name in g.names}
    latents = {pair: draw_categorical(m.latents[pair], (), n, rng) for pair in g.latent_pairs()}
    values = {}
    for name in g.topological_order():
        index = [values[p] for p in g.parents(name)] + [noise[name]]
        index += [latents[p] for p in m.incident_latents(name)]
        values[name] = m.mechanisms[name][tuple(index)]
    return np.stack([values[name] for name in g.names], axis=1)


def one_state_latent_scm() -> DiscreteScm:
    """A 300-state cause of a binary effect, confounded by a one-state latent,
    so a mechanism has an axis of one state and its joint index needs uint16."""
    g = admg([("A", 300), ("B", 2)], [("A", "B")], [("A", "B")])
    mech_a = np.arange(300).reshape(300, 1)  # (noise, latent)
    mech_b = np.zeros((300, 3, 1), dtype=np.int64)  # (A, noise, latent)
    mech_b[:, 0, 0] = np.arange(300) % 2
    mech_b[:, 2, 0] = 1
    noise = {"A": np.full(300, 1 / 300), "B": np.array([0.6, 0.2, 0.2])}
    return DiscreteScm(g, noise, {("A", "B"): np.array([1.0])}, {"A": mech_a, "B": mech_b})


class TestJointIndexLookup:
    @pytest.mark.parametrize(
        "name", ["frontdoor", "backdoor", "zigzag", "napkin", "double_napkin", "bow", "mixed", "one-state latent"]
    )
    def test_matches_fancy_index_gather(self, name):
        if name == "mixed":
            g = admg(
                [("A", 3), ("B", 2), ("C", 4), ("D", 2)],
                [("A", "B"), ("B", "C"), ("A", "D")],
                [("A", "C"), ("B", "C"), ("C", "D")],
            )
            m = random_mechanism_scm(g, np.random.default_rng(5))
        elif name == "one-state latent":
            m = one_state_latent_scm()
        else:
            m = catalog_entry(name).scm
        # past two chunk seams
        n = 2 * DRAW_CHUNK_ROWS + 3
        d = sample_observational(m, n, np.random.default_rng(13))
        expected = gather_reference(m, n, np.random.default_rng(13))
        assert d.rows.dtype == np.min_scalar_type(max(v.cardinality for v in m.graph.variables) - 1)
        assert np.array_equal(d.rows, expected)

    def test_allocates_no_row_sized_index(self):
        # the rows and the exogenous columns take one byte a value; an intp index of
        # the rows would add 8 MB, and the joint index of all rows 1 MB more
        m = catalog_entry("double_napkin").scm
        n = 1_000_000
        g = m.graph
        tracemalloc.start()
        try:
            d = sample_observational(m, n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == n
        assert peak <= n * (2 * len(g.names) + len(g.latent_pairs())) + (4 << 20)


class TestMetrics:
    def test_tvd_identity(self):
        t = exact_joint(noisy_copy_scm(chain_graph()))
        assert tvd(t, t) == 0.0

    def test_tvd_disjoint_point_masses(self):
        a = DistTable((Variable("X", 2),), np.array([1.0, 0.0]))
        b = DistTable((Variable("X", 2),), np.array([0.0, 1.0]))
        assert tvd(a, b) == pytest.approx(1.0)

    def test_tvd_hand_value(self):
        a = DistTable((Variable("X", 2),), np.array([0.6, 0.4]))
        b = DistTable((Variable("X", 2),), np.array([0.5, 0.5]))
        assert tvd(a, b) == pytest.approx(0.1)

    def test_tvd_rejects_mismatch(self):
        a = DistTable((Variable("X", 2),), np.array([0.6, 0.4]))
        b = DistTable((Variable("Y", 2),), np.array([0.6, 0.4]))
        with pytest.raises(ScmError):
            tvd(a, b)

    def test_empirical_point_mass(self):
        d = Dataset((Variable("A", 2),), np.ones((10, 1), dtype=np.int64))
        emp = empirical_distribution(d, ["A"])
        assert np.allclose(emp.probs, [0.0, 1.0])

    def test_empirical_concentration(self):
        m = noisy_copy_scm(chain_graph())
        d = sample_observational(m, 200_000, np.random.default_rng(2))
        emp = empirical_distribution(d, m.graph.names)
        assert tvd(emp, exact_joint(m)) <= 3 * np.sqrt(8 / 200_000)


class TestCatalog:
    def test_expected_entries_and_flags(self):
        entries = {e.name: e for e in catalog()}
        assert set(entries) == {"frontdoor", "backdoor", "zigzag", "napkin", "double_napkin", "bow"}
        assert entries["frontdoor"].queries[0].identifiable
        assert not entries["bow"].queries[0].identifiable

    def test_napkin_identifiable_with_expected_steps(self):
        entry = catalog_entry("napkin")
        result = identify_effect(("Y",), ("X",), entry.scm.graph)
        assert result.identifiable
        assert [e.step for e in result.trace] == ["S3", "S7", "S2", "S6"]

    def test_effects_are_visible(self):
        for entry in catalog():
            for q in entry.queries:
                if not q.identifiable or q.given:
                    continue
                a = exact_interventional(entry.scm, {q.do[0]: 0}).marginal(q.targets)
                b = exact_interventional(entry.scm, {q.do[0]: 1}).marginal(q.targets)
                assert tvd(a, b) > 0.05, entry.name


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = catalog_entry("frontdoor").scm
        write_scm(m, tmp_path / "fd.scm", tmp_path / "fd.graph")
        again = read_scm(tmp_path / "fd.scm")
        assert again.graph == m.graph
        for name in m.graph.names:
            assert np.allclose(again.noise[name], m.noise[name])
            assert np.array_equal(again.mechanisms[name], m.mechanisms[name])
        for pair in m.graph.latent_pairs():
            assert np.allclose(again.latents[pair], m.latents[pair])
        assert tvd(exact_joint(again), exact_joint(m)) < 1e-12

    @pytest.mark.parametrize(
        "line, match",
        [
            ("latent X", "fd.scm:3"),
            ("noise X 0.4 zz", "fd.scm:3"),
            ("mech X 0", "fd.scm:3"),
            ("mech X 0 a", "fd.scm:3"),
            ("graph", "fd.scm:3"),
            ("graph missing.graph", "fd.scm:3"),
            ("noise X nan nan", "bad noise distribution"),
            ("noise Z 0.5 0.5", "fd.scm:3"),
            ("mech Z 0 1", "fd.scm:3"),
            ("latent X Q 0.5 0.5", "fd.scm:3"),
            ("latent X R 0.5 nan", "fd.scm:3: bad latent distribution"),
            # a second declaration of the graph, a noise or a latent pair, in either order
            ("graph fd.graph", r"fd.scm:3: repeated graph \(first at line 1\)"),
            ("noise X 0.2 0.4 0.4", r"fd.scm:3: repeated noise X \(first at line 2\)"),
            ("latent X R 0.5 0.5", r"fd.scm:6: repeated latent X R \(first at line 3\)"),
            ("latent R X 0.5 0.5", r"fd.scm:6: repeated latent X R \(first at line 3\)"),
        ],
    )
    def test_malformed_line(self, tmp_path, line, match):
        m = catalog_entry("frontdoor").scm
        write_scm(m, tmp_path / "fd.scm", tmp_path / "fd.graph")
        lines = (tmp_path / "fd.scm").read_text().splitlines()
        lines.insert(2, line)
        (tmp_path / "fd.scm").write_text("\n".join(lines) + "\n")
        with pytest.raises(ScmError, match=match):
            read_scm(tmp_path / "fd.scm")

    @pytest.mark.parametrize("row, match", [("mech X -1 1 0", "fd.scm:9"), ("mech X 1 1 7", "out-of-range")])
    def test_bad_mechanism_rows(self, tmp_path, row, match):
        m = catalog_entry("frontdoor").scm
        write_scm(m, tmp_path / "fd.scm", tmp_path / "fd.graph")
        # a negative index would shadow another cell and pass the size check
        text = (tmp_path / "fd.scm").read_text().replace("mech X 1 1 0\n", row + "\n")
        (tmp_path / "fd.scm").write_text(text)
        with pytest.raises(ScmError, match=match):
            read_scm(tmp_path / "fd.scm")

    def test_missing_graph_declaration(self, tmp_path):
        (tmp_path / "bad.scm").write_text("noise X 0.5 0.5\n")
        with pytest.raises(ScmError):
            read_scm(tmp_path / "bad.scm")
