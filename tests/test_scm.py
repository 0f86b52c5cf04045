from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import causalgen
from causalgen.engine import ExactSource, network_law
from causalgen.estimands import DistTable, evaluate_estimand
from causalgen.graphs import Variable
from causalgen.identify import identify_effect
from causalgen.models import DRAW_CHUNK_ROWS, Dataset
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
    sampling_tolerance,
    tvd,
    write_scm,
)
from conftest import admg, chain_graph, confounded_chain, frontdoor_graph, random_admg


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
        index += [latent[p] for p in pairs if name in p]
        values[name] = m.mechanisms[name][tuple(index)]
    cards = [v.cardinality for v in g.variables]
    flat = np.ravel_multi_index([values[name] for name in g.names], cards)
    probs = np.bincount(flat, weights=weights, minlength=math.prod(cards))
    return DistTable(g.variables, probs.reshape(cards))


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

    def test_refuses_a_state_never_emitted(self):
        g = admg("A")
        with pytest.raises(ScmError, match="not strictly positive"):
            DiscreteScm(g, {"A": np.array([0.5, 0.5])}, {}, {"A": np.array([0, 0])})

    def test_accepts_zero_kernel_entries_when_the_joint_is_positive(self):
        # A copies the latent it shares with B: P(A | u) is 0 or 1, P(A) is not
        g = admg("A B", [], [("A", "B")])
        noise = {"A": np.array([1.0]), "B": np.array([0.5, 0.5])}
        mech = {"A": np.array([[0, 1]]), "B": np.array([[0, 1], [1, 0]])}
        m = DiscreteScm(g, noise, {("A", "B"): np.array([0.3, 0.7])}, mech)
        assert (m.network.nodes["A"].table == 0).any()
        assert np.abs(exact_joint(m).probs - 0.5 * np.array([[0.3, 0.3], [0.7, 0.7]])).max() <= 1e-12

    def test_enumeration_budget_enforced(self):
        # 24 independent coins: positive kernels, so the SCM is built, but the
        # joint of 2^24 cells exceeds the budget
        names = [f"V{i}" for i in range(24)]
        g = admg(" ".join(names))
        noise = {n: np.array([0.5, 0.5]) for n in names}
        mech = {n: np.array([0, 1]) for n in names}
        m = DiscreteScm(g, noise, {}, mech)
        with pytest.raises(ScmError, match="budget"):
            exact_joint(m)


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


def transfer_reference(m: DiscreteScm, n: int, value: int) -> np.ndarray:
    """P(V(n-1) | do(V0 = value)) on the confounded chain from the kernels of
    `m.network`: V0's point mass pushed through V1 ... V(n-2) by matrix
    products, then V(n-1)'s kernel averaged over the latent's prior."""
    h = m.network
    last = h.nodes[f"V{n - 1}"]
    parent, latent = last.context_names
    assert parent == f"V{n - 2}"
    state = np.eye(2)[value]
    for k in range(1, n - 1):
        assert h.nodes[f"V{k}"].context_names == (f"V{k - 1}",)
        state = state @ h.nodes[f"V{k}"].table
    return np.einsum("p,u,puy->y", state, h.nodes[latent].table, last.table)


class TestExactSource:
    """`ExactSource(m.network)` reads the SCM's law by contraction: each single
    variable, each ordered pair and the full set are the joint's marginals."""

    @staticmethod
    def scms():
        yield from (entry.scm for entry in catalog())
        rng = np.random.default_rng(23)
        for _ in range(12):
            yield random_mechanism_scm(random_admg(rng), rng)

    def test_marginals_are_the_joint(self):
        for m in self.scms():
            joint, source = exact_joint(m), ExactSource(m.network)
            names = m.graph.names
            for keep in [*((n,) for n in names), *itertools.permutations(names, 2), names[::-1]]:
                ref = joint.marginal(keep)
                expected = np.transpose(ref.probs, [ref.names.index(n) for n in keep])
                got = source.marginal_table(keep)
                assert got.names == keep
                assert np.abs(got.probs - expected).max() <= 1e-12, keep


class TestTargetOnlyOracle:
    @pytest.mark.parametrize("n", [24, 48, 100])
    def test_chain_matches_transfer_matrices(self, n):
        # the joint of 2^n cells is past the budget, P(V(n-1) | do(V0)) is not
        m = noisy_copy_scm(confounded_chain(n))
        for value in range(2):
            got = exact_interventional(m, {"V0": value}, keep=(f"V{n - 1}",))
            assert got.names == (f"V{n - 1}",)
            assert np.abs(got.probs - transfer_reference(m, n, value)).max() <= 1e-12
        with pytest.raises(ScmError, match="budget"):
            exact_joint(m)

    def test_keep_is_the_marginal_in_its_order(self):
        m = catalog_entry("double_napkin").scm
        full = exact_interventional(m, {"R": 1})
        assert full.names == m.graph.names
        got = exact_interventional(m, {"R": 1}, keep=("X", "W3", "W1"))
        want = full.marginal(["X", "W3", "W1"])  # in declaration order: W3, W1, X
        assert got.names == ("X", "W3", "W1")
        assert np.abs(got.probs - want.probs.transpose(2, 0, 1)).max() <= 1e-12

    def test_bytes_do_not_depend_on_the_hash_seed(self):
        # ties in the elimination order are broken by first appearance, never
        # by iterating a set of string labels, whose order follows the hash seed
        code = (
            "import hashlib\n"
            "from causalgen.graphs import Admg, Variable\n"
            "from causalgen.scm import catalog_entry, exact_interventional, noisy_copy_scm\n"
            "names = [f'V{i}' for i in range(16)]\n"
            "chain = noisy_copy_scm(Admg([Variable(v, 2) for v in names], list(zip(names, names[1:])),"
            " [('V0', 'V15'), ('V3', 'V9'), ('V5', 'V12')]))\n"
            "napkin = catalog_entry('double_napkin').scm\n"
            "tables = [exact_interventional(chain, {'V0': 1}, keep=('V15', 'V7')),"
            " exact_interventional(chain, {'V4': 0}, keep=('V2',)),"
            " exact_interventional(napkin, {'R': 1}), exact_interventional(napkin, {'W2': 0}, keep=('X',))]\n"
            "print(hashlib.sha256(b''.join(t.probs.tobytes() for t in tables)).hexdigest())\n"
        )
        src = str(Path(causalgen.__file__).resolve().parents[1])
        digests = {
            subprocess.run(
                [sys.executable, "-c", code], env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1", "2")
        }
        assert len(digests) == 1, digests


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

    def test_unknown_keep_name(self):
        m = noisy_copy_scm(chain_graph())
        with pytest.raises(ScmError, match="unknown variables"):
            exact_interventional(m, {"A": 1}, keep=("Q",))


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


def network_cases():
    """The SCMs the network tests sample: the catalog, mixed cardinalities with
    shared latents, a one-state latent, a declaration order that is not
    topological, and variables named like the network's latent nodes."""
    yield from ((entry.name, entry.scm) for entry in catalog())
    mixed = admg(
        [("A", 3), ("B", 2), ("C", 4), ("D", 2)],
        [("A", "B"), ("B", "C"), ("A", "D")],
        [("A", "C"), ("B", "C"), ("C", "D")],
    )
    yield "mixed", random_mechanism_scm(mixed, np.random.default_rng(5))
    yield "one-state latent", one_state_latent_scm()
    backwards = admg([("C", 2), ("B", 3), ("A", 2)], [("A", "B"), ("B", "C")], [("A", "C")])
    yield "not topological", random_mechanism_scm(backwards, np.random.default_rng(6))
    clash = admg("~u0 ~~u1 u0", [("~u0", "~~u1"), ("~~u1", "u0")], [("~u0", "u0"), ("~~u1", "u0")])
    yield "latent names", random_mechanism_scm(clash, np.random.default_rng(7))


NETWORK_CASES = dict(network_cases())


class TestScmNetwork:
    @pytest.mark.parametrize("name", NETWORK_CASES)
    def test_law_is_the_enumeration(self, name):
        m = NETWORK_CASES[name]
        law = network_law(m.network, [], m.graph.names)
        assert np.abs(law.probs - enumerate_reference(m, {}).probs).max() <= 1e-12

    @pytest.mark.parametrize("name", NETWORK_CASES)
    def test_nodes(self, name):
        m = NETWORK_CASES[name]
        h, g = m.network, m.graph
        latents = [pair for pair in g.latent_pairs() if len(m.latents[pair]) > 1]
        assert h.node_order[len(latents):] == g.topological_order()
        for u, pair in zip(h.node_order, latents):
            assert u not in g.names and h.nodes[u].context == ()
            assert np.array_equal(h.nodes[u].table, m.latents[pair])
        assert m.network is h  # built once

    def test_refuses_a_non_integer_mechanism(self):
        g = admg("A B", [("A", "B")])
        noise = {"A": np.array([0.5, 0.5]), "B": np.array([0.5, 0.5])}
        mech = {"A": np.array([0, 1]), "B": np.array([[0, 1], [0.5, 1]])}
        with pytest.raises(ScmError, match="mechanism for B must hold integers"):
            DiscreteScm(g, noise, {}, mech)


class TestJointIndexLookup:
    """`sample_observational` reads each variable's kernel row at the joint
    index of its parents and latents, through the network's models."""

    @pytest.mark.parametrize("name", NETWORK_CASES)
    def test_draws_the_exact_joint(self, name):
        m = NETWORK_CASES[name]
        g = m.graph
        # past two chunk seams
        n = 2 * DRAW_CHUNK_ROWS + 3
        d = sample_observational(m, n, np.random.default_rng(13))
        assert d.rows.dtype == np.min_scalar_type(max(v.cardinality for v in g.variables) - 1)
        assert d.variables == g.variables
        exact = exact_joint(m)
        bound = sampling_tolerance(exact.probs.size, n)
        assert tvd(empirical_distribution(d, g.names), exact) <= bound

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
