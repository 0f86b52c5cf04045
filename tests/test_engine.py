from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from causalgen.engine import (
    BuildContext,
    DatasetSource,
    EngineError,
    ExactSource,
    MergeConflict,
    QuerySpec,
    RecursionState,
    SamplingNetwork,
    ancestral_sample,
    apply_partial_intervention,
    build_conditional_sampler,
    build_network,
    fit_conditional_models,
    format_network,
    merge_networks,
    network_law,
    parse_query,
    format_query,
    proposal_models,
    sample_interventional,
)
from causalgen.estimands import DistTable, evaluate_estimand
from causalgen.graphs import Admg, GraphError, Variable
from causalgen.identify import identify_conditional_effect, identify_effect, maximal_rule2_shift, run_id
from causalgen.models import CptModel, Dataset, ExactConditionalModel
from causalgen.scm import (
    catalog,
    catalog_entry,
    empirical_distribution,
    exact_joint,
    exact_interventional,
    noisy_copy_scm,
    sample_observational,
    tvd,
)
from conftest import (
    admg,
    bow_graph,
    chain_graph,
    confounded_chain,
    frontdoor_graph,
    napkin_graph,
    oracle_conditional,
    random_admg,
    random_query,
    zigzag_graph,
)


def contexts(network: SamplingNetwork) -> dict[str, tuple[str, ...] | None]:
    return {
        name: (None if model is None else model.context_names)
        for name, model in network.nodes.items()
    }


def exact_source(g):
    return ExactSource(noisy_copy_scm(g).network)


def root_state(y, x, g, source):
    return RecursionState(frozenset(y), frozenset(x), g, source, frozenset(), g)


class TestQuerySpec:
    def test_parse_and_format_round_trip(self):
        text = "target=Y\ndo=X=1\ngiven=A=0\n"
        q = parse_query(text)
        assert q == QuerySpec(("Y",), (("X", 1),), (("A", 0),))
        assert format_query(q) == text

    def test_validate_rejects_overlap_and_range(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            QuerySpec(("C",), (("C", 0),)).validate(g)
        with pytest.raises(GraphError):
            QuerySpec(("C",), (("A", 9),)).validate(g)


class TestFitConditionalModels:
    def test_chain_factorization(self):
        g = admg("A B", [("A", "B")])
        src = exact_source(g)
        h = fit_conditional_models(
            frozenset({"A", "B"}), frozenset(), root_state({"B"}, set(), g, src),
            BuildContext(root_order=tuple(g.topological_order())),
        )
        assert contexts(h) == {"A": (), "B": ("A",)}

    def test_napkin_base_case_shape(self):
        # the base case reached by the napkin recursion: a placeholder for the
        # remaining intervention and one model for Y, whose c-factor context is
        # its parent X alone; the intervened history W2 is read by no model
        g = napkin_graph()
        res = build_network({"Y"}, {"X"}, g, exact_source(g), rng=np.random.default_rng(0))
        assert contexts(res.network) == {"X": None, "Y": ("X",)}

    def test_single_source_target(self):
        g = chain_graph()
        src = exact_source(g)
        h = fit_conditional_models(
            frozenset({"A"}), frozenset(), root_state({"A"}, set(), g, src),
            BuildContext(root_order=tuple(g.topological_order())),
        )
        assert contexts(h)["A"] == ()


class TestSamplingNetworkValidate:
    @pytest.mark.parametrize("a_card, b_card", [(3, 3), (2, 3), (3, 2)])
    def test_rejects_model_cardinality_mismatch(self, a_card, b_card):
        g = admg("A B", [("A", "B")])
        model = CptModel(Variable("B", b_card), (Variable("A", a_card),), np.full((a_card, b_card), 1 / b_card))
        with pytest.raises(EngineError, match="cardinality"):
            SamplingNetwork(dict(zip(g.names, g.variables)), {"A": None, "B": model}, tuple(g.names))


class TestMergeNetworks:
    def test_zigzag_parts_unify(self):
        g = zigzag_graph()
        res = build_network({"Y"}, {"X"}, g, exact_source(g), rng=np.random.default_rng(0))
        got = contexts(res.network)
        assert got["X"] is None
        assert got["W1"] == ("X",)
        assert got["Y"] == ("X", "W1", "W2")
        assert got["W2"] is not None  # produced by the sibling component's network

    def test_single_part_identity(self):
        g = chain_graph()
        src = exact_source(g)
        h = fit_conditional_models(
            frozenset({"A", "B", "C"}), frozenset(), root_state({"C"}, set(), g, src),
            BuildContext(root_order=tuple(g.topological_order())),
        )
        merged = merge_networks([h])
        assert contexts(merged) == contexts(h)

    def test_disjoint_union(self):
        g = admg("A B")
        src = exact_source(g)
        order = tuple(g.topological_order())
        ha = SamplingNetwork({"A": g.variable("A")}, {"A": src.fit("A", [])}, order)
        hb = SamplingNetwork({"B": g.variable("B")}, {"B": src.fit("B", [])}, order)
        merged = merge_networks([ha, hb])
        assert set(merged.nodes) == {"A", "B"}
        assert not merged.empty_nodes()

    def test_conflicting_producers_rejected(self):
        g = admg("A")
        src = exact_source(g)
        ctx = BuildContext(root_order=("A",))
        h1 = fit_conditional_models(frozenset({"A"}), frozenset(), root_state({"A"}, set(), g, src), ctx)
        h2 = fit_conditional_models(frozenset({"A"}), frozenset(), root_state({"A"}, set(), g, src), ctx)
        with pytest.raises(MergeConflict):
            merge_networks([h1, h2])


class TestPartialIntervention:
    def napkin_step7_state(self, n=200_000, seed=0):
        g = napkin_graph()
        m = noisy_copy_scm(g)
        data = sample_observational(m, n, np.random.default_rng(seed))
        state = RecursionState(frozenset({"Y"}), frozenset({"W1", "W2", "X"}), g, DatasetSource(data), frozenset(), g)
        ctx = BuildContext(root_order=tuple(g.topological_order()), rng=np.random.default_rng(seed + 1))
        return m, state, ctx

    def test_napkin_partition_and_graphs(self):
        m, state, ctx = self.napkin_step7_state(n=500)
        new = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
        assert new.x == {"W1", "X"}
        assert new.x_hat == {"W2"}
        assert new.g.names == ("W1", "X", "Y")
        assert new.g_hat.directed == frozenset({("W2", "X"), ("X", "Y")})
        assert new.g_hat == napkin_graph().remove_incoming({"W2"})  # the root graph, never narrowed
        assert set(new.source.columns) == {"W1", "W2", "X", "Y"}

    def test_napkin_regenerated_data_law(self):
        m, state, ctx = self.napkin_step7_state()
        new = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
        d = new.source.dataset
        w2 = empirical_distribution(d, ["W2"])
        assert tvd(w2, DistTable((m.graph.variable("W2"),), np.array([0.5, 0.5]))) < 0.02
        for value in (0, 1):
            rows = d.rows[d.column("W2") == value]
            sub = Dataset(d.variables, rows, d.intervened)
            truth = exact_interventional(m, {"W2": value}).marginal(["W1", "X", "Y"])
            assert tvd(empirical_distribution(sub, truth.names), truth) < 0.03

    def test_exact_regeneration_matches_sampled_law(self):
        m, state, ctx = self.napkin_step7_state()
        sampled = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
        exact_state = RecursionState(state.y, state.x, state.g, ExactSource(m.network), frozenset(), state.g_hat)
        src = apply_partial_intervention(frozenset({"W1", "X", "Y"}), exact_state, ctx).source
        law = src.marginal_table(src.columns)
        emp = empirical_distribution(sampled.source.dataset, law.names)
        assert tvd(emp, law) < 0.01

    def test_empty_component_rejected(self):
        _, state, ctx = self.napkin_step7_state(n=100)
        with pytest.raises(EngineError):
            apply_partial_intervention(frozenset(), state, ctx)

    def test_multiplier_scales_rows(self):
        _, state, ctx = self.napkin_step7_state(n=1000)
        ctx.dprime_mult = 2.0
        new = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
        assert new.source.dataset.n == 2000

    def test_marginal_proposal_follows_data(self):
        m, state, ctx = self.napkin_step7_state()
        ctx.proposal = "marginal"
        new = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
        w2 = empirical_distribution(new.source.dataset, ["W2"])
        truth = exact_joint(m).marginal(["W2"])
        assert tvd(w2, truth) < 0.02

    @pytest.mark.parametrize("proposal", ["uniform", "marginal"])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n", [6, 12])
    def test_chain_source_holds_the_read_set(self, n, exact, proposal):
        # P(V(n-1) | do(V0)): step 7 intervenes on V1..V(n-2), V(n-1)'s model reads
        # V0 and V(n-2), and the marginal proposal's V(n-2) reads V1..V(n-3)
        g = confounded_chain(n)
        m = noisy_copy_scm(g)
        source = ExactSource(m.network) if exact else DatasetSource(
            sample_observational(m, 1000, np.random.default_rng(0)))
        ctx = step7_states(proposal, {f"V{n - 1}"}, {"V0"}, g, source)
        ((state, s_prime),) = ctx.step7
        new = apply_partial_intervention(s_prime, state, ctx)
        read = {"V0", f"V{n - 2}", f"V{n - 1}"} if proposal == "uniform" else set(g.names)
        assert set(new.source.columns) == read


class TestAncestralSampling:
    def test_two_node_network_matches_enumeration(self):
        g = admg("A B", [("A", "B")])
        m = noisy_copy_scm(g)
        res = build_network({"A", "B"}, set(), g, ExactSource(m.network))
        d = ancestral_sample(res.network, {}, 200_000, np.random.default_rng(3))
        assert tvd(empirical_distribution(d, ["A", "B"]), exact_joint(m)) < 0.01

    def test_all_nodes_fixed_constant_rows(self):
        g = frontdoor_graph()
        res = build_network({"R"}, {"X"}, g, exact_source(g))
        h = res.network
        fixed = {name: 1 for name in h.node_order}
        d = ancestral_sample(h, fixed, 50, np.random.default_rng(0))
        assert np.all(d.rows == 1)

    def test_frontdoor_do_x_matches_oracle(self):
        g = frontdoor_graph()
        m = noisy_copy_scm(g)
        res = build_network({"R"}, {"X"}, g, ExactSource(m.network))
        d = sample_interventional(res.network, QuerySpec(("R",), (("X", 1),)), 200_000, np.random.default_rng(4))
        emp = empirical_distribution(d, ["R"])
        assert tvd(emp, exact_interventional(m, {"X": 1}).marginal(["R"])) < 0.01

    def test_unassigned_placeholder_rejected(self):
        g = frontdoor_graph()
        res = build_network({"R"}, {"X"}, g, exact_source(g))
        with pytest.raises(EngineError):
            ancestral_sample(res.network, {}, 10, np.random.default_rng(0))

    def test_rejects_nonpositive_count(self):
        g = frontdoor_graph()
        res = build_network({"R"}, {"X"}, g, exact_source(g))
        with pytest.raises(EngineError):
            ancestral_sample(res.network, {"X": 0}, 0, np.random.default_rng(0))

    def test_worker_split_is_deterministic(self):
        g = frontdoor_graph()
        res = build_network({"R"}, {"X"}, g, exact_source(g))
        a = ancestral_sample(res.network, {"X": 0}, 999, np.random.default_rng(5), workers=3)
        b = ancestral_sample(res.network, {"X": 0}, 999, np.random.default_rng(5), workers=3)
        assert np.array_equal(a.rows, b.rows)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        g = frontdoor_graph()
        res = build_network({"R"}, {"X"}, g, exact_source(g))
        with pytest.raises(EngineError, match="workers"):
            ancestral_sample(res.network, {"X": 0}, 10, np.random.default_rng(0), workers=workers)

    def test_streams_are_drawn_on_the_calling_thread(self, monkeypatch):
        g = frontdoor_graph()
        net = build_network({"R"}, {"X"}, g, exact_source(g)).network

        def refuse(thread):
            raise AssertionError(f"ancestral_sample started the thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        drawn = ancestral_sample(net, {"X": 0}, 999, np.random.default_rng(5), workers=3)
        expected = stacked_reference(net, {"X": 0}, 999, np.random.default_rng(5), workers=3)
        assert np.array_equal(drawn.rows, expected)

    def test_threads_fill_their_own_rows_of_one_block(self, monkeypatch):
        # more threads than cores, switching often: a lost or misplaced chunk write changes the rows
        g = frontdoor_graph()
        net = build_network({"R"}, {"X"}, g, exact_source(g)).network
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = ancestral_sample(net, {"X": 1}, 20_003, np.random.default_rng(6), workers=8)
        finally:
            sys.setswitchinterval(interval)
        expected = stacked_reference(net, {"X": 1}, 20_003, np.random.default_rng(6), workers=8)
        assert np.array_equal(threaded.rows, expected)


def stacked_reference(h, fixed, n, rng, workers):
    """The rows `ancestral_sample` drew by stacking: each stream's chunk drawn
    into int64 columns of its own, in node order, the chunks stacked in stream order."""
    sizes = [n // workers + (1 if i < n % workers else 0) for i in range(workers)]
    pieces = []
    for size, stream in zip(sizes, rng.spawn(workers)):
        cols = {name: np.full(size, value, dtype=np.int64) for name, value in fixed.items()}
        for name in h.node_order:
            if name not in cols:
                cols[name] = h.nodes[name].sample_n(cols, size, stream)
        pieces.append(np.column_stack([cols[name] for name in h.node_order]))
    return np.vstack(pieces)


class TestProjectTargets:
    def test_identity_and_idempotence(self):
        d = Dataset((Variable("A", 2), Variable("B", 2)), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(d.restrict(["A", "B"]).rows, d.rows)
        once = d.restrict(["B"])
        twice = once.restrict(["B"])
        assert np.array_equal(once.rows, twice.rows)

    def test_marginal_frequencies_preserved(self):
        d = Dataset((Variable("A", 2), Variable("B", 2)), np.array([[0, 1], [1, 1], [1, 0]]))
        projected = d.restrict(["B"])
        assert projected.n == 3
        assert np.array_equal(projected.column("B"), d.column("B"))


class TestBuildNetwork:
    def test_napkin_c_factor_query_network(self):
        # do on the confounded root: one factor per c-component of the rest,
        # merged into a network that regenerates its own inputs
        g = napkin_graph()
        res = build_network({"Y"}, {"W1"}, g, exact_source(g), rng=np.random.default_rng(0))
        steps = [e.step for e in res.trace]
        assert steps == ["S4", "S2", "S6", "S2", "S7", "S2", "S1", "S7", "S2", "S6"]
        got = contexts(res.network)
        assert got["W1"] is None
        assert got["W2"] == ("W1",)
        assert got["X"] == ("W2",)
        assert got["Y"] == ("X",)

    def test_bow_returns_hedge(self):
        g = bow_graph()
        res = build_network({"Y"}, {"X"}, g, exact_source(g))
        assert not res.identifiable
        assert res.network is None
        assert sorted(res.hedge.f) == ["X", "Y"]

    def test_trace_mirrors_identification(self, rng):
        for _ in range(60):
            g = random_admg(rng)
            y, x = random_query(rng, g)
            symbolic = identify_effect(y, x, g)
            rows = rng.integers(0, 2, size=(128, len(g.names)))
            src = DatasetSource(Dataset(g.variables, rows))
            built = build_network(y, x, g, src, rng=np.random.default_rng(1))
            assert [(e.step, e.y, e.x, e.depth) for e in symbolic.trace] == [
                (e.step, e.y, e.x, e.depth) for e in built.trace
            ]
            assert symbolic.identifiable == built.identifiable
            assert symbolic.hedge == built.hedge

    def test_random_identifiable_queries_sound_in_exact_mode(self):
        # network sampling agrees with the mutilated-SCM oracle on whatever
        # recursion shapes random graphs produce
        rng = np.random.default_rng(77)
        checked = 0
        trial = 0
        while checked < 15:
            trial += 1
            g = random_admg(rng, max_nodes=5)
            y, x = random_query(rng, g)
            if not x:
                continue
            if not identify_effect(y, x, g).identifiable:
                continue
            m = noisy_copy_scm(g)
            built = build_network(y, x, g, ExactSource(m.network),
                                  rng=np.random.default_rng(trial))
            srng = np.random.default_rng(1000 + trial)
            for value in (0, 1):
                do = {name: value for name in sorted(x)}
                truth = exact_interventional(m, do).marginal(y)
                drawn = sample_interventional(
                    built.network, QuerySpec(tuple(y), tuple(do.items())), 50_000, srng
                )
                assert tvd(empirical_distribution(drawn, truth.names), truth) < 0.02
            checked += 1

    def test_structural_validity_on_random_builds(self, rng):
        for _ in range(40):
            g = random_admg(rng)
            y, x = random_query(rng, g)
            rows = rng.integers(0, 2, size=(128, len(g.names)))
            built = build_network(y, x, g, DatasetSource(Dataset(g.variables, rows)),
                                  rng=np.random.default_rng(2))
            if not built.identifiable:
                continue
            h = built.network
            h.validate()
            position = {n: i for i, n in enumerate(h.global_order)}
            assert all(position[a] < position[b] for a, b in h.edges())
            assert set(y) <= set(h.nodes)
            for name, model in h.nodes.items():
                assert (model is None) == (name in h.empty_nodes())

    def test_marginal_proposal_end_to_end(self):
        g = napkin_graph()
        m = noisy_copy_scm(g)
        data = sample_observational(m, 200_000, np.random.default_rng(0))
        built = build_network({"Y"}, {"X"}, g, DatasetSource(data),
                              proposal="marginal", rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for x in (0, 1):
            drawn = sample_interventional(built.network, QuerySpec(("Y",), (("X", x),)), 100_000, rng)
            truth = exact_interventional(m, {"X": x}).marginal(["Y"])
            assert tvd(empirical_distribution(drawn, truth.names), truth) < 0.02

    def test_mixed_cardinalities_end_to_end(self):
        # three-state treatment and outcome through identification, compilation,
        # partial intervention, and sampling
        g = admg(
            [("X", 3), ("S", 2), ("R", 3)], [("X", "S"), ("S", "R")], [("X", "R")]
        )
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        result = identify_effect({"R"}, {"X"}, g)
        from causalgen.estimands import evaluate_estimand

        table = evaluate_estimand(result.estimand, joint)
        built = build_network({"R"}, {"X"}, g, ExactSource(m.network), rng=np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for x in range(3):
            truth = exact_interventional(m, {"X": x}).marginal(["R"])
            assert np.abs(table.fix({"X": x}).probs - truth.probs).max() < 1e-9
            drawn = sample_interventional(built.network, QuerySpec(("R",), (("X", x),)), 100_000, rng)
            assert tvd(empirical_distribution(drawn, truth.names), truth) < 0.02

    def test_repeated_partial_interventions_stay_sound(self):
        # a recursion branch that applies do(X_Z) twice, so the second
        # regeneration anchors on a non-empty intervention history
        g = admg(
            "V0 V1 V2 V3 V4",
            [("V0", "V1"), ("V0", "V2"), ("V0", "V3"), ("V1", "V3"),
             ("V2", "V3"), ("V2", "V4"), ("V3", "V4")],
            [("V0", "V4"), ("V1", "V2"), ("V1", "V4")],
        )
        y, x = {"V2", "V4"}, {"V0", "V1", "V3"}
        result = identify_effect(y, x, g)
        steps = [e.step for e in result.trace]
        assert steps == ["S4", "S2", "S6", "S7", "S2", "S7", "S2", "S1"]
        m = noisy_copy_scm(g)
        built = build_network(y, x, g, ExactSource(m.network), rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        import itertools

        worst = 0.0
        for combo in itertools.product((0, 1), repeat=3):
            do = dict(zip(sorted(x), combo))
            truth = exact_interventional(m, do).marginal(y)
            drawn = sample_interventional(
                built.network, QuerySpec(tuple(y), tuple(do.items())), 100_000, rng
            )
            worst = max(worst, tvd(empirical_distribution(drawn, truth.names), truth))
        assert worst < 0.015

    def test_partial_do_assignment_rejected(self):
        # fixing only part of the do-set would sample a mixture, not an intervention
        g = admg("A B C", [("A", "C"), ("B", "C")])
        res = build_network({"C"}, {"A", "B"}, g, exact_source(g))
        assert set(res.network.empty_nodes()) == {"A", "B"}
        with pytest.raises(EngineError, match="must fix"):
            sample_interventional(res.network, QuerySpec(("C",), (("A", 1),)), 10,
                                  np.random.default_rng(0))

    def test_model_reading_a_history_placeholder_rejected(self, monkeypatch):
        # with every earlier variable as context, napkin's Y reads the
        # regenerated W2, which is no do-variable
        full = lambda self, order, name: tuple(order[: order.index(name)])
        monkeypatch.setattr(Admg, "c_factor_context", full)
        g = napkin_graph()
        with pytest.raises(EngineError, match=r"\['W2'\].*not do-variables"):
            build_network({"Y"}, {"X"}, g, exact_source(g))

    def test_builds_no_graphs_beyond_the_symbolic_recursion(self, monkeypatch):
        # the working graph is carried in the state, so the compiler's only
        # graphs of its own are step 7's history graphs, one per S7 entry
        built = [0]
        init = Admg.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Admg, "__init__", counting_init)
        rng = np.random.default_rng(2024)
        for _ in range(300):
            g = random_admg(rng)
            y, x = random_query(rng, g)
            data = Dataset(g.variables, rng.integers(0, 2, size=(256, len(g.names))))
            built[0] = 0
            identify_effect(y, x, g)
            symbolic = built[0]
            built[0] = 0
            result = build_network(y, x, g, DatasetSource(data), rng=np.random.default_rng(0))
            s7 = sum(1 for entry in result.trace if entry.step == "S7")
            assert built[0] <= symbolic + s7, (g, y, x)

    def test_state_rejects_history_with_parents_or_confounders(self):
        g = frontdoor_graph()  # X -> S -> R, X <-> R
        for x_hat in ({"X"}, {"S"}):
            rest = g.induced_subgraph(set(g.names) - x_hat)
            with pytest.raises(EngineError, match="x_hat must have no parents"):
                RecursionState(frozenset({"R"}), frozenset(), rest, exact_source(g), frozenset(x_hat), g)

    def test_state_rejects_history_inside_the_working_graph(self):
        g = frontdoor_graph().remove_incoming({"X"})  # X has no parents or confounders left
        with pytest.raises(EngineError, match="x_hat must be disjoint from g"):
            RecursionState(frozenset({"R"}), frozenset(), g, exact_source(g), frozenset({"X"}), g)

    @staticmethod
    def chain12_after_step7(columns) -> RecursionState:
        """P(V11 | do(V0)) on the 12-node confounded chain after step 7, which
        intervened on V1..V10, against binary data with the given columns."""
        g = confounded_chain(12)
        x_hat = frozenset(f"V{i}" for i in range(1, 11))
        data = Dataset(tuple(map(g.variable, columns)), np.zeros((4, len(columns)), dtype=np.uint8))
        return RecursionState(frozenset({"V11"}), frozenset({"V0"}), g.induced_subgraph({"V0", "V11"}),
                              DatasetSource(data), x_hat, g.remove_incoming(x_hat))

    def test_state_accepts_a_source_without_unread_history(self):
        # V11's model reads V10 of the history, and nothing reads V1..V9
        state = self.chain12_after_step7(["V0", "V10", "V11"])
        assert state.x_hat - set(state.source.columns) == {f"V{i}" for i in range(1, 10)}

    def test_state_rejects_a_source_without_a_history_parent(self):
        with pytest.raises(EngineError, match="every x_hat parent"):
            self.chain12_after_step7(["V0", *(f"V{i}" for i in range(1, 10)), "V11"])

    def test_rejects_bad_arguments(self):
        g = chain_graph()
        src = exact_source(g)
        with pytest.raises(GraphError):
            build_network(set(), {"A"}, g, src)
        with pytest.raises(GraphError):
            build_network({"A"}, {"A"}, g, src)
        with pytest.raises(EngineError):
            build_network({"C"}, {"A"}, g, src, proposal="other")
        for mult in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(EngineError):
                build_network({"C"}, {"A"}, g, src, dprime_mult=mult)

    def test_manifest_is_deterministic(self):
        g = frontdoor_graph()
        m = noisy_copy_scm(g)
        data = sample_observational(m, 5000, np.random.default_rng(0))
        a = build_network({"R"}, {"X"}, g, DatasetSource(data), rng=np.random.default_rng(1))
        b = build_network({"R"}, {"X"}, g, DatasetSource(data), rng=np.random.default_rng(1))
        assert format_network(a.network) == format_network(b.network)
        assert "kind=placeholder" in format_network(a.network)

    def test_manifest_golden_napkin_exact(self):
        g = napkin_graph()
        res = build_network({"Y"}, {"X"}, g, exact_source(g), rng=np.random.default_rng(0))
        # Y's c-factor context leaves out the regenerated W2, so W2 is no input
        assert format_network(res.network) == (
            "order X Y\n"
            "node X kind=placeholder card=2\n"
            "node Y kind=exact card=2 context=X table=0.34,0.66;0.66,0.34\n"
        )


def point_masses(h: SamplingNetwork, fixed: dict[str, int]) -> list[DistTable]:
    """Each placeholder of `h` as a point mass at its value in `fixed`."""
    return [DistTable((h.variables[n],), np.eye(h.variables[n].cardinality)[fixed[n]]) for n in h.empty_nodes()]


def worst_law_error(m, y, x, seed=0, proposal="uniform") -> float:
    """Largest deviation of the exact-source network's law from the oracle's
    P(y | do(x)), over every do-configuration."""
    built = build_network(y, x, m.graph, ExactSource(m.network), proposal, rng=np.random.default_rng(seed))
    worst = 0.0
    for combo in itertools.product(*(range(m.graph.variable(n).cardinality) for n in sorted(x))):
        do = dict(zip(sorted(x), combo))
        truth = exact_interventional(m, do, m.graph.sorted_names(y))
        law = network_law(built.network, point_masses(built.network, do), truth.names)
        worst = max(worst, float(np.abs(law.probs - truth.probs).max()))
    return worst


class TestExactNetworkLaw:
    """With exact conditionals, the network's law is P(y | do(x)) up to
    rounding: reduced contexts lose nothing."""

    def test_catalog(self):
        for proposal in ("uniform", "marginal"):
            for entry in catalog():
                for q in entry.queries:
                    if q.identifiable:
                        g = entry.scm.graph
                        x, z = maximal_rule2_shift(
                            frozenset(q.targets), frozenset(q.do), frozenset(q.given), g
                        )
                        error = worst_law_error(entry.scm, frozenset(q.targets) | z, x, proposal=proposal)
                        assert error < 1e-12, (entry.name, proposal)

    @pytest.mark.parametrize("proposal", ["uniform", "marginal"])
    def test_confounded_chain_n24(self, proposal):
        # step 7 intervenes on 22 variables, of which V23 reads V22 alone
        m = noisy_copy_scm(confounded_chain(24))
        assert worst_law_error(m, frozenset({"V23"}), frozenset({"V0"}), proposal=proposal) < 1e-12

    def test_random_identifiable_graphs(self):
        rng = np.random.default_rng(2026)
        checked = mixed = 0
        while checked < 240:
            g = random_admg(rng, max_nodes=7)
            if rng.random() < 0.4:
                cards = rng.integers(2, 4, size=len(g.names))
                variables = [Variable(n, int(c)) for n, c in zip(g.names, cards)]
                g = Admg(variables, g.directed, [tuple(p) for p in g.bidirected])
            y, x = random_query(rng, g, allow_empty_x=False)
            if not identify_effect(y, x, g).identifiable:
                continue
            mixed += any(v.cardinality > 2 for v in g.variables)
            assert worst_law_error(noisy_copy_scm(g), y, x, seed=checked) < 1e-12
            checked += 1
        assert mixed >= 50


def with_extra_variable(g: Admg) -> Admg:
    """g plus a three-state Z caused by g's last variable, so Z is correlated
    with the graph's variables but is not one of them."""
    bidirected = [tuple(pair) for pair in g.bidirected]
    return Admg([*g.variables, Variable("Z", 3)], [*g.directed, (g.names[-1], "Z")], bidirected)


class TestSourceWiderThanGraph:
    """Columns the graph does not name are never read: a build from a wider
    source gives the same manifest as one from the source cut to the graph."""

    QUERIES = [
        (napkin_graph, {"Y"}, {"X"}),
        (napkin_graph, {"Y"}, {"W1"}),
        (frontdoor_graph, {"R"}, {"X"}),
        (zigzag_graph, {"Y"}, {"X"}),
    ]

    @pytest.mark.parametrize("make, y, x", QUERIES)
    def test_dataset_with_extra_column(self, make, y, x):
        g = make()
        wide = sample_observational(noisy_copy_scm(with_extra_variable(g)), 5000, np.random.default_rng(0))
        a = build_network(y, x, g, DatasetSource(wide), rng=np.random.default_rng(1))
        b = build_network(y, x, g, DatasetSource(wide.restrict(g.names)), rng=np.random.default_rng(1))
        assert "Z" in wide.names and "Z" not in a.network.nodes
        assert format_network(a.network) == format_network(b.network)

    @pytest.mark.parametrize("make, y, x", QUERIES)
    def test_exact_joint_with_extra_variable(self, make, y, x):
        g = make()
        a = build_network(y, x, g, ExactSource(noisy_copy_scm(with_extra_variable(g)).network))
        b = build_network(y, x, g, ExactSource(noisy_copy_scm(g).network))
        assert format_network(a.network) == format_network(b.network)


def test_joint_table_source_through_placeholders():
    # a joint table is a source as the network of its placeholders fed by it
    m = noisy_copy_scm(frontdoor_graph())
    joint = exact_joint(m)
    placeholders = SamplingNetwork(dict(zip(joint.names, joint.variables)), dict.fromkeys(joint.names), joint.names)
    a = build_network({"R"}, {"X"}, m.graph, ExactSource(placeholders, [joint]))
    b = build_network({"R"}, {"X"}, m.graph, ExactSource(m.network))
    assert format_network(a.network) == format_network(b.network)


class TestConditionalSampler:
    def test_requires_conditioning_set(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            build_conditional_sampler(QuerySpec(("C",), (("A", 0),)), g, exact_source(g))

    def test_chain_conditional_matches_plain_conditional(self):
        g = chain_graph()
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        sampler = build_conditional_sampler(
            QuerySpec(("C",), (("A", 0),), (("B", 0),)), g, ExactSource(m.network),
            rng=np.random.default_rng(0),
        )
        assert sampler.nodes["C"].context_names == ("A", "B")
        assert set(sampler.empty_nodes()) == {"A", "B"}
        pbc = joint.marginal(["B", "C"])
        cond = pbc.probs / pbc.probs.sum(axis=1, keepdims=True)
        rng = np.random.default_rng(1)
        for a in range(2):
            for b in range(2):
                query = QuerySpec(("C",), (("A", a),), (("B", b),))
                draws = sample_interventional(sampler, query, 100_000, rng)
                emp = empirical_distribution(draws, ["C"])
                assert tvd(emp, DistTable((g.variable("C"),), cond[b])) < 0.02

    def test_hedge_propagates(self):
        g = admg("X Y Z", [("X", "Y"), ("Y", "Z")], [("X", "Y")])
        from causalgen.identify import NotIdentifiable

        with pytest.raises(NotIdentifiable):
            build_conditional_sampler(
                QuerySpec(("Y",), (("X", 0),), (("Z", 0),)), g, exact_source(g)
            )

    def test_multi_target_chain_sampler(self):
        g = admg("A B C D", [("A", "B"), ("B", "C"), ("C", "D")])
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        sampler = build_conditional_sampler(
            QuerySpec(("C", "D"), (("A", 0),), (("B", 0),)), g, ExactSource(m.network),
            rng=np.random.default_rng(0),
        )
        # in the chain, P(c,d | do(a), b) = P(c,d | b)
        pbcd = joint.marginal(["B", "C", "D"])
        cond = pbcd.probs / pbcd.probs.sum(axis=(1, 2), keepdims=True)
        rng = np.random.default_rng(1)
        n = 120_000
        for b in range(2):
            draws = sample_interventional(sampler, QuerySpec(("C", "D"), (("A", 0),), (("B", b),)), n, rng)
            emp = empirical_distribution(draws, ["C", "D"])
            truth = DistTable((g.variable("C"), g.variable("D")), cond[b])
            assert tvd(emp, truth) < 0.02

    @pytest.mark.parametrize(
        "scm_of, targets, do, given",
        [
            (lambda: catalog_entry("backdoor").scm, ("I",), ("V",), ("A",)),
            (lambda: noisy_copy_scm(chain_graph()), ("C",), ("A",), ("B",)),
            (
                lambda: noisy_copy_scm(admg("A B C D", [("A", "B"), ("B", "C"), ("C", "D")])),
                ("C", "D"),
                ("A",),
                ("B",),
            ),
        ],
    )
    def test_exact_source_gives_exact_conditionals(self, scm_of, targets, do, given):
        m = scm_of()
        g, joint = m.graph, exact_joint(m)
        query = QuerySpec(targets, tuple((n, 0) for n in do), tuple((n, 0) for n in given))
        sampler = build_conditional_sampler(query, g, ExactSource(m.network), rng=np.random.default_rng(0))
        truth = evaluate_estimand(identify_conditional_effect(targets, do, given, g).estimand, joint)
        inputs = sampler.empty_nodes()
        modelled = [n for n in sampler.node_order if n not in inputs]
        models = [sampler.nodes[n] for n in modelled]
        assert all(isinstance(model, ExactConditionalModel) for model in models)
        names = do + given
        for combo in itertools.product(*(range(g.variable(n).cardinality) for n in names)):
            fixed = dict(zip(names, combo))
            expected = truth.fix({n: v for n, v in fixed.items() if n in truth.names})
            expected = np.transpose(expected.probs, [expected.names.index(n) for n in modelled])
            got = network_law(sampler, point_masses(sampler, fixed), modelled).probs
            assert np.abs(got - expected).max() < 1e-12, fixed
            oracle = oracle_conditional(m, targets, {n: fixed[n] for n in do}, {n: fixed[n] for n in given})
            oracle = np.transpose(oracle.probs, [oracle.names.index(n) for n in modelled])
            assert np.abs(got - oracle).max() < 1e-12, fixed

    def test_marginal_proposal_dataset_source(self):
        entry = catalog_entry("backdoor")
        g = entry.scm.graph
        data = sample_observational(entry.scm, 200_000, np.random.default_rng(70))
        sampler = build_conditional_sampler(
            QuerySpec(("I",), (("V", 0),), (("A", 0),)), g, DatasetSource(data),
            proposal="marginal", rng=np.random.default_rng(71),
        )
        table = evaluate_estimand(
            identify_conditional_effect({"I"}, {"V"}, {"A"}, g).estimand, exact_joint(entry.scm)
        )
        rng = np.random.default_rng(72)
        worst = worst_oracle = 0.0
        for v in range(2):
            for a in range(2):
                query = QuerySpec(("I",), (("V", v),), (("A", a),))
                draws = sample_interventional(sampler, query, 100_000, rng)
                emp = empirical_distribution(draws, ["I"])
                worst = max(worst, tvd(emp, table.fix({"V": v, "A": a})))
                worst_oracle = max(worst_oracle, tvd(emp, oracle_conditional(entry.scm, ["I"], {"V": v}, {"A": a})))
        assert worst <= 0.03  # the bound of acceptance criterion C7
        assert worst_oracle <= 0.03


class TestProposalModels:
    """The proposal is one model per newly intervened variable, each given the
    ones before it, and their product is the law the proposal names."""

    G = admg([("A", 2), ("B", 3), ("C", 3), ("D", 2)], [("A", "B"), ("B", "C"), ("C", "D")], [("A", "C")])

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("names", [(), ("B",), ("A", "B", "C"), ("B", "C", "D")])
    def test_product_is_the_law(self, exact, names):
        m = noisy_copy_scm(self.G)
        source = ExactSource(m.network) if exact else DatasetSource(
            sample_observational(m, 5000, np.random.default_rng(3)))
        variables = {n: self.G.variable(n) for n in names}
        shape = [v.cardinality for v in variables.values()]
        laws = {"marginal": source.marginal_table(names).probs, "uniform": np.full(shape, 1 / math.prod(shape))}
        for proposal, law in laws.items():
            h = SamplingNetwork(variables, proposal_models(proposal, names, self.G, source), names)
            unit = DistTable((), np.ones(()))  # over no names the product is empty
            assert np.abs(network_law(h, [unit], names).probs - law).max() < 1e-12, proposal


@dataclass
class Step7Recorder(BuildContext):
    """A build context that keeps every step-7 state and component it is handed."""

    step7: list = field(default_factory=list)

    def s7_intervene(self, state, s_prime):
        self.step7.append((state, s_prime))
        return super().s7_intervene(state, s_prime)


def dense_proposal(proposal: str, names: list[str], state: RecursionState) -> DistTable:
    """The proposal as one dense table over `names`: flat, or the source's marginal."""
    if proposal == "marginal":
        return state.source.marginal_table(names)
    variables = tuple(state.g_hat.variable(n) for n in names)
    shape = tuple(v.cardinality for v in variables)
    return DistTable(variables, np.full(shape, 1 / math.prod(shape)))


def regeneration_error(proposal: str, state: RecursionState, s_prime: frozenset, ctx: BuildContext) -> float:
    """Largest deviation of `ExactSource.regenerate` through the proposal's models
    from the composition `network_law(inner, [anchor marginal, dense proposal])`."""
    x_z = sorted(state.x - s_prime, key=ctx.root_order.index)
    inner = fit_conditional_models(s_prime, frozenset(x_z), state, ctx)
    anchors = [n for n in inner.empty_nodes() if n not in x_z]
    inputs = [state.source.marginal_table(anchors)] if anchors else []
    reference = network_law(inner, [*inputs, dense_proposal(proposal, x_z, state)], inner.node_order)
    models = proposal_models(proposal, x_z, state.g_hat, state.source)
    src = state.source.regenerate(replace(inner, nodes={**inner.nodes, **models}), 1.0, ctx.rng)
    got = src.marginal_table(src.columns)
    assert got.names == reference.names
    return float(np.abs(got.probs - reference.probs).max())


def step7_states(proposal: str, y, x, g: Admg, source) -> Step7Recorder:
    ctx = Step7Recorder(root_order=tuple(g.topological_order()), proposal=proposal)
    run_id(RecursionState(frozenset(y), frozenset(x), g, source, frozenset(), g), ctx)
    return ctx


class TestExactRegeneration:
    """Exact regeneration through the proposal's models is the law of the
    anchors' marginal, the dense proposal and the inner models."""

    @pytest.mark.parametrize("proposal", ["uniform", "marginal"])
    def test_catalog(self, proposal):
        seen = 0
        for entry in catalog():
            for q in entry.queries:
                if q.identifiable:
                    g = entry.scm.graph
                    x, z = maximal_rule2_shift(frozenset(q.targets), frozenset(q.do), frozenset(q.given), g)
                    ctx = step7_states(proposal, frozenset(q.targets) | z, x, g, ExactSource(entry.scm.network))
                    for state, s_prime in ctx.step7:
                        assert regeneration_error(proposal, state, s_prime, ctx) < 1e-12, entry.name
                        seen += 1
        assert seen

    @pytest.mark.parametrize("proposal", ["uniform", "marginal"])
    def test_random_graphs_with_several_new_interventions(self, proposal):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 12:
            g = random_admg(rng, max_nodes=7)
            cards = rng.integers(2, 4, size=len(g.names))
            g = Admg([Variable(n, int(c)) for n, c in zip(g.names, cards)], g.directed,
                     [tuple(p) for p in g.bidirected])
            y, x = random_query(rng, g, allow_empty_x=False)
            if not identify_effect(y, x, g).identifiable:
                continue
            ctx = step7_states(proposal, y, x, g, ExactSource(noisy_copy_scm(g).network))
            for state, s_prime in ctx.step7:
                if len(state.x - s_prime) >= 2:
                    assert regeneration_error(proposal, state, s_prime, ctx) < 1e-12
                    checked += 1
