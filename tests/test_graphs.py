from __future__ import annotations

import itertools

import numpy as np
import pytest

from causalgen.estimands import format_estimand
from causalgen.graphs import GraphError, GraphParseError, Variable, format_graph, parse_graph
from causalgen.identify import identify_conditional_effect, identify_effect
from conftest import (
    admg,
    brute_force_d_separated,
    chain_graph,
    frontdoor_graph,
    napkin_graph,
    random_admg,
    zigzag_graph,
)


class TestConstruction:
    def test_rejects_duplicate_names(self):
        with pytest.raises(GraphError):
            admg([("A", 2), ("A", 2)])

    def test_rejects_cardinality_below_two(self):
        with pytest.raises(GraphError):
            Variable("A", 1)

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError):
            admg("A B", [("A", "C")])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            admg("A B", [("A", "A")])

    def test_rejects_directed_cycle(self):
        with pytest.raises(GraphError):
            admg("A B", [("A", "B"), ("B", "A")])

    def test_rejects_bidirected_self_loop(self):
        with pytest.raises(GraphError):
            admg("A B", [], [("B", "B")])


class TestAncestors:
    def test_frontdoor_target_r(self):
        g = frontdoor_graph()
        assert g.ancestors(["R"]) == {"X", "S", "R"}

    def test_all_targets_reflexive(self):
        g = napkin_graph()
        assert g.ancestors(g.names) == set(g.names)

    def test_napkin_graph_without_w1(self):
        # directed reachability on the restriction to {W2, X, Y}
        g = napkin_graph().induced_subgraph({"W2", "X", "Y"})
        assert g.ancestors(["Y"]) == {"W2", "X", "Y"}

    def test_unknown_variable(self):
        with pytest.raises(GraphError):
            frontdoor_graph().ancestors(["Q"])


class TestCComponents:
    def test_zigzag_minus_x(self):
        g = zigzag_graph().induced_subgraph({"W1", "W2", "Y"})
        assert g.c_components() == [["W1", "Y"], ["W2"]]

    def test_no_bidirected_gives_singletons(self):
        g = chain_graph()
        assert g.c_components() == [["A"], ["B"], ["C"]]

    def test_napkin_minus_w1(self):
        g = napkin_graph().induced_subgraph({"W2", "X", "Y"})
        assert g.c_components() == [["W2"], ["X"], ["Y"]]

    def test_partition_property(self, rng):
        for _ in range(50):
            g = random_admg(rng)
            comps = g.c_components()
            flat = [v for c in comps for v in c]
            assert sorted(flat) == sorted(g.names)
            assert len(set(flat)) == len(flat)


class TestCFactorContext:
    def test_chain_reads_parents_only(self):
        g = chain_graph()
        order = g.topological_order()
        assert [g.c_factor_context(order, n) for n in order] == [(), ("A",), ("B",)]

    def test_napkin_history_graph(self):
        # the napkin's base case: W2 intervened (no parents, no bidirected
        # edges), so Y's district is Y alone and W2 is not read
        g = napkin_graph().induced_subgraph({"W2", "X", "Y"}).remove_incoming({"W2"})
        assert g.c_factor_context(["W2", "X", "Y"], "Y") == ("X",)
        full = napkin_graph()
        assert full.c_factor_context(["W1", "W2", "X", "Y"], "Y") == ("W1", "W2", "X")

    def test_later_sibling_left_out(self):
        g = admg("A B C", [("A", "C")], [("B", "C")])
        assert g.c_factor_context(["A", "B", "C"], "B") == ()
        assert g.c_factor_context(["A", "B", "C"], "C") == ("A", "B")

    def test_parents_of_every_district_member(self):
        g = admg("P X Q Y", [("P", "X"), ("Q", "Y"), ("X", "Y")], [("X", "Y")])
        assert g.c_factor_context(["P", "X", "Q", "Y"], "Y") == ("P", "X", "Q")

    def test_result_follows_the_given_order(self):
        g = admg("A B C", [], [("A", "C"), ("B", "C")])
        assert g.c_factor_context(["B", "A", "C"], "C") == ("B", "A")
        assert g.c_factor_context(["A", "B", "C"], "C") == ("A", "B")

    def test_reads_only_the_graph_induced_on_its_order(self, rng):
        # the compiler's history graph is never narrowed, which relies on this
        cases = 0
        for _ in range(200):
            g = random_admg(rng)
            kept = {n for n in g.names if rng.random() < 0.8}
            order = [n for n in g.topological_order() if n in kept and rng.random() < 0.8]
            sub = g.induced_subgraph(kept)
            for name in order:
                assert g.c_factor_context(order, name) == sub.c_factor_context(order, name)
                cases += 1
        assert cases > 300


class TestMutilation:
    def test_remove_incoming_strips_parents_and_confounders(self):
        g = admg("A B V I", [("A", "V"), ("B", "V"), ("V", "I")], [("B", "I"), ("A", "V")])
        cut = g.remove_incoming(["V"])
        assert cut.parents("V") == ()
        assert all("V" not in pair for pair in cut.bidirected)
        assert ("V", "I") in cut.directed

    def test_remove_incoming_empty_is_identity(self):
        g = frontdoor_graph()
        assert g.remove_incoming([]) == g

    def test_remove_incoming_chain(self):
        g = chain_graph()
        assert g.remove_incoming(["B"]).directed == frozenset({("B", "C")})

    def test_remove_incoming_never_leaves_edges_into_x(self, rng):
        for _ in range(50):
            g = random_admg(rng)
            x = {g.names[0], g.names[-1]}
            cut = g.remove_incoming(x)
            assert not any(b in x for _, b in cut.directed)
            assert not any(pair & x for pair in cut.bidirected)

    def test_remove_outgoing_chain(self):
        g = chain_graph()
        assert g.remove_outgoing(["B"]).directed == frozenset({("A", "B")})

    def test_remove_outgoing_keeps_bidirected(self):
        g = frontdoor_graph()
        cut = g.remove_outgoing(["S"])
        assert cut.directed == frozenset({("X", "S")})
        assert cut.bidirected == frozenset({frozenset({"X", "R"})})

    def test_remove_outgoing_empty_is_identity(self):
        g = frontdoor_graph()
        assert g.remove_outgoing([]) == g


class TestInducedSubgraph:
    def test_napkin_keep_x_y(self):
        g = napkin_graph().induced_subgraph({"X", "Y"})
        assert g.names == ("X", "Y")
        assert g.directed == frozenset({("X", "Y")})
        assert not g.bidirected

    def test_keep_all_is_identity(self):
        g = zigzag_graph()
        assert g.induced_subgraph(g.names) == g

    def test_keep_none_is_empty(self):
        g = zigzag_graph().induced_subgraph([])
        assert g.names == ()
        assert not g.directed and not g.bidirected

    def test_preserves_declaration_order(self):
        g = admg("C B A").induced_subgraph({"A", "C"})
        assert g.names == ("C", "A")


class TestTopologicalOrder:
    def test_frontdoor(self):
        assert frontdoor_graph().topological_order() == ["X", "S", "R"]

    def test_napkin(self):
        assert napkin_graph().topological_order() == ["W1", "W2", "X", "Y"]

    def test_declaration_tie_break(self):
        assert admg("B A").topological_order() == ["B", "A"]

    def test_is_consistent_permutation(self, rng):
        for _ in range(50):
            g = random_admg(rng)
            order = g.topological_order()
            assert sorted(order) == sorted(g.names)
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[a] < pos[b] for a, b in g.directed)


class TestDSeparation:
    def test_frontdoor_bidirected_path_open(self):
        g = frontdoor_graph()
        assert not g.d_separated({"R"}, {"X"}, {"S"})

    def test_blocked_chain(self):
        assert chain_graph().d_separated({"A"}, {"C"}, {"B"})

    def test_collider(self):
        g = admg("A B C", [("A", "B"), ("C", "B")])
        assert g.d_separated({"A"}, {"C"}, set())
        assert not g.d_separated({"A"}, {"C"}, {"B"})

    def test_rejects_overlapping_sets(self):
        with pytest.raises(GraphError):
            chain_graph().d_separated({"A"}, {"A"}, set())

    def test_symmetry_and_oracle_agreement(self):
        rng = np.random.default_rng(7)
        trials = 0
        for _ in range(120):
            g = random_admg(rng)
            names = list(g.names)
            perm = [names[int(i)] for i in rng.permutation(len(names))]
            a, b = {perm[0]}, {perm[1]}
            given = set(perm[2 : 2 + int(rng.integers(0, len(names) - 1))])
            got = g.d_separated(a, b, given)
            assert got == g.d_separated(b, a, given)
            assert got == brute_force_d_separated(g, a, b, given)
            trials += 1
        assert trials == 120

    def test_a_variable_named_like_a_latent(self):
        # the expanded DAG keys each latent by its pair, so a variable called `~u0`
        # is not overwritten by the latent of C <-> D
        def graph(u):
            return admg([(u, 2), ("Z", 2), ("Y", 2), ("C", 2), ("D", 2)], [(u, "Z"), (u, "Y"), ("Z", "Y")], [("C", "D")])

        tilde, plain = graph("~u0"), graph("t")  # the estimand prints names in lower case
        rename = {"~u0": "t"}
        names = list(tilde.names)
        for a, b in itertools.permutations(names, 2):
            rest = [n for n in names if n not in (a, b)]
            for r in range(len(rest) + 1):
                for given in itertools.combinations(rest, r):
                    got = tilde.d_separated({a}, {b}, given)
                    assert got == brute_force_d_separated(tilde, {a}, {b}, given)
                    assert got == plain.d_separated({rename.get(a, a)}, {rename.get(b, b)}, [rename.get(n, n) for n in given])
        for y, z in itertools.permutations(names, 2):
            for query in (identify_effect, lambda y, x, g: identify_conditional_effect(y, [], x, g)):
                got, expected = query([y], [z], tilde), query([rename.get(y, y)], [rename.get(z, z)], plain)
                assert got.identifiable == expected.identifiable
                assert [e.step for e in got.trace] == [e.step for e in expected.trace]
                if got.identifiable:
                    assert format_estimand(got.estimand).replace("~u0", "t") == format_estimand(expected.estimand)


class TestTextFormat:
    def test_round_trip(self):
        g = napkin_graph()
        assert parse_graph(format_graph(g)) == g

    def test_comments_and_blanks(self):
        text = "# a graph\nvar X 2\n\nvar Y 3  # target\nedge X -> Y\n"
        g = parse_graph(text)
        assert g.variable("Y").cardinality == 3

    def test_duplicate_var_reports_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("var X 2\nvar X 2\n")
        assert err.value.line == 2

    def test_unknown_endpoint_reports_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("var X 2\nedge X -> Z\n")
        assert err.value.line == 2

    def test_cycle_rejected(self):
        with pytest.raises(GraphParseError):
            parse_graph("var X 2\nvar Y 2\nedge X -> Y\nedge Y -> X\n")

    def test_garbage_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("vertex X 2\n")
