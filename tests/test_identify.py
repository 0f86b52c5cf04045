from __future__ import annotations

import numpy as np
import pytest

from causalgen.estimands import evaluate_estimand, format_estimand
from causalgen.graphs import GraphError
from causalgen.identify import (
    Hedge,
    identify_conditional_effect,
    identify_effect,
    maximal_rule2_shift,
)
from causalgen.scm import exact_interventional, exact_joint, noisy_copy_scm
from conftest import (
    backdoor_graph,
    bow_graph,
    chain_graph,
    frontdoor_graph,
    napkin_graph,
    random_admg,
    random_query,
    zigzag_graph,
)


def frontdoor_closed_form(joint):
    """Independent oracle: sum_s P(s|x) * sum_x' P(x') P(r|x',s), raw loops."""
    p = joint.probs  # axes (X, S, R)
    px = p.sum(axis=(1, 2))
    ps_given_x = p.sum(axis=2) / px[:, None]
    pr_given_xs = p / p.sum(axis=2, keepdims=True)
    out = np.zeros((2, 2))  # (X, R)
    for x in range(2):
        for r in range(2):
            acc = 0.0
            for s in range(2):
                inner = sum(px[xp] * pr_given_xs[xp, s, r] for xp in range(2))
                acc += ps_given_x[x, s] * inner
            out[x, r] = acc
    return out


class TestUnconditional:
    def test_frontdoor_pretty_print(self):
        result = identify_effect({"R"}, {"X"}, frontdoor_graph())
        assert format_estimand(result.estimand) == "Σ_{s} P(s|x) · Σ_{x'} P(x') P(r|x',s)"

    def test_frontdoor_matches_closed_form(self):
        g = frontdoor_graph()
        joint = exact_joint(noisy_copy_scm(g))
        got = evaluate_estimand(identify_effect({"R"}, {"X"}, g).estimand, joint)
        assert got.names == ("X", "R")
        assert np.abs(got.probs - frontdoor_closed_form(joint)).max() < 1e-12

    def test_backdoor_matches_adjustment_formula(self):
        g = backdoor_graph()
        joint = exact_joint(noisy_copy_scm(g))
        got = evaluate_estimand(identify_effect({"I"}, {"V"}, g).estimand, joint)
        # independent oracle: sum_{a,b} P(a,b) P(i|a,b,v), raw loops on the table
        p = joint.probs  # axes (A, B, V, I)
        expected = np.zeros((2, 2))  # (V, I)
        for v in range(2):
            for i in range(2):
                for a in range(2):
                    for b in range(2):
                        pab = p[a, b].sum()
                        expected[v, i] += pab * p[a, b, v, i] / p[a, b, v].sum()
        ordered = np.transpose(got.probs, [got.names.index(n) for n in ("V", "I")])
        assert np.abs(ordered - expected).max() < 1e-12

    def test_bow_returns_hedge(self):
        result = identify_effect({"Y"}, {"X"}, bow_graph())
        assert not result.identifiable
        assert result.hedge == Hedge(frozenset({"X", "Y"}), frozenset({"Y"}))
        assert [e.step for e in result.trace] == ["S5"]

    def test_napkin_trace(self):
        result = identify_effect({"Y"}, {"X"}, napkin_graph())
        assert [e.step for e in result.trace] == ["S3", "S7", "S2", "S6"]

    def test_zigzag_estimand_value(self):
        g = zigzag_graph()
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        got = evaluate_estimand(identify_effect({"Y"}, {"X"}, g).estimand, joint)
        for x in range(2):
            truth = exact_interventional(m, {"X": x}).marginal(["Y"])
            assert np.abs(got.fix({"X": x}).probs - truth.probs).max() < 1e-9

    def test_double_napkin_matches_staged_product(self):
        # independent oracle for the full-joint effect on the 6-node graph:
        #   P(v | do(r)) = P(w2,w3|r) P(w4|w3)
        #                  * [sum_r' P(w1|r',w2,w3,w4) P(r'|w3,w4)]
        #                  * [sum_r' P(w1,x|r',w2,w3,w4) P(r'|w3,w4)]
        #                    / [sum_r' P(w1|r',w2,w3,w4) P(r'|w3,w4)]
        from causalgen.scm import catalog_entry

        entry = catalog_entry("double_napkin")
        g = entry.scm.graph
        joint = exact_joint(entry.scm)  # axes (W3, W4, R, W2, W1, X)
        p = joint.probs
        pr_given_34 = p.sum(axis=(3, 4, 5)) / p.sum(axis=(2, 3, 4, 5))[:, :, None]
        pw1_given_r234 = p.sum(axis=5) / p.sum(axis=(4, 5))[..., None]
        pw1x_given_r234 = p / p.sum(axis=(4, 5), keepdims=True)
        # sum over r' of the conditioned chain pieces
        mid = np.einsum("abrcw,abr->abcw", pw1_given_r234, pr_given_34)
        top = np.einsum("abrcwx,abr->abcwx", pw1x_given_r234, pr_given_34)
        pw23_given_r = p.sum(axis=(1, 4, 5)) / p.sum(axis=(0, 1, 3, 4, 5))[None, :, None]
        pw4_given_3 = p.sum(axis=(2, 3, 4, 5)) / p.sum(axis=(1, 2, 3, 4, 5))[:, None]
        expected = np.zeros((2,) * 6)  # axes (W3, W4, R, W2, W1, X)
        for a in range(2):
            for b in range(2):
                for r in range(2):
                    for c in range(2):
                        for w in range(2):
                            for x in range(2):
                                expected[a, b, r, c, w, x] = (
                                    pw23_given_r[a, r, c]
                                    * pw4_given_3[a, b]
                                    * mid[a, b, c, w]
                                    * top[a, b, c, w, x]
                                    / mid[a, b, c, w]
                                )
        targets = ("W1", "W2", "W3", "W4", "X")
        got = evaluate_estimand(identify_effect(targets, ("R",), g).estimand, joint)
        ordered = np.transpose(got.probs, [got.names.index(n) for n in joint.names])
        assert np.abs(ordered - expected).max() < 1e-9

    def test_double_napkin_pretty_print(self):
        from causalgen.scm import catalog_entry

        entry = catalog_entry("double_napkin")
        result = identify_effect(("W1", "W2", "W3", "W4", "X"), ("R",), entry.scm.graph)
        assert format_estimand(result.estimand) == (
            "P(w3) P(w2|w3,r) P(w4|w3)"
            " · Σ_{r'} P(r') P(w1|w4,r',w2)"
            " · [Σ_{r'} P(r') P(w1|w4,r',w2) P(x|w4,r',w2,w1)]"
            " / [Σ_{r',x'} P(r') P(w1|w4,r',w2) P(x'|w4,r',w2,w1)]"
        )

    def test_rejects_overlap_and_empty_targets(self):
        g = chain_graph()
        with pytest.raises(GraphError):
            identify_effect({"A"}, {"A"}, g)
        with pytest.raises(GraphError):
            identify_effect(set(), {"A"}, g)

    def test_traces_end_in_terminal_steps(self, rng):
        for _ in range(100):
            g = random_admg(rng)
            y, x = random_query(rng, g)
            result = identify_effect(y, x, g)
            by_depth = {}
            entries = result.trace
            for i, entry in enumerate(entries):
                nxt = entries[i + 1] if i + 1 < len(entries) else None
                if nxt is None or nxt.depth <= entry.depth:
                    assert entry.step in {"S1", "S5", "S6"}

    def test_estimand_sound_on_random_identifiable_queries(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            g = random_admg(rng, max_nodes=5)
            y, x = random_query(rng, g)
            result = identify_effect(y, x, g)
            if not result.identifiable:
                continue
            m = noisy_copy_scm(g)
            joint = exact_joint(m)
            got = evaluate_estimand(result.estimand, joint)
            for xv in (0, 1) if x else ((),):
                do = {n: xv for n in x} if x else {}
                truth = exact_interventional(m, do).marginal(y)
                sym = got.fix({k: v for k, v in do.items() if k in got.names})
                ordered = np.transpose(sym.probs, [sym.names.index(n) for n in truth.names])
                assert np.abs(ordered - truth.probs).max() < 1e-9
            checked += 1


class TestConditional:
    def test_rule2_moves_chain_mediator(self):
        g = chain_graph()
        x, z = maximal_rule2_shift(frozenset({"C"}), frozenset({"A"}), frozenset({"B"}), g)
        assert x == {"A", "B"} and z == frozenset()

    def test_rule2_backdoor_moves_conditioned_root(self):
        # running the rule-2 test by hand: in G with incoming edges to V removed
        # and outgoing edges of A removed, A is disconnected from I, so A shifts.
        g = backdoor_graph()
        x, z = maximal_rule2_shift(frozenset({"I"}), frozenset({"V"}), frozenset({"A"}), g)
        assert x == {"V", "A"} and z == frozenset()

    def test_rule2_keeps_active_conditioner(self):
        g = chain_graph()
        x, z = maximal_rule2_shift(frozenset({"B"}), frozenset({"A"}), frozenset({"C"}), g)
        assert x == {"A"} and z == {"C"}

    def test_empty_z_matches_unconditional(self):
        g = backdoor_graph()
        joint = exact_joint(noisy_copy_scm(g))
        unconditional = evaluate_estimand(identify_effect({"I"}, {"V"}, g).estimand, joint)
        conditional = evaluate_estimand(
            identify_conditional_effect({"I"}, {"V"}, set(), g).estimand, joint
        )
        ordered = np.transpose(
            conditional.probs, [conditional.names.index(n) for n in unconditional.names]
        )
        assert np.abs(ordered - unconditional.probs).max() < 1e-12

    def test_backdoor_conditional_matches_interventional_conditional(self):
        g = backdoor_graph()
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        result = identify_conditional_effect({"I"}, {"V"}, {"A"}, g)
        got = evaluate_estimand(result.estimand, joint)
        from causalgen.scm import exact_interventional

        for v in range(2):
            it = exact_interventional(m, {"V": v}).marginal(["A", "I"])
            cond = it.probs / it.probs.sum(axis=1, keepdims=True)
            for a in range(2):
                ref = got.fix({"V": v, "A": a})
                assert np.abs(ref.probs - cond[a]).max() < 1e-9

    def test_chain_conditional_reduces_to_plain_conditional(self):
        g = chain_graph()
        m = noisy_copy_scm(g)
        joint = exact_joint(m)
        result = identify_conditional_effect({"C"}, {"A"}, {"B"}, g)
        got = evaluate_estimand(result.estimand, joint)
        # P(c | do(a), b) = P(c | b) in the chain
        pbc = joint.marginal(["B", "C"])
        cond = pbc.probs / pbc.probs.sum(axis=1, keepdims=True)
        for a in range(2):
            for b in range(2):
                assert np.abs(got.fix({"A": a, "B": b}).probs - cond[b]).max() < 1e-9

    def test_hedge_propagates(self):
        g = bow_graph()
        result = identify_conditional_effect({"Y"}, {"X"}, set(), g)
        assert not result.identifiable
