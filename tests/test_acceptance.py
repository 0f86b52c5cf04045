"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are fixed here and nowhere else; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report lines.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from causalgen.cli import main as cli_main
from causalgen.engine import (
    BuildContext,
    DatasetSource,
    ExactSource,
    QuerySpec,
    RecursionState,
    apply_partial_intervention,
    build_conditional_sampler,
    build_network,
    sample_interventional,
)
from causalgen.estimands import DistTable, evaluate_estimand
from causalgen.graphs import Admg, Variable
from causalgen.identify import identify_conditional_effect, identify_effect
from causalgen.models import Dataset
from causalgen.scm import (
    catalog,
    catalog_entry,
    empirical_distribution,
    exact_joint,
    exact_interventional,
    noisy_copy_scm,
    sample_observational,
    sampling_tolerance,
    tvd,
    write_scm,
)
from conftest import chain_graph, oracle_conditional, random_admg, random_query

N_SAMPLES = 200_000
N_OBS = 500_000


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


def identifiable_unconditional_queries():
    for entry in catalog():
        for q in entry.queries:
            if q.identifiable and not q.given:
                yield entry, q


def do_configurations(g, names):
    import itertools

    for combo in itertools.product(*(range(g.variable(n).cardinality) for n in names)):
        yield dict(zip(names, combo))


def test_c1_estimand_soundness_exact():
    start = time.time()
    worst = 0.0
    for entry, q in identifiable_unconditional_queries():
        g = entry.scm.graph
        joint = exact_joint(entry.scm)
        result = identify_effect(q.targets, q.do, g)
        table = evaluate_estimand(result.estimand, joint)
        for do in do_configurations(g, q.do):
            truth = exact_interventional(entry.scm, do).marginal(q.targets)
            got = table.fix({k: v for k, v in do.items() if k in table.names})
            ordered = np.transpose(got.probs, [got.names.index(n) for n in truth.names])
            worst = max(worst, float(np.abs(ordered - truth.probs).max()))
    elapsed = time.time() - start
    report(
        "C1 estimand soundness",
        worst <= 1e-9 and elapsed < 10,
        f"max elementwise error {worst:.2e}, {elapsed:.1f}s",
    )


def test_c2_sampling_soundness_exact_conditionals():
    start = time.time()
    failures = []
    worst_margin = np.inf
    for entry, q in identifiable_unconditional_queries():
        g = entry.scm.graph
        source = ExactSource(entry.scm.network)
        built = build_network(q.targets, q.do, g, source, rng=np.random.default_rng(20))
        rng = np.random.default_rng(21)
        k = int(np.prod([g.variable(t).cardinality for t in q.targets]))
        bound = sampling_tolerance(k, N_SAMPLES)
        for do in do_configurations(g, q.do):
            spec = QuerySpec(q.targets, tuple(do.items()))
            drawn = sample_interventional(built.network, spec, N_SAMPLES, rng)
            truth = exact_interventional(entry.scm, do).marginal(q.targets)
            dist = tvd(empirical_distribution(drawn, truth.names), truth)
            worst_margin = min(worst_margin, bound - dist)
            if dist > bound:
                failures.append((entry.name, do, dist, bound))
    elapsed = time.time() - start
    report(
        "C2 sampling soundness (exact conditionals)",
        not failures and elapsed < 120,
        f"min margin to bound {worst_margin:.4f}, {elapsed:.1f}s",
    )


def test_c3_end_to_end_fitted_pipeline():
    start = time.time()
    failures = []
    worst = 0.0
    napkin_trace = None
    zigzag_trace = None
    for entry, q in identifiable_unconditional_queries():
        g = entry.scm.graph
        data = sample_observational(entry.scm, N_OBS, np.random.default_rng(30))
        built = build_network(q.targets, q.do, g, DatasetSource(data), rng=np.random.default_rng(31))
        if entry.name == "napkin" and q.do == ("X",):
            napkin_trace = [e.step for e in built.trace]
        if entry.name == "zigzag":
            zigzag_trace = [e.step for e in built.trace]
        rng = np.random.default_rng(32)
        for do in do_configurations(g, q.do):
            spec = QuerySpec(q.targets, tuple(do.items()))
            drawn = sample_interventional(built.network, spec, N_SAMPLES, rng)
            truth = exact_interventional(entry.scm, do).marginal(q.targets)
            dist = tvd(empirical_distribution(drawn, truth.names), truth)
            worst = max(worst, dist)
            if dist > 0.03:
                failures.append((entry.name, do, dist))
    elapsed = time.time() - start
    trace_ok = napkin_trace == ["S3", "S7", "S2", "S6"] and zigzag_trace is not None and zigzag_trace[0] == "S4"
    report(
        "C3 end-to-end fitted pipeline",
        not failures and trace_ok and elapsed < 300,
        f"worst tvd {worst:.4f}, napkin trace {napkin_trace}, {elapsed:.1f}s",
    )


def test_c3_confounded_chain_n18(tmp_path, capsys):
    # V0 -> ... -> V17 with V0 <-> V17, through `causalgen eval` at its defaults
    # (500k observational rows, 200k draws)
    names = [f"V{i}" for i in range(18)]
    g = Admg([Variable(n, 2) for n in names], list(zip(names, names[1:])), [("V0", "V17")])
    write_scm(noisy_copy_scm(g), tmp_path / "chain.scm", tmp_path / "chain.graph")
    (tmp_path / "q.txt").write_text("target=V17\ndo=V0=1\n")
    code = cli_main(["eval", "--scm", str(tmp_path / "chain.scm"), "--query", str(tmp_path / "q.txt")])
    row = capsys.readouterr().out.splitlines()[-1]
    fitted = float(row.split("|")[-3])  # the label holds a "|" of its own
    report("C3 confounded chain n = 18", code == 0 and fitted <= 0.03, f"fitted tvd {fitted:.4f}")


def test_c4_trace_mirroring_on_random_graphs():
    start = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    hedged = 0
    for _ in range(300):
        g = random_admg(rng)
        y, x = random_query(rng, g)
        symbolic = identify_effect(y, x, g)
        rows = rng.integers(0, 2, size=(256, len(g.names)))
        built = build_network(y, x, g, DatasetSource(Dataset(g.variables, rows)),
                              rng=np.random.default_rng(40))
        same_trace = [(e.step, e.y, e.x, e.depth) for e in symbolic.trace] == [
            (e.step, e.y, e.x, e.depth) for e in built.trace
        ]
        fail_together = symbolic.identifiable == built.identifiable and symbolic.hedge == built.hedge
        if not (same_trace and fail_together):
            mismatches += 1
        if not symbolic.identifiable:
            hedged += 1
    elapsed = time.time() - start
    report(
        "C4 trace mirroring",
        mismatches == 0 and elapsed < 60,
        f"300 graphs, {hedged} hedged, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c5_completeness_bow(tmp_path, capsys):
    entry = catalog_entry("bow")
    symbolic = identify_effect(("Y",), ("X",), entry.scm.graph)
    built = build_network(("Y",), ("X",), entry.scm.graph, ExactSource(entry.scm.network))
    write_scm(entry.scm, tmp_path / "bow.scm", tmp_path / "bow.graph")
    (tmp_path / "q.txt").write_text("target=Y\ndo=X=1\n")
    code = cli_main([
        "sample", "--graph", str(tmp_path / "bow.graph"), "--query", str(tmp_path / "q.txt"),
        "--scm", str(tmp_path / "bow.scm"), "--n", "10", "--out", str(tmp_path / "o"),
    ])
    out = capsys.readouterr().out
    ok = (
        not symbolic.identifiable
        and not built.identifiable
        and symbolic.hedge == built.hedge
        and code == 2
        and "X,Y" in out
    )
    report("C5 completeness (bow hedge + exit code)", ok, f"exit={code}")


def test_c6_step7_dataset_law():
    entry = catalog_entry("napkin")
    g = entry.scm.graph
    data = sample_observational(entry.scm, N_OBS, np.random.default_rng(60))
    state = RecursionState(frozenset({"Y"}), frozenset({"W1", "W2", "X"}), g, DatasetSource(data), frozenset(), g)
    ctx = BuildContext(root_order=tuple(g.topological_order()), rng=np.random.default_rng(61))
    new = apply_partial_intervention(frozenset({"W1", "X", "Y"}), state, ctx)
    dprime = new.source.dataset
    uniform = DistTable((g.variable("W2"),), np.array([0.5, 0.5]))
    marginal_dist = tvd(empirical_distribution(dprime, ["W2"]), uniform)
    worst_cond = 0.0
    for value in (0, 1):
        rows = dprime.rows[dprime.column("W2") == value]
        sub = Dataset(dprime.variables, rows, dprime.intervened)
        truth = exact_interventional(entry.scm, {"W2": value}).marginal(["W1", "X", "Y"])
        worst_cond = max(worst_cond, tvd(empirical_distribution(sub, truth.names), truth))
    ok = dprime.n == N_OBS and marginal_dist <= 0.02 and worst_cond <= 0.03
    report(
        "C6 step-7 dataset law",
        ok,
        f"proposal tvd {marginal_dist:.4f}, conditional tvd {worst_cond:.4f}",
    )


def test_c7_conditional_queries():
    # each draw is scored against the estimand on the joint and against the SCM oracle
    worst = worst_oracle = 0.0
    # backdoor P(I | do(V), A)
    entry = catalog_entry("backdoor")
    g = entry.scm.graph
    joint = exact_joint(entry.scm)
    data = sample_observational(entry.scm, N_OBS, np.random.default_rng(70))
    sampler = build_conditional_sampler(
        QuerySpec(("I",), (("V", 0),), (("A", 0),)), g, DatasetSource(data),
        rng=np.random.default_rng(71),
    ).network
    table = evaluate_estimand(identify_conditional_effect({"I"}, {"V"}, {"A"}, g).estimand, joint)
    rng = np.random.default_rng(72)
    for v in range(2):
        for a in range(2):
            draws = sample_interventional(sampler, QuerySpec(("I",), (("V", v),), (("A", a),)), N_SAMPLES, rng)
            emp = empirical_distribution(draws, ["I"])
            worst = max(worst, tvd(emp, table.fix({"V": v, "A": a})))
            worst_oracle = max(worst_oracle, tvd(emp, oracle_conditional(entry.scm, ["I"], {"V": v}, {"A": a})))

    # chain P(C | do(A), B)
    cg = chain_graph()
    cm = noisy_copy_scm(cg)
    cjoint = exact_joint(cm)
    cdata = sample_observational(cm, N_OBS, np.random.default_rng(73))
    csampler = build_conditional_sampler(
        QuerySpec(("C",), (("A", 0),), (("B", 0),)), cg, DatasetSource(cdata),
        rng=np.random.default_rng(74),
    ).network
    ctable = evaluate_estimand(identify_conditional_effect({"C"}, {"A"}, {"B"}, cg).estimand, cjoint)
    for a in range(2):
        for b in range(2):
            draws = sample_interventional(csampler, QuerySpec(("C",), (("A", a),), (("B", b),)), N_SAMPLES, rng)
            emp = empirical_distribution(draws, ["C"])
            worst = max(worst, tvd(emp, ctable.fix({"A": a, "B": b})))
            worst_oracle = max(worst_oracle, tvd(emp, oracle_conditional(cm, ["C"], {"A": a}, {"B": b})))
    report("C7 conditional queries", worst <= 0.03 and worst_oracle <= 0.03,
           f"worst tvd {worst:.4f}, from the oracle {worst_oracle:.4f}")


def test_c8_structural_validity():
    checked = 0
    rng = np.random.default_rng(80)
    builds = []
    for entry, q in identifiable_unconditional_queries():
        source = ExactSource(entry.scm.network)
        builds.append(build_network(q.targets, q.do, entry.scm.graph, source,
                                    rng=np.random.default_rng(81)))
    for _ in range(60):
        g = random_admg(rng)
        y, x = random_query(rng, g)
        rows = rng.integers(0, 2, size=(128, len(g.names)))
        builds.append(build_network(y, x, g, DatasetSource(Dataset(g.variables, rows)),
                                    rng=np.random.default_rng(82)))
    for built in builds:
        if not built.identifiable:
            continue
        h = built.network
        h.validate()
        position = {n: i for i, n in enumerate(h.global_order)}
        assert all(position[a] < position[b] for a, b in h.edges())
        empties = set(h.empty_nodes())
        for name, model in h.nodes.items():
            assert (model is None) == (name in empties)
        checked += 1
    report("C8 structural validity", checked > 0, f"{checked} networks checked")


def test_c9_sample_determinism(tmp_path):
    entry = catalog_entry("napkin")
    write_scm(entry.scm, tmp_path / "napkin.scm", tmp_path / "napkin.graph")
    (tmp_path / "q.txt").write_text("target=Y\ndo=X=1\n")
    digests = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        code = cli_main([
            "sample", "--graph", str(tmp_path / "napkin.graph"), "--query", str(tmp_path / "q.txt"),
            "--scm", str(tmp_path / "napkin.scm"), "--n", "5000", "--seed", "123",
            "--out", str(out),
        ])
        assert code == 0
        payload = (
            out.with_suffix(".csv").read_bytes()
            + out.with_suffix(".sidecar.json").read_bytes()
            + out.with_suffix(".manifest").read_bytes()
        )
        digests.append(hashlib.sha256(payload).hexdigest())
    report("C9 determinism", digests[0] == digests[1], digests[0][:12])
