from __future__ import annotations

import hashlib

import numpy as np
import pytest

from causalgen import scm
from causalgen.cli import main
from causalgen.estimands import ENUMERATION_BUDGET
from causalgen.graphs import format_graph
from causalgen.models import read_dataset_csv
from causalgen.scm import (
    catalog,
    catalog_entry,
    empirical_distribution,
    exact_joint,
    noisy_copy_scm,
    sampling_tolerance,
    tvd,
    write_scm,
)
from conftest import admg, bow_graph, confounded_chain
from test_models import savetxt_reference


@pytest.fixture
def frontdoor_files(tmp_path):
    entry = catalog_entry("frontdoor")
    write_scm(entry.scm, tmp_path / "frontdoor.scm", tmp_path / "frontdoor.graph")
    (tmp_path / "query.txt").write_text("target=R\ndo=X=1\n")
    return tmp_path


def assert_input_error(capsys, argv, fragment):
    """Exit 1 with a one-line `error:` message naming `fragment`, no traceback."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


class TestIdentify:
    def test_frontdoor_prints_estimand(self, frontdoor_files, capsys):
        code = main([
            "identify",
            "--graph", str(frontdoor_files / "frontdoor.graph"),
            "--query", str(frontdoor_files / "query.txt"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Σ_{s} P(s|x) · Σ_{x'} P(x') P(r|x',s)" in out
        assert "S4" in out  # trace lines

    def test_bow_exits_2_with_witness(self, tmp_path, capsys):
        (tmp_path / "bow.graph").write_text(format_graph(bow_graph()))
        (tmp_path / "q.txt").write_text("target=Y\ndo=X=0\n")
        code = main(["identify", "--graph", str(tmp_path / "bow.graph"), "--query", str(tmp_path / "q.txt")])
        out = capsys.readouterr().out
        assert code == 2
        assert "not identifiable" in out and "X,Y" in out

    def test_malformed_graph_exits_1_with_line(self, tmp_path, capsys):
        (tmp_path / "bad.graph").write_text("var X 2\nedge X -> Q\n")
        (tmp_path / "q.txt").write_text("target=X\n")
        code = main(["identify", "--graph", str(tmp_path / "bad.graph"), "--query", str(tmp_path / "q.txt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_conditional_query(self, tmp_path, capsys):
        entry = catalog_entry("backdoor")
        write_scm(entry.scm, tmp_path / "bd.scm", tmp_path / "bd.graph")
        (tmp_path / "q.txt").write_text("target=I\ndo=V=0\ngiven=A=1\n")
        code = main(["identify", "--graph", str(tmp_path / "bd.graph"), "--query", str(tmp_path / "q.txt")])
        out = capsys.readouterr().out
        assert code == 0 and "/" in out


class TestGenData:
    def test_writes_rows(self, frontdoor_files, capsys):
        out = frontdoor_files / "obs.csv"
        code = main(["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "10",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        data = read_dataset_csv(out, frontdoor_files / "obs.sidecar.json")
        assert data.n == 10 and data.names == ("X", "S", "R")

    def test_fixed_seed_reproducible_hash(self, frontdoor_files):
        paths = []
        for tag in ("a", "b"):
            out = frontdoor_files / f"{tag}.csv"
            main(["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "500",
                  "--seed", "7", "--out", str(out)])
            paths.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert paths[0] == paths[1]

    def test_needs_no_joint(self, tmp_path):
        # 2^48 joint cells are past the enumeration budget; sampling reads only the kernels
        write_scm(noisy_copy_scm(confounded_chain(48)), tmp_path / "c.scm", tmp_path / "c.graph")
        out = tmp_path / "obs.csv"
        assert main(["gen-data", "--scm", str(tmp_path / "c.scm"), "--n", "100", "--out", str(out)]) == 0
        assert read_dataset_csv(out, tmp_path / "obs.sidecar.json").names[-1] == "V47"

    def test_rejects_nonpositive_n(self, frontdoor_files, capsys):
        code = main(["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "0",
                     "--out", str(frontdoor_files / "x.csv")])
        assert code == 1


class TestSample:
    def test_scm_backed_sampling(self, frontdoor_files, capsys):
        out = frontdoor_files / "samples"
        code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                     "--query", str(frontdoor_files / "query.txt"),
                     "--scm", str(frontdoor_files / "frontdoor.scm"),
                     "--n", "1000", "--seed", "3", "--out", str(out)])
        assert code == 0
        samples = read_dataset_csv(out.with_suffix(".csv"), out.with_suffix(".sidecar.json"))
        assert samples.names == ("R",) and samples.n == 1000
        manifest = out.with_suffix(".manifest").read_text()
        assert "kind=placeholder" in manifest and "kind=exact" in manifest

    @pytest.mark.parametrize("n, proposal", [
        pytest.param(24, "uniform", id="24"),
        pytest.param(48, "uniform", id="48"),
        pytest.param(65, "uniform", id="65"),
        # 22 chain-rule proposal factors carry 253 subscripts, past numpy's sublist form
        pytest.param(24, "marginal", id="24-marginal"),
    ])
    def test_scm_sampling_past_the_joint(self, tmp_path, capsys, n, proposal):
        write_scm(noisy_copy_scm(confounded_chain(n)), tmp_path / "c.scm", tmp_path / "c.graph")
        (tmp_path / "q.txt").write_text(f"target=V{n - 1}\ndo=V0=1\n")
        assert main(["sample", "--graph", str(tmp_path / "c.graph"), "--query", str(tmp_path / "q.txt"),
                     "--scm", str(tmp_path / "c.scm"), "--proposal", proposal, "--n", "100",
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert "kind=exact" in (tmp_path / "o.manifest").read_text()

    def test_data_backed_sampling(self, frontdoor_files, capsys):
        obs = frontdoor_files / "obs.csv"
        main(["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "20000",
              "--seed", "2", "--out", str(obs)])
        out = frontdoor_files / "fitted"
        code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                     "--query", str(frontdoor_files / "query.txt"),
                     "--data", str(obs), "--n", "500", "--seed", "3", "--out", str(out)])
        assert code == 0
        manifest = out.with_suffix(".manifest").read_text()
        assert "kind=cpt" in manifest

    def test_csvs_are_savetxt_text(self, frontdoor_files):
        # the bytes of `np.savetxt` on the dataset each file reads back as
        obs, out = frontdoor_files / "obs", frontdoor_files / "fitted"
        assert main(["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "20000",
                     "--seed", "0", "--out", str(obs.with_suffix(".csv"))]) == 0
        assert main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                     "--query", str(frontdoor_files / "query.txt"), "--data", str(obs.with_suffix(".csv")),
                     "--n", "5000", "--seed", "0", "--out", str(out)]) == 0
        for prefix in (obs, out):
            csv, reference = prefix.with_suffix(".csv"), frontdoor_files / "reference.csv"
            savetxt_reference(reference, read_dataset_csv(csv, prefix.with_suffix(".sidecar.json")))
            assert csv.read_bytes() == reference.read_bytes()

    def test_same_seed_byte_identical(self, frontdoor_files):
        digests = []
        for tag in ("r1", "r2"):
            out = frontdoor_files / tag
            main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                  "--query", str(frontdoor_files / "query.txt"),
                  "--scm", str(frontdoor_files / "frontdoor.scm"),
                  "--n", "2000", "--seed", "11", "--out", str(out)])
            payload = out.with_suffix(".csv").read_bytes() + out.with_suffix(".manifest").read_bytes()
            digests.append(hashlib.sha256(payload).hexdigest())
        assert digests[0] == digests[1]

    def test_workers_flag(self, frontdoor_files):
        digests = []
        for tag in ("w1", "w2"):
            out = frontdoor_files / tag
            code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                         "--query", str(frontdoor_files / "query.txt"),
                         "--scm", str(frontdoor_files / "frontdoor.scm"),
                         "--n", "3000", "--seed", "5", "--workers", "4", "--out", str(out)])
            assert code == 0
            digests.append(hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_dotted_prefixes_keep_their_files(self, frontdoor_files):
        # the suffixes are appended to the prefix, so runs.q0.w1 and runs.q0.w2 share no file
        files = {}
        for workers in ("1", "2"):
            out = frontdoor_files / f"runs.q0.w{workers}"
            code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                         "--query", str(frontdoor_files / "query.txt"),
                         "--scm", str(frontdoor_files / "frontdoor.scm"),
                         "--n", "3000", "--seed", "5", "--workers", workers, "--out", str(out)])
            assert code == 0
            files[workers] = [out.parent / (out.name + s) for s in (".csv", ".sidecar.json", ".manifest")]
        for csv, sidecar, manifest in files.values():
            assert read_dataset_csv(csv, sidecar).n == 3000 and "kind=exact" in manifest.read_text()
        assert files["1"][0].read_bytes() != files["2"][0].read_bytes()  # the rows depend on --workers
        assert not (frontdoor_files / "runs.q0.csv").exists()

    def test_conditional_query_sampling(self, tmp_path):
        entry = catalog_entry("backdoor")
        write_scm(entry.scm, tmp_path / "bd.scm", tmp_path / "bd.graph")
        (tmp_path / "q.txt").write_text("target=I\ndo=V=1\ngiven=A=0\n")
        out = tmp_path / "cond"
        code = main(["sample", "--graph", str(tmp_path / "bd.graph"), "--query", str(tmp_path / "q.txt"),
                     "--scm", str(tmp_path / "bd.scm"), "--n", "2000", "--seed", "0", "--out", str(out)])
        assert code == 0
        samples = read_dataset_csv(out.with_suffix(".csv"), out.with_suffix(".sidecar.json"))
        assert samples.names == ("I",) and samples.n == 2000
        manifest = out.with_suffix(".manifest").read_text()
        assert "node A kind=placeholder card=2\n" in manifest
        assert "node I kind=exact card=2 context=A,V " in manifest

    def test_conditional_query_with_pruned_shifted_variable(self, tmp_path, capsys):
        # C moves into the do-set by rule 2 and step 2 then prunes it, as no
        # ancestor of B: P(B | C=1) = P(B), and C is no network node
        g = admg("A B C", [("A", "B")])
        m = noisy_copy_scm(g)
        write_scm(m, tmp_path / "g.scm", tmp_path / "g.graph")
        (tmp_path / "q.txt").write_text("target=B\ngiven=C=1\n")
        files = ["--graph", str(tmp_path / "g.graph"), "--query", str(tmp_path / "q.txt")]
        out = tmp_path / "cond"
        code = main(["sample", *files, "--scm", str(tmp_path / "g.scm"), "--n", "20000", "--out", str(out)])
        assert code == 0
        samples = read_dataset_csv(out.with_suffix(".csv"), out.with_suffix(".sidecar.json"))
        truth = exact_joint(m).marginal(["B"])
        assert tvd(empirical_distribution(samples, ["B"]), truth) <= 0.03
        assert "node C" not in out.with_suffix(".manifest").read_text()
        capsys.readouterr()
        code = main(["eval", "--scm", str(tmp_path / "g.scm"), "--query", str(tmp_path / "q.txt"),
                     "--n", "20000", "--obs-n", "20000"])
        row = capsys.readouterr().out.splitlines()[-1]
        assert code == 0
        assert all(float(col) <= 0.03 for col in row.split("|")[-3:-1]), row

    def test_hedge_exits_2(self, tmp_path, capsys):
        from causalgen.scm import catalog_entry as entry

        bow = entry("bow")
        write_scm(bow.scm, tmp_path / "bow.scm", tmp_path / "bow.graph")
        (tmp_path / "q.txt").write_text("target=Y\ndo=X=1\n")
        code = main(["sample", "--graph", str(tmp_path / "bow.graph"), "--query", str(tmp_path / "q.txt"),
                     "--scm", str(tmp_path / "bow.scm"), "--n", "10", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_conditional_hedge_prints_the_trace_identify_prints(self, tmp_path, capsys):
        # Z stays given (no rule-2 shift), and P(Y, Z | do(X)) hedges at step 5 after step 7
        write_scm(noisy_copy_scm(admg("Z X Y", [("Z", "X"), ("X", "Y")], [("X", "Y")])),
                  tmp_path / "g.scm", tmp_path / "g.graph")
        obs = str(tmp_path / "obs.csv")
        assert main(["gen-data", "--scm", str(tmp_path / "g.scm"), "--n", "100", "--out", obs]) == 0
        (tmp_path / "q.txt").write_text("target=Y\ndo=X=1\ngiven=Z=0\n")
        files = ["--graph", str(tmp_path / "g.graph"), "--query", str(tmp_path / "q.txt")]
        capsys.readouterr()
        assert main(["identify", *files]) == 2
        expected = capsys.readouterr().out
        assert main(["sample", *files, "--data", obs, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == expected
        lines = expected.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == ["S7", "S5"]
        assert lines[-1] == "not identifiable: hedge over {X,Y} with component {Y}"

    def test_rejects_nonpositive_n(self, frontdoor_files):
        code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                     "--query", str(frontdoor_files / "query.txt"),
                     "--scm", str(frontdoor_files / "frontdoor.scm"),
                     "--n", "0", "--out", str(frontdoor_files / "o")])
        assert code == 1

    def test_requires_exactly_one_source(self, frontdoor_files):
        code = main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                     "--query", str(frontdoor_files / "query.txt"),
                     "--n", "10", "--out", str(frontdoor_files / "o")])
        assert code == 1


class TestEval:
    def test_scm_file_report(self, frontdoor_files, capsys):
        code = main(["eval", "--scm", str(frontdoor_files / "frontdoor.scm"),
                     "--query", str(frontdoor_files / "query.txt"),
                     "--n", "20000", "--obs-n", "20000", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted tvd" in out and "frontdoor" in out

    @pytest.mark.parametrize("n, given", [
        pytest.param(24, "", id="24"),
        pytest.param(48, "", id="48"),
        # past 64 nodes the steps' summed-out numbers outnumber one einsum's operands
        pytest.param(65, "", id="65"),
        pytest.param(24, "given=V12=0\n", id="24-given"),
        pytest.param(48, "given=V24=0\n", id="48-given"),
    ])
    def test_reaches_a_chain_past_the_joint(self, tmp_path, capsys, n, given):
        # the exact source and the oracle's truth read the SCM's network by
        # contraction, never its 2^n-cell joint, for conditional queries too
        write_scm(noisy_copy_scm(confounded_chain(n)), tmp_path / "c.scm", tmp_path / "c.graph")
        (tmp_path / "q.txt").write_text(f"target=V{n - 1}\ndo=V0=1\n{given}")
        code = main(["eval", "--scm", str(tmp_path / "c.scm"), "--query", str(tmp_path / "q.txt"),
                     "--n", "5000", "--obs-n", "2000"])
        row = capsys.readouterr().out.splitlines()[-1]
        assert code == 0
        assert float(row.split("|")[3]) <= sampling_tolerance(2, 5000), row

    def test_each_truth_is_computed_once(self, monkeypatch, capsys):
        # backdoor's two queries have two and four do- and given-configurations,
        # and both columns score against each one's truth
        calls, exact = [], scm.exact_interventional
        monkeypatch.setattr(scm, "exact_interventional", lambda m, do, keep: calls.append(do) or exact(m, do, keep))
        assert main(["eval", "--catalog", "backdoor", "--n", "2000", "--obs-n", "2000"]) == 0
        assert calls == [{"V": 0}, {"V": 1}] + [{"V": 0}, {"V": 0}, {"V": 1}, {"V": 1}]

    def test_compile_path_builds_no_joint(self, frontdoor_files, monkeypatch):
        def refuse(m):
            raise AssertionError("the compile path built the joint")

        monkeypatch.setattr(scm, "exact_joint", refuse)
        scm_file, query = str(frontdoor_files / "frontdoor.scm"), str(frontdoor_files / "query.txt")
        assert main(["eval", "--scm", scm_file, "--query", query, "--n", "1000", "--obs-n", "1000"]) == 0
        (frontdoor_files / "given.txt").write_text("target=R\ndo=X=1\ngiven=S=0\n")
        assert main(["eval", "--scm", scm_file, "--query", str(frontdoor_files / "given.txt"),
                     "--n", "1000", "--obs-n", "1000"]) == 0
        assert main(["sample", "--graph", str(frontdoor_files / "frontdoor.graph"), "--query", query,
                     "--scm", scm_file, "--n", "100", "--out", str(frontdoor_files / "o")]) == 0

    def test_joint_past_the_budget_is_one_line(self, tmp_path, capsys):
        # the marginal proposal is the joint of the 24 variables step 7 draws
        write_scm(noisy_copy_scm(confounded_chain(26)), tmp_path / "c.scm", tmp_path / "c.graph")
        (tmp_path / "q.txt").write_text("target=V25\ndo=V0=1\n")
        assert_input_error(capsys, ["eval", "--scm", str(tmp_path / "c.scm"), "--query", str(tmp_path / "q.txt"),
                                    "--proposal", "marginal", "--n", "100", "--obs-n", "100"], "budget")

    def test_catalog_hedge_row(self, capsys):
        code = main(["eval", "--catalog", "bow", "--n", "1000", "--obs-n", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HEDGE" in out


    def test_catalog_all_rows_match_single_entries(self, capsys):
        args = ["--n", "2000", "--obs-n", "2000", "--seed", "3"]
        assert main(["eval", "--catalog", "all", *args]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        single = []
        for entry in catalog():
            assert main(["eval", "--catalog", entry.name, *args]) == 0
            single += capsys.readouterr().out.splitlines()[2:]
        assert rows == single


def long_chain_sample(tmp_path, n: int) -> list[str]:
    """`sample` argv for V0 -> ... -> V(n-1) with V0 <-> V(n-1), target V(n-1)
    and do(V0=1), against 200 rows of binary data; step 7 draws the n - 2
    variables between them."""
    names = [f"V{i}" for i in range(n)]
    g = confounded_chain(n)
    (tmp_path / "g.graph").write_text(format_graph(g))
    (tmp_path / "q.txt").write_text(f"target={names[-1]}\ndo=V0=1\n")
    rows = np.random.default_rng(0).integers(0, 2, size=(200, n))
    (tmp_path / "obs.csv").write_text(",".join(names) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return ["sample", "--graph", str(tmp_path / "g.graph"), "--query", str(tmp_path / "q.txt"),
            "--data", str(tmp_path / "obs.csv"), "--out", str(tmp_path / "o")]


class TestIngressErrors:
    @pytest.mark.parametrize("command", ["identify", "sample", "eval"])
    def test_non_integer_query_value(self, frontdoor_files, capsys, command):
        (frontdoor_files / "bad.txt").write_text("target=R\ndo=X=a\n")
        argv = {
            "identify": ["identify", "--graph", str(frontdoor_files / "frontdoor.graph")],
            "sample": ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                       "--scm", str(frontdoor_files / "frontdoor.scm"), "--out", str(frontdoor_files / "o")],
            "eval": ["eval", "--scm", str(frontdoor_files / "frontdoor.scm")],
        }[command]
        assert_input_error(capsys, argv + ["--query", str(frontdoor_files / "bad.txt")], "not an integer")

    # a repeated key line, a name twice in one list
    @pytest.mark.parametrize("text, fragment", [
        ("target=R\ndo=X=1,X=0\n", "query line 2: 'X' is listed twice"),
        ("target=R\ntarget=S\ndo=X=1\n", "query line 2: repeated key 'target'"),
        ("target=R,R\ndo=X=1\n", "query line 1: 'R' is listed twice"),
        ("target=R\ndo=X=1\n\ndo=X=0\n", "query line 4: repeated key 'do'"),
        ("target=R\ngiven=S=0, S=1\ndo=X=1\n", "query line 2: 'S' is listed twice"),
    ])
    def test_query_says_a_thing_twice(self, frontdoor_files, capsys, text, fragment):
        (frontdoor_files / "twice.txt").write_text(text)
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "twice.txt"),
                                    "--scm", str(frontdoor_files / "frontdoor.scm"),
                                    "--out", str(frontdoor_files / "o")], fragment)

    def test_eval_missing_scm(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["eval", "--scm", str(frontdoor_files / "missing.scm"),
                                    "--query", str(frontdoor_files / "query.txt")], "missing.scm")

    def test_eval_missing_query(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["eval", "--scm", str(frontdoor_files / "frontdoor.scm"),
                                    "--query", str(frontdoor_files / "missing.txt")], "missing.txt")

    def test_sample_missing_data(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "missing.csv"),
                                    "--out", str(frontdoor_files / "o")], "missing.csv")

    # a non-integer cell, a short row, a character numpy would read as 131024
    @pytest.mark.parametrize("row, fragment", [("0,1,a", "bad.csv"), ("0,1", "bad.csv"),
                                               ("0,1,\U00020000", "non-ASCII")])
    def test_sample_malformed_csv(self, frontdoor_files, capsys, row, fragment):
        (frontdoor_files / "bad.csv").write_text("X,S,R\n0,0,0\n" + row + "\n", encoding="utf-8")
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "bad.csv"),
                                    "--out", str(frontdoor_files / "o")], fragment)

    # the reader takes exactly what write_dataset_csv writes; np.loadtxt also took these
    @pytest.mark.parametrize("rows, fragment", [
        ("0,0,0\n0, 1,0\n", "bad.csv:3: character ' '"),
        ("0,0,0\n0,1 ,0\n", "bad.csv:3: character ' '"),
        ("0,0,0\n+1,0,0\n", "bad.csv:3: character '+'"),
        ("0,0,0\n# a comment\n1,0,0\n", "bad.csv:3: character '#'"),
        ("0,0,0\n1,1,1 # a comment\n", "bad.csv:3: character ' '"),
        ("0,0,0\n\n1,0,0\n", "bad.csv:3: a blank line"),
    ])
    def test_sample_refuses_what_loadtxt_accepted(self, frontdoor_files, capsys, rows, fragment):
        (frontdoor_files / "bad.csv").write_text("X,S,R\n" + rows)
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "bad.csv"),
                                    "--out", str(frontdoor_files / "o")], fragment)

    @pytest.mark.parametrize("rows, fragment", [
        ("0,0,0\n1,1,1\n0,a,1\n", "bad.csv:4: character 'a'"),
        ("0,0,0\n1,1,1\r0,0,0\n", "bad.csv:3: character '\\r'"),
        ("0,0,0\n0,0,\u00e9\n", "bad.csv:3: non-ASCII byte 0xc3"),
        ("0,0,0\n0,1\n", "bad.csv:3: 2 fields, the header has 3"),
        ("0,0,0\n0,1,1,0\n", "bad.csv:3: 4 fields, the header has 3"),
        ("0,0,0\n0,,1\n", "bad.csv:3: column S is empty"),
        ("0,0,0\n0,0,0000000000000000001\n", "bad.csv:3: column R has 19 digits, more than 18"),
        ("0,0,0\n0,2,0\n", "bad.csv:3: column S holds 2, at or above its cardinality 2"),
        pytest.param("0,0,0\n" * 40_000 + "0,0,2\n", "bad.csv:40002: column R holds 2", id="past-the-first-chunk"),
    ])
    def test_sample_malformed_csv_names_the_line(self, frontdoor_files, capsys, rows, fragment):
        (frontdoor_files / "bad.csv").write_text("X,S,R\n" + rows, encoding="utf-8")
        (frontdoor_files / "bad.sidecar.json").write_text('{"cardinalities": {"X": 2, "S": 2, "R": 2}}')
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "bad.csv"),
                                    "--out", str(frontdoor_files / "o")], fragment)

    # a carriage return at either end of the header, where stripping the header used to hide it
    @pytest.mark.parametrize("text", ["\r0", "\rX,Y\n0,1\n", "X,Y\r\r\n0,1\n"])
    def test_sample_refuses_a_carriage_return_in_the_header(self, frontdoor_files, capsys, text):
        (frontdoor_files / "bad.csv").write_bytes(text.encode())
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "bad.csv"),
                                    "--out", str(frontdoor_files / "o")],
                           "bad.csv:1: a carriage return inside the header")

    def test_sample_repeated_csv_column(self, frontdoor_files, capsys):
        (frontdoor_files / "dup.csv").write_text("X,S,R,X\n0,0,0,1\n1,1,1,0\n")
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "dup.csv"),
                                    "--out", str(frontdoor_files / "o")], "dup.csv: column 'X'")

    @pytest.mark.parametrize("text", ["{bad", '{"cardinalities": {"X": "a"}}', "[1, 2]"])
    def test_sample_malformed_sidecar(self, frontdoor_files, capsys, text):
        (frontdoor_files / "obs.csv").write_text("X,S,R\n0,0,0\n1,1,1\n")
        (frontdoor_files / "obs.sidecar.json").write_text(text)
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--data", str(frontdoor_files / "obs.csv"),
                                    "--out", str(frontdoor_files / "o")], "obs.sidecar.json")

    @pytest.mark.parametrize("mult", ["nan", "inf", "0", "-1"])
    def test_sample_bad_dprime_mult(self, frontdoor_files, capsys, mult):
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--scm", str(frontdoor_files / "frontdoor.scm"),
                                    "--dprime-mult", mult, "--out", str(frontdoor_files / "o")], "dprime_mult")

    def test_sample_zero_workers(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--scm", str(frontdoor_files / "frontdoor.scm"),
                                    "--workers", "0", "--out", str(frontdoor_files / "o")], "workers")

    def test_sample_out_in_missing_directory(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["sample", "--graph", str(frontdoor_files / "frontdoor.graph"),
                                    "--query", str(frontdoor_files / "query.txt"),
                                    "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "10",
                                    "--out", str(frontdoor_files / "no" / "such" / "o")], "No such file")

    def test_gen_data_out_in_missing_directory(self, frontdoor_files, capsys):
        assert_input_error(capsys, ["gen-data", "--scm", str(frontdoor_files / "frontdoor.scm"), "--n", "10",
                                    "--out", str(frontdoor_files / "no" / "such" / "x.csv")], "No such file")

    @pytest.mark.parametrize("command", ["sample", "gen-data", "gen-data-2e18", "gen-data-1e19", "eval", "eval-obs-n"])
    def test_request_past_memory(self, frontdoor_files, capsys, command):
        # each block needs over 2^57 bytes, more than a 64-bit address space
        # holds, so it is refused at once, without touching memory; 2e18 rows of
        # uint8 data pass the address-space check and fail in the allocator,
        # 1e19 rows exceed numpy's index range
        files = frontdoor_files

        def gen_data(n):
            return ["gen-data", "--scm", str(files / "frontdoor.scm"), "--n", str(n), "--out", str(files / "obs.csv")]

        argv = {
            "sample": ["sample", "--graph", str(files / "frontdoor.graph"), "--query", str(files / "query.txt"),
                       "--scm", str(files / "frontdoor.scm"), "--n", str(10**17), "--out", str(files / "o")],
            "gen-data": gen_data(10**17),
            "gen-data-2e18": gen_data(2 * 10**18),
            "gen-data-1e19": gen_data(10**19),
            # 500,000 observational rows times 1e15 overflow numpy's index range
            "eval": ["eval", "--catalog", "frontdoor", "--dprime-mult", "1e15"],
            "eval-obs-n": ["eval", "--catalog", "frontdoor", "--obs-n", str(10**19)],
        }[command]
        assert_input_error(capsys, argv, "Unable to allocate")
        assert not list(files.glob("o.*")) and not (files / "obs.csv").exists()

    @pytest.mark.parametrize("proposal, n", [("marginal", 66), ("marginal", 62)])
    def test_step7_proposal_past_the_address_space(self, tmp_path, capsys, proposal, n):
        # the marginal proposal is the data's joint of the n - 2 variables step 7
        # draws, 2^64 (or 2^60) cells, whose dense table no address space holds
        argv = long_chain_sample(tmp_path, n) + ["--proposal", proposal]
        assert_input_error(capsys, argv, "Unable to allocate")
        assert not list(tmp_path.glob("o.*"))

    def test_marginal_proposal_past_the_budget(self, tmp_path, capsys):
        # the marginal proposal's table over the 24 variables step 7 draws has
        # 2^24 cells: it fits in memory, but contracting it exceeds the budget
        argv = long_chain_sample(tmp_path, 26) + ["--proposal", "marginal"]
        assert_input_error(capsys, argv, f"exceeds the enumeration budget of {ENUMERATION_BUDGET}")
        assert not list(tmp_path.glob("o.*"))

    def test_uniform_proposal_on_a_66_node_chain(self, tmp_path, capsys):
        # the uniform proposal draws the 64 variables one at a time, with no table over them
        assert main(long_chain_sample(tmp_path, 66) + ["--proposal", "uniform"]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in tmp_path.glob("o.*")) == ["o.csv", "o.manifest", "o.sidecar.json"]
        assert read_dataset_csv(tmp_path / "o.csv", tmp_path / "o.sidecar.json").n == 10_000

    @pytest.mark.parametrize("command", ["sample", "eval", "gen-data"])
    @pytest.mark.parametrize("seed, fragment", [("-1", "--seed must be non-negative"),
                                                ("abc", "invalid int value: 'abc'")])
    def test_bad_seed(self, frontdoor_files, capsys, command, seed, fragment):
        files = frontdoor_files
        argv = {
            "sample": ["sample", "--graph", str(files / "frontdoor.graph"), "--query", str(files / "query.txt"),
                       "--scm", str(files / "frontdoor.scm"), "--n", "10", "--out", str(files / "o")],
            "eval": ["eval", "--catalog", "frontdoor", "--n", "10", "--obs-n", "10"],
            "gen-data": ["gen-data", "--scm", str(files / "frontdoor.scm"), "--n", "10",
                         "--out", str(files / "obs.csv")],
        }[command]
        assert_input_error(capsys, argv + ["--seed", seed], fragment)
        assert not list(files.glob("o.*")) and not (files / "obs.csv").exists()

    @pytest.mark.parametrize("argv, fragment", [
        ([], "the following arguments are required: command"),
        (["sample", "--n", "1.5"], "causalgen sample: argument --n: invalid int value: '1.5'"),
        (["eval", "--proposal", "other"], "argument --proposal: invalid choice: 'other'"),
        (["gen-data", "--scm", "m.scm"], "the following arguments are required: --n, --out"),
        (["identify", "--graph", "g", "--query", "q", "--extra"], "unrecognized arguments: --extra"),
    ])
    def test_malformed_arguments_are_input_errors(self, capsys, argv, fragment):
        # argparse's own exit code, 2, is the code of a hedge
        assert_input_error(capsys, argv, fragment)

    def test_sample_data_cardinality_mismatch(self, tmp_path, capsys):
        # S has 3 states in the graph, but the csv (no sidecar) only shows 0 and 1
        g = admg([("X", 2), ("S", 3), ("R", 2)], [("X", "S"), ("S", "R")], [("X", "R")])
        (tmp_path / "g.graph").write_text(format_graph(g))
        (tmp_path / "q.txt").write_text("target=R\ndo=X=1\n")
        rows = [f"{i % 2},{(i // 2) % 2},{(i // 4) % 2}" for i in range(64)]
        (tmp_path / "obs.csv").write_text("X,S,R\n" + "\n".join(rows) + "\n")
        assert_input_error(capsys, ["sample", "--graph", str(tmp_path / "g.graph"),
                                    "--query", str(tmp_path / "q.txt"), "--data", str(tmp_path / "obs.csv"),
                                    "--out", str(tmp_path / "o")], "column S")
