"""Property tests for the text parsers: every input either parses or raises the
parser's own error type, never an IndexError, ValueError or the like; the
CLI answers every CSV and sidecar with an exit code, never a traceback; and a
dataset written as CSV with its sidecar reads back unchanged."""

from __future__ import annotations

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # dev-only dependency

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalgen.cli import main
from causalgen.engine import parse_query
from causalgen.graphs import GraphError, Variable, parse_graph
from causalgen.models import Dataset, read_dataset_csv, write_dataset_csv
from causalgen.scm import ScmError, catalog_entry, read_scm, write_scm
from conftest import frontdoor_graph

TOKENS = st.one_of(
    st.sampled_from(
        ["X", "S", "R", "Q", "0", "1", "2", "7", "-1", "0.5", "0.4", "0.6", "1.0", "nan", "inf",
         "1e999", "99999999999999999999", "zz", "=", ",", "fd.graph", "missing.graph", "."]
    ),
    st.text(max_size=4),
)
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def query_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(["target", "do", "given", "junk", ""]))
        items = draw(st.lists(st.tuples(TOKENS, st.sampled_from(["=", ""]), TOKENS), max_size=3))
        lines.append(key + "=" + ",".join(a + sep + b for a, sep, b in items))
    return "\n".join(lines)


@FUZZ
@given(st.one_of(query_texts(), st.text(max_size=40)))
def test_parse_query_parses_or_raises_graph_error(text):
    try:
        parse_query(text).validate(frontdoor_graph())
    except GraphError:
        pass


@st.composite
def scm_texts(draw, base_lines):
    """The frontdoor SCM file with a few fields replaced, lines cut short or added."""
    lines = [line.split() for line in base_lines]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["replace", "truncate", "insert"]))
        if op == "replace" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(TOKENS)
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            kind = draw(st.sampled_from(["graph", "noise", "latent", "mech", "other"]))
            lines.insert(i, [kind] + draw(st.lists(TOKENS, max_size=5)))
    return "\n".join(" ".join(fields) for fields in lines)


@pytest.fixture
def scm_dir(tmp_path):
    write_scm(catalog_entry("frontdoor").scm, tmp_path / "fd.scm", tmp_path / "fd.graph")
    return tmp_path


@FUZZ
@given(data=st.data())
def test_read_scm_parses_or_raises_scm_error(scm_dir, data):
    base = (scm_dir / "fd.scm").read_text().splitlines()
    text = data.draw(st.one_of(scm_texts(base), st.text(max_size=40)))
    (scm_dir / "fuzz.scm").write_text(text)
    try:
        read_scm(scm_dir / "fuzz.scm")
    except (GraphError, ScmError):
        pass


GRAPH_TOKENS = st.one_of(
    st.sampled_from(["var", "edge", "confound", "->", "<->", "X", "Y", "Z", "2", "3", "1", "0", "-1", "1.5", "#"]),
    st.text(max_size=4),
)


@FUZZ
@given(st.one_of(
    st.lists(st.lists(GRAPH_TOKENS, max_size=5).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=40),
))
def test_parse_graph_parses_or_raises_graph_error(text):
    try:
        parse_graph(text)
    except GraphError:
        pass


CSV_CELLS = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "a", "", " ", "1.5", "+1", "99999999999999999999", "9223372036854775807"]),
    st.text(max_size=3),
)


@st.composite
def csv_texts(draw):
    """A header over the frontdoor names (or others) and rows of cells, ragged or not."""
    header = draw(st.lists(st.sampled_from(["X", "S", "R", "Q", ""]), max_size=4))
    width = st.integers(0, 4) if draw(st.booleans()) else st.just(len(header))
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(CSV_CELLS, min_size=k, max_size=k)), max_size=6))
    return "\n".join(",".join(cells) for cells in [header] + rows) + "\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["cardinalities", "intervened", "X", "S", "R"]), inner, max_size=3),
    max_leaves=8,
)
# None: no sidecar next to the csv
SIDECAR_TEXTS = st.one_of(st.none(), st.text(max_size=40), JSON_VALUES.map(json.dumps))


@pytest.fixture
def frontdoor_dir(tmp_path):
    write_scm(catalog_entry("frontdoor").scm, tmp_path / "fd.scm", tmp_path / "fd.graph")
    (tmp_path / "q.txt").write_text("target=R\ndo=X=1\n")
    return tmp_path


@FUZZ
@given(data=st.data())
def test_sample_answers_any_csv_with_an_exit_code(frontdoor_dir, data):
    text = data.draw(st.one_of(csv_texts(), st.text(max_size=40)))
    (frontdoor_dir / "obs.csv").write_text(text, encoding="utf-8")
    sidecar = data.draw(SIDECAR_TEXTS)
    if sidecar is None:
        (frontdoor_dir / "obs.sidecar.json").unlink(missing_ok=True)
    else:
        (frontdoor_dir / "obs.sidecar.json").write_text(sidecar, encoding="utf-8")
    code = main(["sample", "--graph", str(frontdoor_dir / "fd.graph"), "--query", str(frontdoor_dir / "q.txt"),
                 "--data", str(frontdoor_dir / "obs.csv"), "--n", "5", "--out", str(frontdoor_dir / "out")])
    assert code in (0, 1, 2)


@st.composite
def datasets(draw):
    """1-4 columns, each of cardinality 2..70,000 or at a dtype boundary, 0-40 rows,
    any intervened subset."""
    boundaries = st.sampled_from([2, 256, 257, 65_536, 65_537, 70_000])
    cards = draw(st.lists(st.one_of(st.integers(2, 70_000), boundaries), min_size=1, max_size=4))
    names = [f"V{i}" for i in range(len(cards))]
    cells = st.tuples(*(st.integers(0, c - 1) for c in cards))
    rows = draw(st.lists(cells, max_size=40))
    intervened = draw(st.frozensets(st.sampled_from(names)))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), len(cards))
    return Dataset(tuple(Variable(n, c) for n, c in zip(names, cards)), rows, intervened)


@FUZZ
@given(d=datasets())
def test_csv_round_trip_with_sidecar(tmp_path, d):
    write_dataset_csv(d, tmp_path / "d.csv", tmp_path / "d.json")
    again = read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json")
    assert again.variables == d.variables
    assert again.intervened == d.intervened
    assert again.rows.dtype == d.rows.dtype and np.array_equal(again.rows, d.rows)
