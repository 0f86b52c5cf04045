from __future__ import annotations

import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from causalgen.engine import DatasetSource, SamplingNetwork, ancestral_sample, proposal_models
from causalgen import models
from causalgen.graphs import Admg, Variable
from causalgen.models import (
    CSV_CHUNK_BYTES,
    CSV_CHUNK_ROWS,
    CptModel,
    DRAW_CHUNK_ROWS,
    DataError,
    Dataset,
    ExactConditionalModel,
    draw_categorical,
    exact_conditional,
    fit_conditional,
    joint_index,
    read_dataset_csv,
    _fixed_width_rows,
    _read_sidecar,
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

    @pytest.mark.parametrize("rows", [np.array([[0.5, 1.0], [1.0, 0.0]]), np.array([[True, False]])])
    def test_rejects_non_integer_rows(self, rows):
        # narrowing would truncate 0.5 to 0 without a word
        with pytest.raises(DataError, match="integers"):
            Dataset((Variable("A", 2), Variable("B", 2)), rows)

    @pytest.mark.parametrize(
        "value, card, dtype",
        [
            (-1, 256, np.int64),  # would wrap to 255, a legal state, if narrowed first
            (-1, 2, np.int8),
            (255, 255, np.uint8),  # the cardinality itself, under uint8
            (300, 300, np.uint16),  # and under uint16
            (70_000, 70_000, np.uint32),
        ],
    )
    def test_validates_before_narrowing(self, value, card, dtype):
        rows = np.zeros((5, 2), dtype=dtype)
        rows[3, 1] = value
        with pytest.raises(DataError, match="outside"):
            Dataset((Variable("A", 2), Variable("B", card)), rows)
        with pytest.raises(DataError, match="outside"):  # a block already in the storage layout
            Dataset((Variable("A", 2), Variable("B", card)), np.asfortranarray(rows))

    @pytest.mark.parametrize("cards, dtype", [((2, 2), np.uint8), ((2, 256), np.uint8), ((300, 2), np.uint16),
                                              ((2, 70_000), np.uint32)])
    def test_stores_columns_contiguously_in_the_smallest_unsigned_dtype(self, cards, dtype):
        rows = np.array([[c - 1 for c in cards], [0] * len(cards)], dtype=np.int64)
        d = Dataset(tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), rows)
        assert d.rows.dtype == dtype and d.rows.flags.f_contiguous
        assert np.array_equal(d.rows, rows)
        assert all(d.column(v.name).flags.c_contiguous for v in d.variables)
        again = Dataset(d.variables, d.rows)
        assert again.rows is d.rows  # a block in the storage layout is not copied

    def test_rows_are_read_only(self):
        # the joint counts a dataset keeps would go stale under a write
        rows = np.asfortranarray(np.zeros((4, 2), dtype=np.uint8))
        d = Dataset((Variable("A", 2), Variable("B", 2)), rows)
        with pytest.raises(ValueError, match="read-only"):
            d.rows[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            d.column("B")[:] = 1
        assert rows.flags.writeable  # the producer's block is not changed


def counts_reference(d, names):
    """Joint counts as one `np.bincount` of the whole joint index."""
    cards = [d.variable(n).cardinality for n in names]
    index = joint_index([d.column(n) for n in names], cards, d.n)
    return np.bincount(index, minlength=math.prod(cards)).reshape(cards)


class TestCounts:
    @pytest.mark.parametrize("n", [0, 1, DRAW_CHUNK_ROWS - 1, DRAW_CHUNK_ROWS, DRAW_CHUNK_ROWS + 1,
                                   2 * DRAW_CHUNK_ROWS + 3])
    @pytest.mark.parametrize("names", [[], ["B"], ["A", "C", "B"]])
    def test_matches_one_bincount_across_chunk_seams(self, n, names):
        variables = (Variable("A", 2), Variable("B", 3), Variable("C", 300))
        rows = np.column_stack([np.random.default_rng(n).integers(0, v.cardinality, size=n) for v in variables])
        d = Dataset(variables, rows.reshape(n, 3))
        got = d.counts(names)
        assert got.dtype == np.intp and got.sum() == n
        assert np.array_equal(got, counts_reference(d, names))

    def test_allocates_no_row_sized_temporary(self):
        # one bincount of the whole uint8 index made an n-row intp temporary, 8.6 MiB here
        d = Dataset(tuple(Variable(f"V{i}", 2) for i in range(4)),
                    np.random.default_rng(1).integers(0, 2, size=(1_000_000, 4)))
        tracemalloc.start()
        try:
            d.counts(["V0", "V2", "V3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_sums_over_the_kept_joint(self):
        variables = (Variable("A", 2), Variable("B", 3), Variable("C", 4))
        d = Dataset(variables, np.random.default_rng(3).integers(0, [2, 3, 4], size=(1000, 3)))
        assert np.array_equal(d.counts(["B"]), counts_reference(d, ["B"]))
        assert d.__dict__["_joint_counts"] is not None  # the first call keeps the joint
        for r in range(len(d.names) + 1):  # [] among them
            for names in itertools.permutations(d.names, r):
                got = d.counts(list(names))
                assert got.dtype == np.intp and np.array_equal(got, counts_reference(d, names))
        for names in (["B", "A", "B"], ["C", "C"]):  # a repeated name is counted from the rows
            assert np.array_equal(d.counts(names), counts_reference(d, names))
        every = d.counts(list(d.names))
        every += 1  # a result the caller changes leaves the kept joint as it was
        assert np.array_equal(d.counts(list(d.names)), counts_reference(d, d.names))

    def test_counts_rows_past_the_rows_bytes(self):
        variables = (Variable("A", 2), Variable("B", 300), Variable("C", 300))
        d = Dataset(variables, np.random.default_rng(4).integers(0, [2, 300, 300], size=(1000, 3)))
        for names in (["C", "A"], ["C", "A"], ["B"], []):
            got = d.counts(names)
            assert got.dtype == np.intp and np.array_equal(got, counts_reference(d, names))
        assert d.__dict__["_joint_counts"] is None  # 180,000 cells, 1.44 MB against 6 kB of rows

    @pytest.mark.parametrize("n, kept", [(32, True), (31, False)])
    def test_keeps_the_joint_up_to_the_rows_bytes(self, n, kept):
        # 8 cells of 8 bytes against n rows of two uint8 columns
        d = Dataset((Variable("A", 2), Variable("B", 4)), np.random.default_rng(n).integers(0, [2, 4], size=(n, 2)))
        for names in (["B", "A"], ["A"]):
            assert np.array_equal(d.counts(names), counts_reference(d, names))
        assert (d.__dict__["_joint_counts"] is not None) is kept


def savetxt_reference(path, d):
    """The CSV `write_dataset_csv` wrote through `np.savetxt`, one format per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(d.names) + "\n")
        np.savetxt(fh, d.rows, fmt="%d", delimiter=",")


class TestCsvBytes:
    @pytest.mark.parametrize(
        "n, cards",
        [
            (1000, (2, 2, 2)),
            (1000, (11, 2)),
            (1000, (300, 11, 2)),
            (1000, (70_000, 2)),
            (0, (2, 300)),  # no rows
            (1000, (7,)),  # one column
            (CSV_CHUNK_ROWS * 2 + 17, (2, 300)),  # more rows than one chunk
            (1, (2, 3)),  # one row
            (CSV_CHUNK_ROWS - 1, (2, 11)),  # one row short of a chunk
            (CSV_CHUNK_ROWS + 1, (11, 2)),  # one row past a chunk
            (1000, (10, 11, 10)),  # one place, then two
            (1000, (10**18,)),  # 18 places, the reader's widest cell
        ],
    )
    def test_matches_savetxt_reference(self, tmp_path, n, cards):
        gen = np.random.default_rng(n + sum(cards))
        rows = np.column_stack([gen.integers(0, c, size=n) for c in cards])
        if n:
            rows[:2] = [[c - 1 for c in cards], [0] * len(cards)][:n]  # both ends of every range
        d = Dataset(tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), rows)
        write_dataset_csv(d, tmp_path / "fast.csv")
        savetxt_reference(tmp_path / "reference.csv", d)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("card", [10**18 + 1, 10**19])
    def test_refuses_a_state_the_reader_cannot_parse(self, tmp_path, card):
        # 10**18 has 19 digits, one more than `read_dataset_csv` parses
        d = Dataset((Variable("A", 2), Variable("B", card)), np.array([[1, 10**18]], dtype=np.uint64))
        with pytest.raises(DataError, match=r"d.csv: column B has cardinality \d+, but a CSV cell holds at most 18"):
            write_dataset_csv(d, tmp_path / "d.csv", tmp_path / "d.json")
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "d.json").exists()

    def test_memory_is_one_chunk_of_text(self, tmp_path):
        # the `%` writer's tuple of a chunk's values and its string took several MiB
        d = Dataset(tuple(Variable(f"V{i}", 2) for i in range(4)),
                    np.random.default_rng(2).integers(0, 2, size=(1_000_000, 4)))
        tracemalloc.start()
        try:
            write_dataset_csv(d, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (tmp_path / "d.csv").stat().st_size == len("V0,V1,V2,V3\n") + 8 * d.n


def loadtxt_reference(path, sidecar=None) -> Dataset:
    """The reader that parsed rows with `np.loadtxt` into an int64 block, which
    `Dataset` then narrowed; it accepted more than `write_dataset_csv` writes."""
    path = Path(path)
    with path.open(errors="replace") as fh:
        header = fh.readline().strip()
        if not header:
            raise DataError(f"{path}: empty csv")
        names = header.split(",")
        repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if repeated is not None:
            raise DataError(f"{path}: column {repeated!r} appears twice in the header")
        start = fh.tell()
        if not all(chunk.isascii() for chunk in iter(lambda: fh.read(1 << 20), "")):
            raise DataError(f"{path}: the rows hold non-ASCII characters")
        fh.seek(start)
        try:
            with warnings.catch_warnings():  # a csv without rows is handled below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, len(names))
    if rows.shape[1] != len(names):
        raise DataError(f"{path}: rows have {rows.shape[1]} fields, the header has {len(names)}")
    cards: dict[str, int] = {}
    intervened: frozenset[str] = frozenset()
    if sidecar is not None and Path(sidecar).exists():
        cards, intervened = _read_sidecar(Path(sidecar))
    variables = tuple(
        Variable(n, cards[n] if n in cards else max(2, int(rows[:, i].max()) + 1 if len(rows) else 2))
        for i, n in enumerate(names)
    )
    return Dataset(variables, rows, intervened)


def assert_same_dataset(d, ref):
    assert d.variables == ref.variables and d.intervened == ref.intervened
    assert d.rows.dtype == ref.rows.dtype and d.rows.flags.f_contiguous
    assert np.array_equal(d.rows, ref.rows)


def csv_variant(text: bytes, variant: str) -> bytes:
    """`write_dataset_csv`'s text with CRLF line ends, without its final newline,
    or with two leading zeros on every cell."""
    if variant == "crlf":
        return text.replace(b"\n", b"\r\n")
    if variant == "no final newline":
        return text.removesuffix(b"\n")
    if variant == "leading zeros":
        header, body = text.split(b"\n", 1)
        return b"\n".join([header] + [b"00" + line.replace(b",", b",00") for line in body.splitlines()]) + b"\n"
    return text


class TestCsvRead:
    @pytest.mark.parametrize("variant", ["lf", "crlf", "no final newline", "leading zeros"])
    @pytest.mark.parametrize(
        "n, cards",
        [
            (1000, (2, 2, 2)),
            (1000, (300, 11, 2)),
            (1000, (2, 70_000)),
            (0, (2, 300)),  # no rows
            (1, (7,)),  # one row, one column
            (CSV_CHUNK_ROWS // 2, (2, 256)),  # many chunks
            (CSV_CHUNK_BYTES // 6 - 1, (10, 2, 7)),  # one-digit cells: one row short of a fixed-width chunk
            (CSV_CHUNK_BYTES // 6 + 1, (10, 2, 7)),  # and one row past it
            (0, (10, 2, 7)),  # one-digit cells, no rows
        ],
    )
    def test_matches_loadtxt_reference(self, tmp_path, n, cards, variant):
        gen = np.random.default_rng(n + sum(cards))
        rows = np.column_stack([gen.integers(0, c, size=n) for c in cards])
        if n:
            rows[0] = [c - 1 for c in cards]
        d = Dataset(tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), rows, frozenset({"V0"}))
        write_dataset_csv(d, tmp_path / "d.csv", tmp_path / "d.json")
        (tmp_path / "d.csv").write_bytes(csv_variant((tmp_path / "d.csv").read_bytes(), variant))
        for sidecar in (tmp_path / "d.json", None):
            got = read_dataset_csv(tmp_path / "d.csv", sidecar)
            assert_same_dataset(got, loadtxt_reference(tmp_path / "d.csv", sidecar))
        assert_same_dataset(read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json"), d)

    @pytest.mark.parametrize("digits", [1, 18])
    def test_reads_up_to_eighteen_digits(self, tmp_path, digits):
        value = 10**digits - 1
        (tmp_path / "d.csv").write_text(f"A,B\n0,{value}\n1,0\n")
        d = read_dataset_csv(tmp_path / "d.csv")
        assert d.variable("B").cardinality == value + 1 and d.column("B").tolist() == [value, 0]

    def test_sidecar_bound_is_checked_before_narrowing(self, tmp_path):
        # 256 would wrap to 0 in the uint8 block that a cardinality of 3 selects
        (tmp_path / "d.csv").write_text("A,B\n0,1\n1,256\n")
        (tmp_path / "d.json").write_text(json.dumps({"cardinalities": {"A": 2, "B": 3}}))
        with pytest.raises(DataError, match=r"d.csv:3: column B holds 256, at or above its cardinality 3"):
            read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json")

    def test_memory_is_the_file_and_the_block(self, tmp_path):
        # no int64 matrix: the file's bytes, the narrowed block and one chunk's temporaries
        cards = (2, 2, 3, 2)
        gen = np.random.default_rng(0)
        rows = np.column_stack([gen.integers(0, c, size=300_000) for c in cards])
        d = Dataset(tuple(Variable(f"V{i}", c) for i, c in enumerate(cards)), rows)
        write_dataset_csv(d, tmp_path / "d.csv", tmp_path / "d.json")
        tracemalloc.start()
        try:
            read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "d.csv").stat().st_size + d.rows.nbytes + (2 << 20)

    @pytest.mark.parametrize(
        "row, message",
        [
            (b"0,,,4\n", "4 fields, the header has 3"),  # a comma in a digit slot
            (b"0,a,4\n", "character 'a'; a row holds only digits and commas"),
            (b"0,\xe9,4\n", "non-ASCII byte 0xe9; a row holds only digits and commas"),
            (b"0,1\n4,", "2 fields, the header has 3"),  # the row's last two separators swapped
            (b"0,3,4\n", "column B holds 3, at or above its cardinality 3"),
        ],
    )
    def test_fixed_width_faults_fall_back_to_the_general_refusal(self, tmp_path, row, message):
        # every row is 2k bytes, so the fixed-width layout is tried, and refused in the second chunk
        rows = CSV_CHUNK_BYTES // 6 + 5
        fault = CSV_CHUNK_BYTES // 6 + 2
        text = b"A,B,C\n" + b"1,2,9\n" * fault + row + b"0,0,0\n" * (rows - fault - 1)
        (tmp_path / "d.csv").write_bytes(text)
        (tmp_path / "d.json").write_text(json.dumps({"cardinalities": {"A": 2, "B": 3, "C": 10}}))
        # the general loop goes on from the refused chunk, after the rows of the first
        assert _fixed_width_rows(text, len(b"A,B,C\n"), [2, 3, 10], np.dtype(np.uint8))[1] == CSV_CHUNK_BYTES // 6
        with pytest.raises(DataError) as refusal:
            read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json")
        assert str(refusal.value) == f"{tmp_path / 'd.csv'}:{fault + 2}: {message}"

    def test_multi_digit_cells_after_a_fixed_width_chunk(self, tmp_path):
        # six 7-byte rows make the length a multiple of 2k again, with one row fewer than it implies
        first = CSV_CHUNK_BYTES // 6
        text = b"A,B,C\n" + b"1,2,9\n" * first + b"12,0,3\n" * 6 + b"0,1,2\n" * 3
        assert (len(text) - len(b"A,B,C\n")) % 6 == 0
        assert _fixed_width_rows(text, len(b"A,B,C\n"), [None] * 3, np.dtype(np.int64))[1] == first
        (tmp_path / "d.csv").write_bytes(text)
        d = read_dataset_csv(tmp_path / "d.csv")
        assert d.rows.flags.f_contiguous and d.variable("A").cardinality == 13
        assert np.array_equal(d.rows, [[1, 2, 9]] * first + [[12, 0, 3]] * 6 + [[0, 1, 2]] * 3)
        assert_same_dataset(d, loadtxt_reference(tmp_path / "d.csv", None))


def smallest_unsigned(variables):
    return np.min_scalar_type(max(v.cardinality for v in variables) - 1)


def assert_storage_layout(d):
    assert d.rows.flags.f_contiguous, "rows are not column-major"
    assert d.rows.dtype == smallest_unsigned(d.variables)


class TestProducersReturnStorageLayout:
    """Every producer of datasets hands back column-major rows in the smallest
    unsigned dtype; a 300-state S makes that uint16."""

    @pytest.fixture
    def graph(self):
        return Admg([Variable("X", 3), Variable("S", 300), Variable("R", 2)], [("X", "S"), ("S", "R")], [("X", "R")])

    @pytest.fixture
    def data(self, graph):
        return sample_observational(noisy_copy_scm(graph), 5000, np.random.default_rng(0))

    def test_sample_observational(self, data):
        assert_storage_layout(data)
        assert data.rows.dtype == np.uint16

    def test_read_dataset_csv(self, tmp_path, data):
        write_dataset_csv(data, tmp_path / "d.csv", tmp_path / "d.json")
        assert_storage_layout(read_dataset_csv(tmp_path / "d.csv", tmp_path / "d.json"))
        assert_storage_layout(read_dataset_csv(tmp_path / "d.csv"))  # cardinalities inferred
        assert_storage_layout(data.restrict(["X", "R"]))
        assert data.restrict(["X", "R"]).rows.dtype == np.uint8

    @pytest.mark.parametrize("workers", [1, 3])
    def test_ancestral_sample(self, graph, data, workers):
        source = DatasetSource(data)
        h = SamplingNetwork(
            {v.name: v for v in graph.variables},
            {"X": None, "S": source.fit("S", ["X"]), "R": source.fit("R", ["S"])},
            tuple(graph.topological_order()),
        )
        d = ancestral_sample(h, {"X": 2}, 1001, np.random.default_rng(1), workers=workers)
        assert_storage_layout(d)
        assert np.all(d.column("X") == 2)

    @pytest.mark.parametrize("anchors", [(), ("X",)])
    def test_dataset_source_regenerate(self, graph, data, anchors):
        source = DatasetSource(data)
        proposal = proposal_models("uniform", [n for n in ("X",) if n not in anchors], graph, source)
        inner = SamplingNetwork(
            {v.name: v for v in graph.variables},
            {"X": None, **proposal, "S": source.fit("S", ["X"]), "R": source.fit("R", ["S"])},
            tuple(graph.topological_order()),
        )
        regenerated = source.regenerate(inner, 1.5, np.random.default_rng(2))
        assert_storage_layout(regenerated.dataset)
        assert regenerated.dataset.n == 7500
        if anchors:  # a placeholder no model draws cycles through the current rows
            assert np.array_equal(regenerated.dataset.column("X"), np.resize(data.column("X"), 7500))


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
        with pytest.raises(DataError):
            m.sample_n({}, 3, np.random.default_rng(0))


def gather_reference(table, rows, rng):
    """Inverse CDF by comparing the uniform with every threshold of its row,
    ceil(cumulative probability * 2^31), as the binary search must: the
    uniforms are the 31-bit little-endian halves of `rng.integers` 64-bit
    words, each shifted right by one bit, compared a block of rows at a time to
    bound memory."""
    thresholds = np.ceil(np.cumsum(table, axis=1) * 2.0**31)
    words = rng.integers(0, 1 << 64, (len(rows) + 1) // 2, dtype=np.uint64)
    u = (words.astype("<u8").view("<u4")[: len(rows)] >> 1).astype(np.int64)
    blocks = range(0, len(rows), 10_000)
    counts = np.concatenate(
        [(u[i : i + 10_000, None] >= thresholds[rows[i : i + 10_000]]).sum(axis=1) for i in blocks])
    return np.clip(counts, 0, table.shape[1] - 1)


class TestDrawCategorical:
    # a one-state noise is legal in an SCM file; 300 states search 9 levels deep
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 17, 300])
    @pytest.mark.parametrize("contexts", [1, 12])
    def test_matches_gather_reference(self, k, contexts):
        gen = np.random.default_rng(100 * k + contexts)
        table = gen.dirichlet(np.ones(k), size=contexts)
        table[:, 1::4] = 0.0  # states that must never be drawn
        table /= table.sum(axis=1, keepdims=True)
        # 20,000 rows fit one chunk; the others end on a chunk seam, or cross two
        for n in (20_000, DRAW_CHUNK_ROWS, 2 * DRAW_CHUNK_ROWS + 3):
            rows = gen.integers(0, contexts, size=n)
            expected = gather_reference(table, rows, np.random.default_rng(7))
            drawn = draw_categorical(table, [rows], n, np.random.default_rng(7))
            assert drawn.dtype == np.min_scalar_type(k - 1)
            assert np.array_equal(drawn, expected), n

    @pytest.mark.parametrize("k", [2, 3, 5, 257])
    @pytest.mark.parametrize("word", [0, 2**64 - 1], ids=["zeros", "ones"])
    def test_extreme_words_draw_only_positive_states(self, k, word):
        # words of all zeros or all ones give the uniforms 0 and 2^31 - 1, the
        # ends that a first or a last state of probability 0 must not catch
        class Words:
            def integers(self, low, high, size, dtype):
                return np.full(size, word, dtype=dtype)

        table = np.random.default_rng(k).dirichlet(np.ones(k), size=3)
        table[0, 0] = table[1, -1] = 0.0
        if k > 2:
            table[2, [0, -1]] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        rows = np.arange(1000) % 3
        drawn = draw_categorical(table, [rows], 1000, Words())
        assert (drawn < k).all()
        assert (table[rows, drawn] > 0).all()

    @pytest.mark.parametrize("k", [2, 3, 17])
    def test_draws_do_not_depend_on_the_chunk_size(self, k, monkeypatch):
        gen = np.random.default_rng(k)
        table = gen.dirichlet(np.ones(k), size=6).reshape(2, 3, k)
        n = 3 * DRAW_CHUNK_ROWS + 5  # an odd last chunk discards the second half of its last word
        context = [gen.integers(0, 2, n), gen.integers(0, 3, n)]
        expected = draw_categorical(table, context, n, np.random.default_rng(7))
        monkeypatch.setattr(models, "DRAW_CHUNK_ROWS", 4096)
        assert np.array_equal(draw_categorical(table, context, n, np.random.default_rng(7)), expected)

    def test_allocates_no_row_sized_temporary(self):
        # an int64 temporary of the rows alone would take 8 MB
        gen = np.random.default_rng(3)
        table = gen.dirichlet(np.ones(3), size=12)
        context = [gen.integers(0, 12, size=1_000_000).astype(np.uint8)]
        tracemalloc.start()
        try:
            drawn = draw_categorical(table, context, 1_000_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drawn.nbytes == 1_000_000
        assert peak <= drawn.nbytes + (4 << 20)

    @pytest.mark.parametrize("k", [2, 3, 5, 257])
    @pytest.mark.parametrize("n", [DRAW_CHUNK_ROWS - 1, DRAW_CHUNK_ROWS + 1])
    def test_draws_into_out(self, k, n):
        gen = np.random.default_rng(k)
        table = gen.dirichlet(np.ones(k), size=3)
        context = [gen.integers(0, 3, size=n)]
        expected = draw_categorical(table, context, n, np.random.default_rng(7))
        # a column of a block in the drawn dtype, and of a wider one
        for dtype in (expected.dtype, np.uint32):
            block = np.zeros((n, 3), dtype=dtype, order="F")
            drawn = draw_categorical(table, context, n, np.random.default_rng(7), out=block[:, 1])
            assert np.shares_memory(drawn, block) and np.array_equal(block[:, 1], expected)
            assert not block[:, [0, 2]].any()
        model = CptModel(Variable("T", k), (Variable("C", 3),), table)
        column = np.empty(n, dtype=np.uint32)
        assert model.sample_n({"C": context[0]}, n, np.random.default_rng(7), out=column) is column
        assert np.array_equal(column, expected)


class TestJointIndex:
    # each cardinality alone and beside others, in every column dtype that holds its states
    @pytest.mark.parametrize(
        "card, dtype",
        [(card, dtype) for card in (2, 3, 255, 256, 257, 70_000) for dtype in (np.uint8, np.uint16, np.int64)
         if card - 1 <= np.iinfo(dtype).max],
    )
    def test_matches_ravel_multi_index(self, card, dtype):
        gen = np.random.default_rng(card)
        for cards in [(card,), (card, 3), (3, card), (2, card, 3)]:
            columns = [gen.integers(0, k, size=1000).astype(dtype) for k in cards]
            columns[0][:2] = 0, cards[0] - 1  # both ends of a column
            index = joint_index(columns, cards, 1000)
            cells = int(np.prod(cards))
            assert index.dtype == np.min_scalar_type(cells - 1), cards
            assert np.array_equal(index, np.ravel_multi_index(columns, cards)), cards

    @pytest.mark.parametrize(
        "cards, dtype",
        [
            ((256,), np.uint8),
            ((16, 16), np.uint8),
            ((257,), np.uint16),
            ((2, 128), np.uint8),  # the last factor is half the cells
            ((3, 85), np.uint8),  # 255 cells, not a power of two
            ((256, 256), np.uint16),
            ((65_536,), np.uint16),
            ((2, 32_768), np.uint16),
            ((65_537,), np.uint32),
            ((2**16, 2**16), np.uint32),
            ((2**16, 2**16, 2), np.intp),  # past 32 bits, the index is intp
        ],
    )
    def test_dtype_seams(self, cards, dtype):
        gen = np.random.default_rng(len(cards))
        columns = [gen.integers(0, k, size=4000, dtype=np.int64) for k in cards]
        for col, k in zip(columns, cards):
            col[:2] = 0, k - 1
        index = joint_index(columns, cards, 4000)
        assert index.dtype == dtype
        assert np.array_equal(index, np.ravel_multi_index(columns, cards))

    def test_no_columns_and_no_rows(self):
        assert np.array_equal(joint_index([], [], 5), np.zeros(5))
        empty = joint_index([np.zeros(0, np.uint8), np.zeros(0, np.int64)], [2, 300], 0)
        assert empty.shape == (0,) and empty.dtype == np.uint16

    @pytest.mark.parametrize("cards", [(2**32, 2**32), (2**63 + 1,), (2,) * 64])
    def test_refuses_a_joint_past_the_index_range(self, cards):
        # min_scalar_type(2**64 - 1) is uint64, but numpy indexes with intp; one cell past it is an object dtype
        columns = [np.zeros(3, np.uint8) for _ in cards]
        with pytest.raises(MemoryError, match="Unable to allocate"):
            joint_index(columns, cards, 3)


class TestContextRefusals:
    def model(self):
        return CptModel(Variable("Y", 2), (Variable("X", 2), Variable("Z", 3)), np.full((2, 3, 2), 0.5))

    @pytest.mark.parametrize(
        "column, values",
        [("X", [0, -1]), ("X", [2, 0]), ("Z", [3, 1]), ("Z", [-5, 0]), ("Z", [2**40, 0])],
    )
    def test_sample_n_names_the_column(self, column, values):
        ctx = {"X": np.array([0, 1]), "Z": np.array([2, 0])}
        ctx[column] = np.array(values, dtype=np.int64)
        with pytest.raises(DataError, match=f"column {column} has values outside"):
            self.model().sample_n(ctx, 2, np.random.default_rng(0))

    def test_sample_n_refuses_an_unsigned_column_at_its_cardinality(self):
        ctx = {"X": np.array([1, 2], dtype=np.uint8), "Z": np.array([2, 0], dtype=np.uint8)}
        with pytest.raises(DataError, match=r"column X has values outside \[0, 2\)"):
            self.model().sample_n(ctx, 2, np.random.default_rng(0))

    def test_sample_n_refuses_a_column_of_floats(self):
        ctx = {"X": np.array([0.0, 1.0]), "Z": np.array([2, 0])}
        with pytest.raises(DataError, match="column X must hold integers"):
            self.model().sample_n(ctx, 2, np.random.default_rng(0))

    def test_in_range_columns_draw(self):
        ctx = {"X": np.array([1, 0], dtype=np.uint8), "Z": np.array([2, 0], dtype=np.int64)}
        assert self.model().sample_n(ctx, 2, np.random.default_rng(0)).shape == (2,)


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
        for model in (CptModel, ExactConditionalModel):
            with pytest.raises(DataError):
                model(Variable("Y", 2), (Variable("X", 2),), table)

    def test_a_zero_entry_is_refused_by_a_cpt_alone(self):
        table = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(DataError, match="strictly positive"):
            CptModel(Variable("Y", 2), (Variable("X", 2),), table)
        ExactConditionalModel(Variable("Y", 2), (Variable("X", 2),), table)  # which an exact model takes

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
