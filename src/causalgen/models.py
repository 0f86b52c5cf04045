"""Discrete datasets and the conditional-sampler abstraction.

A dataset stores its rows column-major (Fortran order) in the smallest
unsigned dtype that holds every cardinality, uint8 for binary data, so a
column is one contiguous array. `Dataset` validates the array it is given
(integer dtype, every value within its column's cardinality) before it
narrows it; producers allocate that layout with `empty_rows` and fill it in
place.

The CSV format is a header line of comma-separated names, then one line per
row of comma-separated decimal integers (`%d`), with an optional JSON sidecar
of cardinalities and intervened columns. Both directions work on bytes with
numpy arithmetic, a chunk at a time: the writer formats each chunk's digits
into one reused block of bytes, and refuses a column whose cardinality is
past 10**18, whose states would need more digits than a cell may hold. A
text whose cells all have one digit has rows of 2k bytes, and the reader
reads it as byte pairs, the row count given by its length; any other text
takes the general path, which finds the cells between the non-digit bytes.
The reader accepts exactly what `write_dataset_csv` writes, plus CRLF line ends
and a missing final newline: a row is cells of 1-18 ASCII digits (leading
zeros allowed), separated by commas and ended by a newline, as many cells as
the header has names. It refuses, naming the line, spaces around a cell, a
sign, `#` comments, blank lines, a lone carriage return, non-ASCII bytes, a
wrong field count, an empty or longer cell, and a value at or above its
sidecar cardinality. The header may hold no carriage return but its CRLF
line end; it is decoded as UTF-8 (undecodable bytes replaced) and stripped.

A dataset's rows are read-only, and its first count counts the joint of
every column and keeps it, while those counts take no more bytes than the
rows, so every fit of a build sums over one table instead of recounting the
rows.

A conditional model is a table: one target variable's distribution for each
full assignment of its context. `engine.network_law`, the ancestral draw and
the manifest all read that table. It comes as a Laplace-smoothed CPT fitted
from data (strictly positive) or as an exact conditional of a known law
(non-negative).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .estimands import DistTable, contract
from .graphs import GraphError, Variable


class DataError(ValueError):
    """Malformed dataset or model input."""


# -- datasets -----------------------------------------------------------------


def row_dtype(variables: Iterable[Variable]) -> np.dtype:
    """The smallest unsigned dtype that holds every state of `variables`."""
    dtype = np.min_scalar_type(max((v.cardinality for v in variables), default=1) - 1)
    if dtype.kind != "u":
        raise DataError("a cardinality exceeds the 64-bit range")
    return dtype


_INTP_MAX = int(np.iinfo(np.intp).max)  # looked up once: `np.iinfo` costs microseconds a call


def check_address_space(size: int, what: str) -> None:
    """Refuse a block of `size` bytes, or an index as large as `size`, that
    intp cannot address, as a MemoryError like numpy's past memory (numpy
    itself would fail with a ValueError)."""
    if size > _INTP_MAX:
        raise MemoryError(f"Unable to allocate {what}")


def empty_rows(variables: Sequence[Variable], n: int) -> np.ndarray:
    """An uninitialised (n, variables) block in `Dataset`'s storage layout; past
    the address space, a MemoryError."""
    dtype = row_dtype(variables)
    check_address_space(n * len(variables) * dtype.itemsize, f"{n} rows of {len(variables)} variables")
    return np.empty((n, len(variables)), dtype=dtype, order="F")


def _check_states(v: Variable, col: np.ndarray) -> None:
    """Refuse a column of `v` that is not integers or holds a value outside
    [0, cardinality). The extremes are read through argmax and argmin, whose
    set-up costs a third of a reduction's on a short column."""
    kind = col.dtype.kind
    if kind not in "iu":
        raise DataError(f"column {v.name} must hold integers, not {col.dtype}")
    if len(col) and (col.item(col.argmax()) >= v.cardinality or (kind == "i" and col.item(col.argmin()) < 0)):
        raise DataError(f"column {v.name} has values outside [0, {v.cardinality})")


@dataclass(frozen=True)
class Dataset:
    """Tabular discrete samples; `intervened` marks columns whose values were
    forced by an intervention rather than observed.

    `rows` may be any 2-D integer array. It is validated as given, so a negative
    value is caught before narrowing could wrap it, and then stored column-major
    in `row_dtype(variables)`; a block already in that layout (see `empty_rows`)
    is kept as it is, and validating it costs one contiguous max per column.
    The stored rows are a read-only view, so the counts a dataset keeps (see
    `counts`) cannot go stale; a producer fills its block before it builds
    the dataset."""

    variables: tuple[Variable, ...]
    rows: np.ndarray
    intervened: frozenset[str] = frozenset()

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.variables):
            raise DataError(f"rows shape {rows.shape} does not match {len(self.variables)} variables")
        if rows.dtype.kind not in "iu":
            raise DataError(f"rows must hold integers, not {rows.dtype}")
        for i, v in enumerate(self.variables):
            _check_states(v, rows[:, i])
        unknown = self.intervened - {v.name for v in self.variables}
        if unknown:
            raise DataError(f"intervened columns {sorted(unknown)} are not dataset variables")
        rows = np.asarray(rows, dtype=row_dtype(self.variables), order="F")
        if rows.flags.writeable:
            rows = rows.view()
            rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @functools.cached_property  # every `column` lookup reads it
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise DataError(f"unknown variable {name!r}")

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.names.index(name)]

    def counts(self, names: Sequence[str]) -> np.ndarray:
        """Joint counts of the named columns, shaped by their cardinalities.
        Distinct names are a sum over the kept counts of every column (see
        `_joint_counts`), transposed to their order, exactly, since the counts
        are integers; a repeated name, or a joint past that bound, is counted
        from the rows."""
        cards = [self.variable(n).cardinality for n in names]  # an unknown name is refused here
        if self._joint_counts is not None and len(set(names)) == len(names):
            axes = [self.names.index(n) for n in names]
            summed = self._joint_counts.sum(axis=tuple(i for i in range(len(self.names)) if i not in axes))
            kept = sorted(axes)  # the summed table's axes
            return np.asarray(summed).transpose([kept.index(a) for a in axes])  # a scalar when all are summed
        return self._count(names, cards)

    @functools.cached_property
    def _joint_counts(self) -> np.ndarray | None:
        """The counts of every column, counted on the first `counts` call and
        kept while their intp cells take no more bytes than the rows, or else
        None. Up to that bound a sum over them costs less than counting the
        rows again, and the kept table never outweighs the rows it summarizes:
        on a 2-vCPU host, two of three columns of 20,000 rows sum in 30 us
        from a joint of 4.4 times the rows' bytes against 47 us to recount,
        and recounting first wins at 35 times."""
        cards = [v.cardinality for v in self.variables]
        if math.prod(cards) * np.dtype(np.intp).itemsize > self.rows.nbytes:
            return None
        return self._count(self.names, cards)

    def _count(self, names: Sequence[str], cards: list[int]) -> np.ndarray:
        """Counted `DRAW_CHUNK_ROWS` rows at a time, since `np.bincount` casts
        its narrow index to intp."""
        cells = math.prod(cards)
        check_address_space(cells * np.dtype(np.intp).itemsize, f"counts of {cells} cells")
        columns = [self.column(n) for n in names]
        counts = np.zeros(cells, dtype=np.intp)
        for start in range(0, self.n, DRAW_CHUNK_ROWS):
            stop = min(start + DRAW_CHUNK_ROWS, self.n)
            counts += np.bincount(joint_index([c[start:stop] for c in columns], cards, stop - start), minlength=cells)
        return counts.reshape(cards)

    def restrict(self, keep: Iterable[str]) -> Dataset:
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise DataError(f"unknown variables {sorted(unknown)}")
        idx = [i for i, v in enumerate(self.variables) if v.name in keep]
        return Dataset(
            tuple(self.variables[i] for i in idx),
            self.rows[:, idx],
            self.intervened & keep,
        )


CSV_CHUNK_ROWS = 1 << 16  # bounds the temporary values and text of one write
CSV_CHUNK_BYTES = 1 << 16  # bounds the temporary arrays of one read
CSV_MAX_DIGITS = 18  # every 18-digit cell fits int64
DRAW_CHUNK_ROWS = 1 << 16  # bounds the temporary uniforms and indices of one draw or count; even
_HALF_WORD = 1 << 31  # a draw's uniform is a 31-bit half of a random word


def write_dataset_csv(d: Dataset, path: str | Path, sidecar: str | Path | None = None):
    """The header of names in UTF-8, then one line of decimal values per row:
    the bytes of `np.savetxt(fmt="%d", delimiter=",")`, formatted by numpy
    arithmetic a chunk of rows at a time, the mirror of the reader. A column
    whose largest state has more digits than the reader parses is refused
    before the file is opened.

    A chunk is one reused (rows, Σ(places + 1)) block of bytes: each column
    has as many digit places as its largest state, then a separator slot that
    holds its comma, or the row's newline, from the start. Place q of a value
    is `(value // 10**q) % 10` as an ASCII digit, or byte 0 where the value
    has fewer than q + 1 digits; when some column has more than one place,
    one compress per chunk drops those 0 bytes before the block is written."""
    path = Path(path)
    wide = next((v for v in d.variables if v.cardinality > 10**CSV_MAX_DIGITS), None)
    if wide is not None:
        raise DataError(f"{path}: column {wide.name} has cardinality {wide.cardinality}, "
                        f"but a CSV cell holds at most {CSV_MAX_DIGITS} digits")
    places = [len(str(v.cardinality - 1)) for v in d.variables]
    ends = np.cumsum([p + 1 for p in places]) - 1  # each column's separator slot
    # a row of no columns is a bare newline, as `np.savetxt` writes it
    text = np.full((min(d.n, CSV_CHUNK_ROWS), max(1, sum(places) + len(places))), ord(","), dtype=np.uint8)
    text[:, -1] = ord("\n")
    with path.open("wb") as fh:
        fh.write((",".join(d.names) + "\n").encode())
        for start in range(0, d.n, CSV_CHUNK_ROWS):
            chunk = d.rows[start : start + CSV_CHUNK_ROWS]
            block = text[: len(chunk)]
            for j, (end, p) in enumerate(zip(ends, places)):
                col = chunk[:, j]
                for q in range(p):
                    high = col // 10**q if q else col
                    # the leading place's `high` is already below 10
                    digit = (high % 10 if q < p - 1 else high) + ord("0")
                    if q:
                        digit *= high > 0
                    block[:, end - 1 - q] = digit
            if max(places, default=1) > 1:
                block = block.ravel()
                block = block[block != 0]
            fh.write(block)
    if sidecar is not None:
        meta = {
            "cardinalities": {v.name: v.cardinality for v in d.variables},
            "intervened": sorted(d.intervened),
        }
        Path(sidecar).write_text(json.dumps(meta, sort_keys=True) + "\n")


def read_dataset_csv(path: str | Path, sidecar: str | Path | None = None) -> Dataset:
    """Read what `write_dataset_csv` writes, also with CRLF line ends or without
    the final newline. The rows are parsed from the file's bytes by numpy
    arithmetic, one row-aligned chunk at a time, straight into the dataset's
    column-major block; a malformed row is reported by its line number."""
    path = Path(path)
    raw = path.read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")  # a lone carriage return stays, and is refused
    if not raw.endswith(b"\n"):
        raw += b"\n"
    start = raw.find(b"\n") + 1
    if b"\r" in raw[:start]:
        raise DataError(f"{path}:1: a carriage return inside the header")
    header = raw[:start].decode(errors="replace").strip()
    if not header:
        raise DataError(f"{path}: empty csv")
    names = header.split(",")
    repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if repeated is not None:
        raise DataError(f"{path}: column {repeated!r} appears twice in the header")
    cards: dict[str, int] = {}
    intervened: frozenset[str] = frozenset()
    if sidecar is not None and Path(sidecar).exists():
        cards, intervened = _read_sidecar(Path(sidecar))
    known = [cards.get(n) for n in names]
    # with every cardinality known the block is narrowed as it is filled; else Dataset narrows it
    dtype = np.dtype(np.int64) if None in known else row_dtype(_variables(path, names, known))
    rows = _parse_rows(path, raw, start, names, known, dtype)
    if None in known:  # the cardinalities the sidecar leaves out are inferred from the rows
        top = rows.max(axis=0, initial=0)
        known = [c if c is not None else max(2, int(t) + 1) for c, t in zip(known, top)]
    return Dataset(_variables(path, names, known), rows, intervened)


def _parse_rows(path: Path, raw: bytes, start: int, names: list[str], cards: list[int | None],
                dtype: np.dtype) -> np.ndarray:
    """The rows of `raw[start:]`, which ends with a newline, in an (n, k)
    column-major block of `dtype`. `_fixed_width_rows` reads the leading
    rows whose cells all have one digit; the general loop below goes on from
    the first chunk that path refuses, so only that chunk is read twice.
    There a chunk is checked whole before any of it is written, so a value
    at or above its column's sidecar cardinality cannot wrap in the narrowed
    block; `_row_fault` words the refusal."""
    k = len(names)
    rows, row = _fixed_width_rows(raw, start, cards, dtype)
    start += 2 * k * row
    if start == len(raw):
        return rows
    n = row + raw.count(b"\n", start)
    if len(rows) != n:  # the rest has other row lengths than the fixed width's
        block = np.empty((n, k), dtype, order="F")
        block[:row] = rows[:row]
        rows = block
    # each column's bound, repeated for the most cells a chunk can hold
    bound = np.array([10**CSV_MAX_DIGITS if c is None else min(c, 10**CSV_MAX_DIGITS) for c in cards])
    bound = np.tile(bound, CSV_CHUNK_BYTES // (2 * k) + 1)
    buf = np.frombuffer(raw, dtype=np.uint8)
    while start < len(raw):
        # the chunk ends at the last newline in its window, or else at the first after it
        stop = raw.rfind(b"\n", start, start + CSV_CHUNK_BYTES) + 1
        if stop <= start:
            stop = raw.find(b"\n", start + CSV_CHUNK_BYTES) + 1
        values = _chunk_values(buf[start:stop], k)
        if values is None or (values >= bound[: len(values)]).any():
            raise DataError(f"{path}:{_row_fault(raw[start:stop], row + 2, names, cards)}")
        rows[row : row + len(values) // k] = values.reshape(-1, k)
        row += len(values) // k
        start = stop
    return rows


def _fixed_width_rows(raw: bytes, start: int, cards: list[int | None], dtype: np.dtype) -> tuple[np.ndarray, int]:
    """An (n, k) block for `raw[start:]` read as rows of k one-digit cells,
    2k bytes each, and how many of its leading rows were filled: all n, or
    the rows before the first chunk that breaks that layout; no rows when the
    length is not a multiple of 2k. The text is read as little-endian byte
    pairs, a cell's digit and then its separator, a row-aligned chunk at a
    time. Subtracting each pair's expected value, `separator * 256 +
    ord("0")`, leaves the cell's value only where the separator is the
    expected comma or newline and the byte a digit, and a wrapped 10 or more
    otherwise, so one comparison with the column's bound, `min(cardinality,
    10)`, checks the chunk whole. The values are then copied into the block
    column by column."""
    k = len(cards)
    if (len(raw) - start) % (2 * k):
        return np.empty((0, k), dtype, order="F"), 0
    pairs = np.frombuffer(raw, "<u2", offset=start)
    rows = np.empty((len(pairs) // k, k), dtype, order="F")
    step = max(1, CSV_CHUNK_BYTES // (2 * k)) * k  # the cells of a chunk of whole rows
    expected = np.tile(np.array([ord(",") << 8] * (k - 1) + [ord("\n") << 8], np.uint16) + ord("0"), step // k)
    bound = np.tile(np.array([10 if c is None else min(c, 10) for c in cards], np.uint16), step // k)
    values = np.empty(step, np.uint16)
    for first in range(0, len(pairs), step):
        chunk = pairs[first : first + step]
        cells = np.subtract(chunk, expected[: len(chunk)], out=values[: len(chunk)])
        if not (cells < bound[: len(chunk)]).all():
            return rows, first // k
        block = rows[first // k : (first + len(chunk)) // k]
        for j in range(k):
            block[:, j] = cells[j::k]
    return rows, len(rows)


def _chunk_values(chunk: np.ndarray, k: int) -> np.ndarray | None:
    """The values of a chunk of whole rows, cell after cell, or None when it
    breaks the grammar. Every byte that is not a digit is a separator, and the
    separators of a row must be k - 1 commas and a newline; a cell's value is
    its last digit plus ten times the one before, and so on, for as many
    passes as the widest cell has digits."""
    digits = chunk - np.uint8(ord("0"))
    seps = np.flatnonzero(digits >= 10)
    r = len(seps) // k
    # every k-th separator a newline, and all the others commas
    if len(seps) != r * k or not (chunk[seps[k - 1 :: k]] == ord("\n")).all():
        return None
    if np.count_nonzero(chunk == ord(",")) != r * (k - 1):
        return None
    gap = np.empty_like(seps)  # a cell's digits plus its separator
    gap[0] = seps[0] + 1
    np.subtract(seps[1:], seps[:-1], out=gap[1:])
    widest = int(gap.max()) - 1
    if gap.min() < 2 or widest > CSV_MAX_DIGITS:
        return None
    values = digits[seps - 1]
    for p in range(1, widest):
        # a cell of p digits or fewer adds 0; its index stays inside the chunk
        values = values + digits[seps - 1 - p] * (gap > p + 1) * np.int64(10**p)
    return values


def _row_fault(text: bytes, first_line: int, names: list[str], cards: list[int | None]) -> str:
    """`lineno: what is wrong` for the first row of `text` that `_chunk_values`
    refuses; found line by line, so only the error path counts lines."""
    for lineno, line in enumerate(text.removesuffix(b"\n").split(b"\n"), first_line):
        if not line:
            return f"{lineno}: a blank line"
        bad = line.translate(None, b"0123456789,")
        if bad:
            what = f"non-ASCII byte 0x{bad[0]:02x}" if bad[0] >= 0x80 else f"character {chr(bad[0])!r}"
            return f"{lineno}: {what}; a row holds only digits and commas"
        cells = line.split(b",")
        if len(cells) != len(names):
            return f"{lineno}: {len(cells)} fields, the header has {len(names)}"
        for name, cell, card in zip(names, cells, cards):
            if not cell:
                return f"{lineno}: column {name} is empty"
            if len(cell) > CSV_MAX_DIGITS:
                return f"{lineno}: column {name} has {len(cell)} digits, more than {CSV_MAX_DIGITS}"
            if card is not None and int(cell) >= card:
                return f"{lineno}: column {name} holds {int(cell)}, at or above its cardinality {card}"
    raise AssertionError("a refused chunk without a faulty row")


def _variables(path: Path, names: Sequence[str], cards: Sequence[int]) -> tuple[Variable, ...]:
    try:
        return tuple(Variable(n, c) for n, c in zip(names, cards))
    except GraphError as exc:  # a header name or sidecar cardinality Variable refuses
        raise DataError(f"{path}: {exc}") from None


def _read_sidecar(path: Path) -> tuple[dict[str, int], frozenset[str]]:
    """The cardinalities and intervened columns `write_dataset_csv` records."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise DataError(f"{path}: {exc}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{path}: expected a JSON object")
    cards, intervened = meta.get("cardinalities", {}), meta.get("intervened", [])
    if not isinstance(cards, dict) or any(type(v) is not int for v in cards.values()):
        raise DataError(f"{path}: cardinalities must map names to integers")
    if not isinstance(intervened, list) or any(not isinstance(n, str) for n in intervened):
        raise DataError(f"{path}: intervened must be a list of names")
    return cards, frozenset(intervened)


# -- conditional models ---------------------------------------------------------


@dataclass(frozen=True)
class ConditionalModel:
    """A conditional probability table: the law of one target variable given a
    full assignment of its context. `table` has shape (context
    cardinalities..., target cardinality) and its last axis sums to one, which
    the constructor checks. Build one through a subclass, which adds its sign
    check and names its `kind` in the manifest.
    """

    target: Variable
    context: tuple[Variable, ...]
    table: np.ndarray

    kind: ClassVar[str]

    def __post_init__(self):
        expected = tuple(v.cardinality for v in self.context) + (self.target.cardinality,)
        if self.table.shape != expected:
            raise DataError(f"table shape {self.table.shape} != {expected}")
        # the negated test also rejects a NaN sum
        if not np.abs(self.table.sum(axis=-1) - 1.0).max() <= 1e-9:
            raise DataError("conditional rows must sum to 1")

    @property
    def context_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.context)

    def sample_n(self, ctx_cols: Mapping[str, np.ndarray], n: int, rng: np.random.Generator,
                 out: np.ndarray | None = None) -> np.ndarray:
        """n draws, row i given the i-th value of each context column, written
        into `out` when it is given (see `draw_categorical`); a column that is
        missing or leaves its cardinality is refused, once per call."""
        missing = [v.name for v in self.context if v.name not in ctx_cols]
        if missing:
            raise DataError(f"missing context columns {missing} for {self.target.name}")
        columns = [ctx_cols[v.name] for v in self.context]
        for v, col in zip(self.context, columns):
            _check_states(v, col)
        return draw_categorical(self.table, columns, n, rng, out)


class CptModel(ConditionalModel):
    """Conditional probability table fitted from data (Laplace-smoothed)."""

    kind = "cpt"

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.table <= 0):
            raise DataError("cpt rows must be strictly positive (smoothed)")


class ExactConditionalModel(ConditionalModel):
    """Conditional extracted exactly from a known joint table."""

    kind = "exact"

    def __post_init__(self):
        super().__post_init__()
        if (self.table < 0).any():
            raise DataError("conditional probabilities must be non-negative")


def joint_index(columns: Sequence[np.ndarray], cards: Sequence[int], n: int) -> np.ndarray:
    """Row-major flat index of n joint assignments, one column per variable,
    by Horner's rule, ((c0 * k1 + c1) * k2 + c2) ..., in place in one array of
    the narrowest unsigned dtype that holds every cell (uint8 up to 256 cells,
    intp past 2^32).
    Every column must lie within its cardinality: nothing here checks it.
    `Dataset` validates its columns, drawn states hold it by construction, and
    `ConditionalModel.sample_n` checks the columns it is given. Cardinalities
    are at least 2, as a `Variable`'s are, so every factor after the first is
    at most half the cells and fits the index's dtype. A joint past the index
    range is refused by `check_address_space`."""
    cells = math.prod(cards)
    check_address_space(cells - 1, f"an index into a joint of {cells} cells")
    return _ravel_into(np.empty(n, dtype=_unsigned((cells - 1).bit_length())), columns, cards)


def _ravel_into(index: np.ndarray, columns: Sequence[np.ndarray], cards: Sequence[int]) -> np.ndarray:
    """Write the row-major flat index of `columns` into `index` by Horner's
    rule, in place; each factor must fit `index`'s dtype."""
    if not columns:
        index[...] = 0
        return index
    np.copyto(index, columns[0], casting="unsafe")
    for col, card in zip(columns[1:], cards[1:]):
        index *= card
        np.add(index, col, out=index, casting="unsafe")
    return index


@functools.cache
def _unsigned(bits: int) -> np.dtype:
    """The narrowest unsigned dtype of at least `bits` bits, or past 32 bits
    the intp that `np.bincount` and a gather read without a cast; remembered,
    since `np.min_scalar_type` costs a tenth of a 256-row draw."""
    return np.min_scalar_type((1 << bits) - 1) if bits <= 32 else np.dtype(np.intp)


def draw_categorical(table: np.ndarray, context: Sequence[np.ndarray], n: int,
                     rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """One inverse-CDF draw for each of n rows, from the row of `table`, shaped
    (context cardinalities..., states), that the row's `context` columns pick:
    how many of that row's thresholds, the last state's excluded, a 31-bit
    uniform U reaches, found by a branchless binary search in log2(k) gathers
    per draw (comparing with every threshold would cost k). State j's
    threshold is ceil(c * 2^31), c the row's cumulative probability before j,
    so a zero-probability state is never drawn and each cumulative probability
    is drawn within 2^-31 of the table's; the search pads a row with 2^31,
    which U never reaches, so no state reaches k. The states are written into
    `out`, n entries of any unsigned dtype that holds k - 1, or else into a new
    array of the narrowest unsigned dtype, uint8 for k <= 256. Rows are drawn a
    chunk at a time, the search running in place on the chunk's slice of the
    result, so no temporary has n entries. A chunk of c draws reads
    ceil(c / 2) words of `rng.integers(0, 2^64, dtype=uint64)`, each split
    into its little-endian 32-bit halves and shifted right by one bit, so two
    draws share a word, the same on either byte order, and the draws do not
    depend on the (even) chunk size. A chunk's table rows are its context's
    joint index, by the Horner's rule of `joint_index` in that index's narrow
    dtype, cast once into a reused intp buffer; the context must lie within
    its cardinalities."""
    *cards, k = table.shape
    cells, width = math.prod(cards), 1 << (k - 1).bit_length()
    # row r holds its thresholds at r * width + 1 ..., padded with 2^31; slot 0 is unused.
    # Scaling by 2^31 before the sum is exact, so the floats are those of cumsum * 2^31.
    scaled = np.full((cells, width), float(_HALF_WORD))
    cum = np.multiply(table.reshape(cells, k)[:, :-1], float(_HALF_WORD), out=scaled[:, 1:k])
    if k > 2:
        np.add.accumulate(cum, axis=1, out=cum)
    thresholds = np.ceil(scaled, out=scaled).astype(np.uint32).ravel()
    dtype = _unsigned((width - 1).bit_length())
    # a dtype that holds k - 1 has its bits, so it holds every state of the search, up to width - 1
    states = np.empty(n, dtype=dtype) if out is None else out
    # the first level starts from state 0, so it reads slot width / 2 of each row (k = 1 reads slot 0, 2^31)
    first = np.ascontiguousarray(thresholds[width >> 1 :: width])  # one entry a row; a single one without a context
    chunk = min(n, DRAW_CHUNK_ROWS)
    if context:
        # the chunk's joint index (a lone column is its own), its intp copy that a
        # gather reads, and the gathered thresholds of the first level
        narrow = np.empty(chunk, dtype=_unsigned((cells - 1).bit_length()))
        rows, gathered = np.empty(chunk, dtype=np.intp), np.empty(chunk, dtype=np.uint32)
    if width > 2:
        probe = np.empty(chunk, dtype=np.intp)  # a flat index gathers twice as fast as a 2-D one
    row = 0  # without a context every draw reads row 0
    for start in range(0, n, DRAW_CHUNK_ROWS):
        stop = min(start + DRAW_CHUNK_ROWS, n)
        c = stop - start
        u = rng.integers(0, 1 << 64, (c + 1) >> 1, dtype=np.uint64).astype("<u8", copy=False).view("<u4")[:c]
        u >>= 1
        state = states[start:stop]
        if context:
            row = rows[:c]
            columns = [col[start:stop] for col in context]
            np.copyto(row, columns[0] if len(columns) == 1 else _ravel_into(narrow[:c], columns, cards))
            # mode "clip" gathers straight into `out`, where "raise" would buffer it; no index is out of range
            np.greater_equal(u, first.take(row, out=gathered[:c], mode="clip"), out=state)
        else:
            np.greater_equal(u, first, out=state)
        step = width >> 1
        if step > 1:
            state *= step
            row *= width
        while step > 1:
            step >>= 1
            # a view that starts `step` slots on reads row * width + state + step
            index = np.add(row, state, out=probe[:c])
            state += dtype.type(step) * (u >= thresholds[step:][index])
    return states


def fit_conditional(d: Dataset, target: str, context: Sequence[str]) -> CptModel:
    """Maximum-likelihood CPT with additive (alpha=1) smoothing; context
    configurations never observed get the uniform row."""
    if d.n == 0:
        raise DataError("cannot fit on an empty dataset")
    tgt = d.variable(target)
    if target in context:
        raise DataError(f"target {target!r} appears in its own context")
    counts = d.counts([*context, target]).astype(float)
    table = (counts + 1.0) / (counts.sum(axis=-1, keepdims=True) + tgt.cardinality)
    return CptModel(tgt, tuple(d.variable(c) for c in context), table)


def exact_conditional(joint: DistTable, target: str, context: Sequence[str]) -> ExactConditionalModel:
    """Model whose conditional equals the exact conditional of the given joint."""
    if target in context:
        raise DataError(f"target {target!r} appears in its own context")
    probs = contract([(joint.names, joint.probs)], [*context, target])
    den = probs.sum(axis=-1, keepdims=True)
    if np.any(den <= 0):
        raise DataError("context configuration with zero marginal mass")
    variables = dict(zip(joint.names, joint.variables))
    return ExactConditionalModel(variables[target], tuple(variables[c] for c in context), probs / den)
