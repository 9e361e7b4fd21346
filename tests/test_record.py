"""The CSV table rule: ``read_table`` reads what ``read_rows`` reads, the
bytes ``write_table`` writes, and the memory both ``read_table`` and
``write_table`` take beyond their columns."""

import csv
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascal import _record
from cascal._record import (finite, integer, number, read_rows, read_table, text,
                            write_table)
from cascal.errors import DatasetFormatError

_EDGE_FLOATS = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
                math.nan, math.inf, -math.inf]

#: Per Python type: how a cell of it is drawn, and the cell type that reads it back.
_CELLS = {
    float: (st.floats() | st.sampled_from(_EDGE_FLOATS), number),
    int: (st.integers(-2**64, 2**64), integer),
    str: (st.text(st.sampled_from('a ,"\n\r'), max_size=4), text),
}


@st.composite
def tables(draw):
    """(columns, their Python types): floats sometimes as a numpy array."""
    kinds = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    columns = {}
    for i, kind in enumerate(kinds):
        values = draw(st.lists(_CELLS[kind][0], min_size=n, max_size=n))
        if kind is float and draw(st.booleans()):
            values = np.array(values, dtype=float)
        columns[f"c{i}"] = values
    return columns, kinds


def _csv_module_bytes(path, header, cells) -> bytes:
    """The bytes csv.writer writes for the header and the rows of ``cells``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))
    return path.read_bytes()


class TestWriteTable:
    @settings(max_examples=300, deadline=None)
    @given(table=tables(), block_rows=st.integers(1, 5))
    def test_writes_the_csv_modules_bytes_and_reads_them_back(self, tmp_path_factory,
                                                              table, block_rows):
        columns, kinds = table
        cells = [v if isinstance(v, list) else v.tolist() for v in columns.values()]
        path = tmp_path_factory.getbasetemp() / "table.csv"
        with mock.patch.object(_record, "BLOCK_ROWS", block_rows):
            write_table(path, columns)
            written = path.read_bytes()
            assert written == _csv_module_bytes(path.with_name("csv.csv"), list(columns),
                                                cells)
            # Before Python 3.13 the csv module leaves a lone \r unquoted,
            # and its reader then ends the row there.
            if sys.version_info < (3, 13) and any(
                    "\r" in cell for v, k in zip(cells, kinds) if k is str for cell in v):
                return
            back = read_table(path, {name: _CELLS[kind][1]
                                     for name, kind in zip(columns, kinds)})
        assert [list(map(repr, v)) for v in back] == [list(map(repr, v)) for v in cells]

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unequal lengths"):
            write_table(tmp_path / "t.csv", {"x": [1.0, 2.0], "y": [1.0]})

    def test_header_only(self, tmp_path):
        write_table(tmp_path / "t.csv", {"x": np.array([]), "y": []})
        assert (tmp_path / "t.csv").read_text() == "x,y\n"


class TestReadTable:
    """A file with several faults reports the first, as read row by row."""

    @pytest.mark.parametrize("body, message", [
        (b"0.1,oops\n0.2\n", "row 2: non-numeric y"),
        (b"0.1\n0.2,oops\n", "row 2: expected 2 columns, got 1"),
        (b"0.1,nan\n\n0.2,oops\n", "row 2: non-finite y"),
        # a field past csv.field_size_limit() in the same block
        (b"0.1,oops\n" + b"1" * 200_000 + b"\n", "row 2: non-numeric y"),
        # bytes that are not UTF-8, in a later chunk of the same block
        (b"0.1,oops\n" + b"0.5,0.5\n" * 3000 + b"\xff\n", "row 2: non-numeric y"),
    ], ids=["cell then short row", "short row then cell", "nan then bad cell",
            "cell then huge field", "cell then bad bytes"])
    def test_first_fault_wins(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x,y\n" + body)
        with pytest.raises(DatasetFormatError) as info:
            read_table(path, {"x": finite, "y": finite})
        assert str(info.value) == f"{path}: {message}"


_GOOD_CELLS = ["7", " 2", '"3"', "-4", "0"]
_ODD_CELLS = ["0.5", "-1e-3", "nan", "inf", "-inf", "oops", "", '"1,5"', '"a\nb"', '"a', "\r"]
#: A line of a CSV text: mostly good rows, and blank, short, wide, quoted
#: multi-line, bad, non-finite, non-UTF-8 and past the csv module's field limit.
_LINES = st.one_of(
    *[st.lists(st.sampled_from(_GOOD_CELLS), min_size=4, max_size=4).map(",".join)] * 8,
    *[st.lists(st.sampled_from(_GOOD_CELLS + _ODD_CELLS), min_size=least, max_size=most)
      .map(",".join) for least, most in [(1, 6), (4, 4), (4, 4)]],
    st.sampled_from(["", '0.5,0.5,7,"a\nb"', "\udcff", "1" * 140_000]),
).map(lambda line: line.encode("utf-8", "surrogateescape"))
_HEADERS = ["x,y,seed,note"] * 5 + ["seed, note ,y,x"] * 5 + [
    "x,y,seed,x", "y,seed,note,note", "x,y,note,z"]


def _columns_or_error(read):
    """Each column's cells as reprs (so nan equals nan), or the error message."""
    try:
        return [list(map(repr, column)) for column in read()]
    except DatasetFormatError as exc:
        return str(exc)


class TestReadRowsIsTheRule:
    @settings(max_examples=400, deadline=None)
    @given(header=st.sampled_from(_HEADERS), lines=st.lists(_LINES, max_size=12),
           bom=st.booleans(), crlf=st.booleans(), with_note=st.booleans(),
           block_rows=st.integers(1, 5))
    def test_read_table_reads_what_read_rows_reads(self, tmp_path_factory, header, lines,
                                                   bom, crlf, with_note, block_rows):
        path = tmp_path_factory.getbasetemp() / "rule.csv"
        end = b"\r\n" if crlf else b"\n"
        path.write_bytes(b"\xef\xbb\xbf" * bom + end.join([header.encode(), *lines]) + end)
        columns = {"y": number, "x": finite, "seed": integer}
        if with_note:
            columns["note"] = text

        def by_rows():
            rows = [cells for _, cells in read_rows(path, columns)]
            return list(zip(*rows)) if rows else [[] for _ in columns]

        with mock.patch.object(_record, "BLOCK_ROWS", block_rows):
            assert _columns_or_error(lambda: read_table(path, columns)) == \
                _columns_or_error(by_rows)


def _extra_memory(fn) -> int:
    """Peak traced memory of ``fn()`` beyond what it leaves allocated."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841  (the columns read stay alive while measured)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


class TestMemory:
    """Beyond the columns, a table takes one block's memory, whatever its rows."""

    @staticmethod
    def _columns(n):
        xs = np.linspace(0.0, 1.0, n)
        return {"x": xs, "y": 2.0 * xs, "seed": list(range(n))}

    def test_read(self, tmp_path):
        extra = {}
        for n in (20_000, 200_000):
            path = tmp_path / f"{n}.csv"
            write_table(path, self._columns(n))
            extra[n] = _extra_memory(
                lambda: read_table(path, {"y": finite, "seed": integer}))
        assert extra[200_000] <= 2 * extra[20_000], extra

    def test_write(self, tmp_path):
        extra = {}
        for n in (20_000, 200_000):
            columns = self._columns(n)
            extra[n] = _extra_memory(lambda: write_table(tmp_path / "t.csv", columns))
        assert extra[200_000] <= 2 * extra[20_000], extra
